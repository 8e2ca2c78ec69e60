//===- sim/AnalyticOracle.cpp - Optimal steady-state scheduler ------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "sim/AnalyticOracle.h"

#include "lp/Simplex.h"
#include "support/Executor.h"

#include <cassert>
#include <cmath>

using namespace palmed;

ThroughputOracle::~ThroughputOracle() = default;

double AnalyticOracle::portCycles(const Microkernel &K) const {
  assert(!K.empty() && "cannot schedule an empty kernel");

  // Minimize t subject to: each µOP's demand is fully routed to admissible
  // ports, and each port's weighted load is at most t.
  lp::Model M;
  lp::VarId T = M.addVar("t", 0.0, lp::Infinity);

  unsigned NumPorts = Machine.numPorts();
  std::vector<lp::LinearExpr> PortLoad(NumPorts);

  for (const auto &[Id, Mult] : K.terms()) {
    const InstrExec &E = Machine.exec(Id);
    for (size_t U = 0; U < E.MicroOps.size(); ++U) {
      const MicroOpDesc &Op = E.MicroOps[U];
      lp::LinearExpr Routed;
      for (unsigned P = 0; P < NumPorts; ++P) {
        if (!Op.Ports.test(P))
          continue;
        lp::VarId X = M.addVar("x", 0.0, lp::Infinity);
        Routed.add(X, 1.0);
        PortLoad[P].add(X, Op.Occupancy);
      }
      M.addConstraint(std::move(Routed), lp::Sense::EQ, Mult);
    }
  }
  for (unsigned P = 0; P < NumPorts; ++P) {
    lp::LinearExpr C = PortLoad[P];
    C.add(T, -1.0);
    M.addConstraint(std::move(C), lp::Sense::LE, 0.0);
  }
  lp::LinearExpr Obj;
  Obj.add(T, 1.0);
  M.setObjective(std::move(Obj), lp::Goal::Minimize);

  // The measurement bits depend on the simplex's pivot path (see
  // lp/Simplex.h): oracle IPCs feed integer rounding of kernel
  // multiplicities, where a last-ulp difference on a .5 boundary changes
  // the generated benchmark set.
  lp::Solution Sol = lp::solveLp(M);
  assert(Sol.Status == lp::SolveStatus::Optimal &&
         "port scheduling LP must be feasible and bounded");
  return Sol.value(T);
}

std::vector<double>
AnalyticOracle::measureIpcBatch(const std::vector<Microkernel> &Kernels,
                                Executor *Exec) {
  std::vector<double> Ipcs(Kernels.size());
  auto Work = [&](size_t I, unsigned) { Ipcs[I] = measureIpc(Kernels[I]); };
  if (Exec && Exec->numWorkers() > 1 && Kernels.size() > 1)
    Exec->parallelFor(Kernels.size(), Work);
  else
    for (size_t I = 0; I < Kernels.size(); ++I)
      Work(I, 0);
  return Ipcs;
}

double AnalyticOracle::measureIpc(const Microkernel &K) {
  double Cycles = portCycles(K);
  if (unsigned W = Machine.decodeWidth())
    Cycles = std::max(Cycles, K.size() / static_cast<double>(W));
  Cycles *= Machine.mixFactor(K);
  assert(Cycles > 0.0 && "zero execution time");
  return K.size() / Cycles;
}
