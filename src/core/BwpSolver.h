//===- core/BwpSolver.h - LP2/LPAUX: bipartite weight problem --*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Algorithm 4 (LP2, the Bipartite Weight Problem) and Algorithm 5
/// (LPAUX): given the shape of the mapping and a set of measured kernels,
/// compute the edge weights rho_i,r.
///
/// For kernel K with measured IPC K̄, the normalized usage of resource r is
///   rho_K,r = (sum_i sigma_K,i rho_i,r) * K̄ / |K|
/// constrained by rho_K,r <= 1, and the objective minimizes
/// sum_K (1 - S_K) with S_K = max_r rho_K,r.
///
/// The `max` in the objective is not linear. Two solution modes:
///  * Pinned (default): each kernel's bottleneck resource is fixed (for
///    saturating kernels it is known by construction; for the rest it is
///    re-derived from the previous iterate), giving a pure LP that is
///    re-solved until the pins stabilize. Matches the paper's stated
///    intent that Ksat(i,r) "forces the saturation of r".
///  * ExactMilp: one argmax indicator per kernel; exact but exponential in
///    the worst case — used by tests and the ablation bench.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_CORE_BWPSOLVER_H
#define PALMED_CORE_BWPSOLVER_H

#include "core/ShapeSolver.h"
#include "isa/Microkernel.h"
#include "lp/Simplex.h"

#include <map>
#include <vector>

namespace palmed {

class Executor;

/// How the BWP objective's max is handled.
enum class BwpMode { Pinned, ExactMilp };

/// Cross-call memo of pinned per-resource BWP blocks (primary LP plus the
/// optional balancing passes), keyed by an exact 128-bit structural digest
/// of the block — capacity rows, variable bounds, balancing scales,
/// tie-break and pinned objective, all by coefficient bit pattern, never
/// by pointer identity (determinism lint). An exact hit replays the
/// stored solution verbatim, which is bit-identical to re-solving because
/// the compat solver is deterministic, and skips the LPs entirely. The
/// index is an ordered map, and the pinned solve probes and inserts only
/// from its calling thread, so lookups and inserts are deterministic
/// regardless of thread count.
class BwpSubproblemCache {
public:
  struct Entry {
    /// Final local values of the block, in the resource's local variable
    /// order.
    std::vector<double> Values;
  };

  const Entry *find(const lp::StructuralDigest::Value &D) const;
  /// First insert wins; entries are immutable once published.
  void insert(const lp::StructuralDigest::Value &D, Entry E);

  size_t numEntries() const { return Entries.size(); }
  void clear();

private:
  /// Backstop against unbounded growth in long-lived processes; at the
  /// cap the whole memo is dropped (epoch clear), which only costs
  /// future misses.
  static constexpr size_t MaxEntries = 1u << 20;

  std::map<lp::StructuralDigest::Value, Entry> Entries;
};

/// Knobs threaded through the pinned BWP solve. All combinations produce
/// bit-identical weights; the knobs only trade work (see the equivalence
/// tests in tests/lp2_test.cpp).
struct BwpSolveOptions {
  /// Fan target for the per-resource blocks of each pin round; null
  /// solves them inline. Must not be driven by another caller during the
  /// solve (Executor is not reentrant).
  Executor *Exec = nullptr;
  /// Cross-call block memo; null disables it. Probed and filled only by
  /// the serial passes around each round's fan-out, in resource order, so
  /// hit patterns are scheduling-independent.
  BwpSubproblemCache *Cache = nullptr;
};

/// A measured kernel entering a weight problem. \p PinnedResource fixes the
/// bottleneck resource; -1 = free (derived by pin iteration / argmax
/// indicators); ConstraintOnly (-2) = the kernel only contributes capacity
/// constraints and is never pinned (used for LPAUX solo kernels, whose
/// bottleneck resource is unknown and must not attract speculative
/// attribution).
struct WeightKernel {
  Microkernel K;
  double Ipc = 0.0;
  int PinnedResource = -1;
  static constexpr int ConstraintOnly = -2;

  double measuredCycles() const { return K.size() / Ipc; }
};

/// LP work of one weight solve: the LPs it ran and their simplex pivots,
/// and its probes of the block cache (BwpSolveOptions::Cache) and the
/// probes answered without solving. A deterministic function of the
/// solve's inputs and cache contents, at any executor width.
struct BwpWork {
  long Solves = 0;
  long Pivots = 0;
  long CacheProbes = 0;
  long CacheHits = 0;

  BwpWork &operator+=(const BwpWork &O) {
    Solves += O.Solves;
    Pivots += O.Pivots;
    CacheProbes += O.CacheProbes;
    CacheHits += O.CacheHits;
    return *this;
  }
};

/// Result of the core weight problem.
struct CoreWeights {
  /// Rho[basicIndex][resource], normalized.
  std::vector<std::vector<double>> Rho;
  /// Final objective sum_K (1 - S_K) (prediction slack over the kernels).
  double TotalSlack = 0.0;
  BwpWork Work;
};

/// LP2: weights of the basic instructions. \p IndexOf maps InstrId to basic
/// index; kernels may only contain basic instructions. \p SoloIpc (indexed
/// by basic index) enables the balanced tie-break of under-determined
/// weight splits; empty disables it. \p Options threads the pinned-solve
/// knobs (cache, executor) through the solve.
CoreWeights solveCoreWeights(const MappingShape &Shape,
                             const std::map<InstrId, size_t> &IndexOf,
                             const std::vector<WeightKernel> &Kernels,
                             BwpMode Mode, int MaxPinIterations = 6,
                             const std::vector<double> &SoloIpc = {},
                             const BwpSolveOptions &Options = {});

/// Result of one LPAUX solve.
struct AuxWeights {
  /// Rho[resource] row of the newly mapped instruction.
  std::vector<double> Rho;
  double TotalSlack = 0.0;
  bool Feasible = false;
  BwpWork Work;
};

/// LPAUX: weights of one additional instruction \p Inst against the frozen
/// core. \p FrozenRho is indexed [basicIndex][resource]; kernels may
/// contain basic instructions and \p Inst. Solves inline, without a block
/// cache, so it may run inside another fan-out.
AuxWeights solveAuxWeights(const MappingShape &Shape,
                           const std::map<InstrId, size_t> &IndexOf,
                           const std::vector<std::vector<double>> &FrozenRho,
                           InstrId Inst,
                           const std::vector<WeightKernel> &Kernels,
                           BwpMode Mode, int MaxPinIterations = 4);

} // namespace palmed

#endif // PALMED_CORE_BWPSOLVER_H
