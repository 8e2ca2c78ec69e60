//===- bench/bench_lp_micro.cpp - Solver/predictor microbenchmarks --------===//
//
// Part of the PALMED reproduction.
//
// google-benchmark timings of the building blocks whose cost dominates the
// pipeline: the simplex, the branch-and-bound, the analytic scheduling
// oracle, and the closed-form dual predictor (the paper's headline "simple
// formula instead of a flow problem" — visible here as orders of
// magnitude between the LP oracle and the dual evaluation).
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "core/DualConstruction.h"
#include "lp/Milp.h"
#include "lp/Simplex.h"
#include "machine/StandardMachines.h"
#include "sim/AnalyticOracle.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace palmed;

namespace {

lp::Model makeRandomLp(Rng &R, int Vars, int Rows) {
  lp::Model M;
  std::vector<lp::VarId> Ids;
  for (int V = 0; V < Vars; ++V)
    Ids.push_back(M.addVar("x", 0.0, 10.0));
  for (int C = 0; C < Rows; ++C) {
    lp::LinearExpr E;
    for (int V = 0; V < Vars; ++V)
      if (R.chance(0.4))
        E.add(Ids[static_cast<size_t>(V)], R.uniformRealIn(0.1, 2.0));
    M.addConstraint(std::move(E), lp::Sense::LE, R.uniformRealIn(2.0, 20.0));
  }
  lp::LinearExpr Obj;
  for (lp::VarId Id : Ids)
    Obj.add(Id, R.uniformRealIn(0.1, 1.0));
  M.setObjective(std::move(Obj), lp::Goal::Maximize);
  return M;
}

void BM_SimplexSmall(benchmark::State &State) {
  Rng R(1);
  lp::Model M = makeRandomLp(R, 20, 30);
  for (auto _ : State)
    benchmark::DoNotOptimize(lp::solveLp(M));
}
BENCHMARK(BM_SimplexSmall);

void BM_SimplexMedium(benchmark::State &State) {
  Rng R(2);
  lp::Model M = makeRandomLp(R, 80, 150);
  for (auto _ : State)
    benchmark::DoNotOptimize(lp::solveLp(M));
}
BENCHMARK(BM_SimplexMedium);

lp::Model makeKnapsack(int Items, int Rows, double Capacity) {
  Rng R(3);
  lp::Model M;
  std::vector<lp::LinearExpr> Caps(static_cast<size_t>(Rows));
  lp::LinearExpr Obj;
  for (int V = 0; V < Items; ++V) {
    lp::VarId Id = M.addBoolVar("b");
    for (lp::LinearExpr &Cap : Caps)
      Cap.add(Id, R.uniformRealIn(1.0, 5.0));
    Obj.add(Id, R.uniformRealIn(1.0, 9.0));
  }
  for (lp::LinearExpr &Cap : Caps)
    M.addConstraint(std::move(Cap), lp::Sense::LE, Capacity);
  M.setObjective(std::move(Obj), lp::Goal::Maximize);
  return M;
}

void BM_MilpKnapsack(benchmark::State &State) {
  // Same instance as the committed BENCH_seed.json entry.
  lp::Model M = makeKnapsack(14, 1, 18.0);
  for (auto _ : State)
    benchmark::DoNotOptimize(lp::solveMilp(M));
}
BENCHMARK(BM_MilpKnapsack);

/// Branch-and-bound on a 22-item, 4-row knapsack, every node LP solved
/// cold; the counters report the nodes and node-LP pivots of one solve.
void BM_MilpKnapsack4x22(benchmark::State &State) {
  lp::Model M = makeKnapsack(22, 4, 28.0);
  lp::MilpStats Stats;
  for (auto _ : State)
    benchmark::DoNotOptimize(lp::solveMilp(M, lp::MilpOptions(), &Stats));
  State.counters["nodes"] = static_cast<double>(Stats.NodesExplored);
  State.counters["pivots"] = static_cast<double>(Stats.LpPivots);
}
BENCHMARK(BM_MilpKnapsack4x22);

/// The flow-LP oracle vs the closed-form dual on the same kernel: the
/// paper's complexity argument in microseconds.
void BM_AnalyticOracleKernel(benchmark::State &State) {
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  Microkernel K;
  Rng R(4);
  for (int T = 0; T < 8; ++T)
    K.add(static_cast<InstrId>(R.uniformInt(M.numInstructions())),
          static_cast<double>(1 + R.uniformInt(3)));
  for (auto _ : State)
    benchmark::DoNotOptimize(O.measureIpc(K));
}
BENCHMARK(BM_AnalyticOracleKernel);

void BM_DualPredictorKernel(benchmark::State &State) {
  MachineModel M = makeSklLike();
  ResourceMapping Dual = buildDualMapping(M);
  Microkernel K;
  Rng R(4);
  for (int T = 0; T < 8; ++T)
    K.add(static_cast<InstrId>(R.uniformInt(M.numInstructions())),
          static_cast<double>(1 + R.uniformInt(3)));
  for (auto _ : State)
    benchmark::DoNotOptimize(Dual.predictIpc(K));
}
BENCHMARK(BM_DualPredictorKernel);

void BM_DualConstructionSkl(benchmark::State &State) {
  MachineModel M = makeSklLike();
  for (auto _ : State)
    benchmark::DoNotOptimize(buildDualMapping(M));
}
BENCHMARK(BM_DualConstructionSkl);

/// Console output as usual, plus one BenchReport metric per benchmark so
/// bench_all can fold the timings into BENCH_seed.json.
class ReportingReporter : public benchmark::ConsoleReporter {
public:
  explicit ReportingReporter(palmed::bench::BenchReport &Report)
      : Report(Report) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs)
      if (R.run_type == Run::RT_Iteration)
        Report.addMetric(R.benchmark_name(), R.GetAdjustedRealTime(),
                         benchmark::GetTimeUnitString(R.time_unit));
    ConsoleReporter::ReportRuns(Runs);
  }

private:
  palmed::bench::BenchReport &Report;
};

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  palmed::bench::BenchReport Report("lp_micro");
  ReportingReporter Reporter(Report);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  benchmark::Shutdown();
  return Report.write();
}
