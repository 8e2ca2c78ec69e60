//===- palmed/Pipeline.h - Staged Palmed pipeline --------------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public, staged form of the paper's Fig. 3 pipeline. Pipeline
/// exposes the three stages individually:
///
///   Pipeline P(Runner, Config);
///   P.selectBasics();      // Algo 1 -> SelectionResult
///   P.solveCoreMapping();  // Algo 2 -> CoreMappingResult (shape, sat)
///   P.completeMapping();   // Algo 5 -> PalmedResult
///
/// Stages must run in order and each runs once; run() drives whatever is
/// left, so `Pipeline(R).run()` maps in one shot, and a caller can stop
/// after any stage, inspect its result, and resume later. Progress is
/// observable through PipelineObserver and the whole pipeline is
/// cooperatively cancellable through CancellationToken (see
/// palmed/Observer.h).
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_PALMED_PIPELINE_H
#define PALMED_PALMED_PIPELINE_H

#include "core/BwpSolver.h"
#include "core/ResourceMapping.h"
#include "core/Selection.h"
#include "core/ShapeSolver.h"
#include "palmed/ExecutionPolicy.h"
#include "palmed/Observer.h"
#include "sim/BenchmarkRunner.h"

#include <memory>
#include <vector>

namespace palmed {

/// Pipeline configuration.
struct PalmedConfig {
  SelectionConfig Selection;
  /// Relative measurement tolerance shared by all comparisons.
  double Epsilon = 0.05;
  /// Multiplicity amplification M of the aMb seed benchmarks (paper uses 4).
  int MRepeat = 4;
  /// Saturation amplification L of the Ksat benchmarks (paper uses 4).
  int LSat = 4;
  /// Weight-problem solution mode (see BwpSolver.h).
  BwpMode Mode = BwpMode::Pinned;
  /// Maximum shape/enrichment iterations (Algo 2's repeat-until loop).
  int MaxShapeIterations = 10;
  /// How the fan-outs (stage 1 selection benchmarks, stage 2 per-resource
  /// LP2 blocks, stage 3 LPAUX solves) are scheduled. Mapping outcomes are
  /// bit-identical between Serial and any Parallel(N); see the observer
  /// threading contract in palmed/Observer.h.
  ExecutionPolicy Execution = ExecutionPolicy::serial();
  /// Stage-2 LP2 block cache (see BwpSubproblemCache in core/BwpSolver.h):
  /// memoizes per-resource subproblem blocks across the shape-refinement
  /// iterations. On and off produce bit-identical mappings; the knob only
  /// trades work. The per-resource blocks of each pin round always run
  /// over the execution policy.
  bool Lp2Cache = true;
};

/// Run statistics (feeds the Table II reproduction).
struct PalmedStats {
  size_t NumBenchmarks = 0;       ///< Distinct microbenchmarks executed.
  /// Stage-1 quadratic pair benchmarks actually measured, and the count
  /// the full O(n²) sweep would have needed (equal unless
  /// SelectionConfig::ClusterPairPruning trimmed the sweep).
  size_t PairBenchmarks = 0;
  size_t PairBenchmarksQuadratic = 0;
  size_t NumResources = 0;        ///< Abstract resources found.
  size_t NumBasic = 0;            ///< Basic instructions selected.
  size_t NumMapped = 0;           ///< Instructions mapped.
  size_t NumCoreKernels = 0;      ///< Kernels entering LP2.
  size_t NumShapeConstraints = 0; ///< Deduplicated LP1 constraints.
  double CoreSlack = 0.0;         ///< LP2 objective sum(1 - S_K).
  double SelectionSeconds = 0.0;
  double CoreMappingSeconds = 0.0; ///< Shape + weights (the "LP solving").
  double CompleteMappingSeconds = 0.0;
  /// LP solver work of the two mapping stages, as the weight solves
  /// report it (BwpWork): solve counts and simplex pivots of the core
  /// mapping's LP2 fits and of the completion's LPAUX solves. LPs that
  /// stand in for the hardware (the analytic oracle's measurements) are
  /// not counted, so the counts do not depend on what the runner had
  /// cached. LpWarmStartAttempts/Hits count cache probes and hits (both
  /// zero with Lp2Cache off): LP2 blocks looked up in, or replayed from,
  /// the block cache, and stage-3 instructions looked up in, or
  /// deduplicated against, their measurement group. No LP is
  /// warm-started; the field names are historical and kept for the tools
  /// that read them.
  long CoreLpSolves = 0;
  long CoreLpPivots = 0;
  long CompleteLpSolves = 0;
  long CompleteLpPivots = 0;
  long LpWarmStartAttempts = 0;
  long LpWarmStartHits = 0;
  /// Branch-and-bound nodes the LP1 shape searches visited, summed over
  /// the refinement rounds (0 when the clique bound proved every greedy
  /// shape optimal). Part of the Serial==Parallel bitwise stats contract.
  size_t ShapeSearchNodes = 0;
  /// Resolved executor width the pipeline ran with (1 = serial). A thread
  /// counter, not a mapping outcome: it is the one stats field allowed to
  /// differ between Serial and Parallel runs (besides the *Seconds
  /// timings).
  unsigned NumThreads = 1;
};

/// Pipeline output.
struct PalmedResult {
  ResourceMapping Mapping;
  SelectionResult Selection;
  MappingShape Shape;
  /// One saturating kernel per resource (primary choice, minimal
  /// consumption); may be empty for resources nothing saturates.
  std::vector<Microkernel> SaturatingKernels;
  PalmedStats Stats;
};

/// Inspectable result of the core-mapping stage (Algo 2), frozen before
/// the complete-mapping stage runs (whose final pruning may drop
/// resources).
struct CoreMappingResult {
  /// Shape at the end of the refinement (one member set per resource).
  MappingShape Shape;
  /// Saturating kernel per resource (may be empty where nothing
  /// saturates).
  std::vector<Microkernel> SaturatingKernels;
  /// Kernels that entered the final LP2 solve.
  size_t NumCoreKernels = 0;
  /// LP2 objective sum(1 - S_K).
  double CoreSlack = 0.0;
  /// Wall-clock of the stage.
  double Seconds = 0.0;
};

/// The staged pipeline. Not thread-safe: drive it from one thread (the
/// CancellationToken may be flipped from any other thread). Move-only.
/// Under a Parallel execution policy the pipeline owns internal worker
/// threads for the fan-outs of all three stages; observer callbacks may then
/// arrive from those workers under the contract documented in
/// palmed/Observer.h, while mapping outcomes stay bit-identical to a
/// serial run.
class Pipeline {
public:
  /// \p Runner must outlive the pipeline.
  explicit Pipeline(BenchmarkRunner &Runner,
                    PalmedConfig Config = PalmedConfig());
  ~Pipeline();
  Pipeline(Pipeline &&) noexcept;
  Pipeline &operator=(Pipeline &&) noexcept;

  /// Installs a progress observer (borrowed; null to clear). Callbacks run
  /// synchronously on the pipeline's thread.
  void setObserver(PipelineObserver *Observer);

  /// Installs a cancellation token (borrowed; null to clear).
  void setCancellationToken(CancellationToken *Token);

  /// The stage the next selectBasics/solveCoreMapping/completeMapping (or
  /// run()) call will execute. Invalid once finished().
  PipelineStage nextStage() const;
  /// True once all three stages have run.
  bool finished() const;

  /// Stage 1 (Algo 1): basic-instruction selection. Throws
  /// std::logic_error when called out of order, CancelledError when the
  /// token fired.
  const SelectionResult &selectBasics();

  /// Stage 2 (Algo 2): seed benchmarks, shape/weights refinement,
  /// saturating-kernel choice, core weights.
  const CoreMappingResult &solveCoreMapping();

  /// Stage 3 (Algo 5): map every remaining instruction against the frozen
  /// core and prune dominated resources.
  const PalmedResult &completeMapping();

  /// Runs every stage that has not run yet and returns the final result.
  const PalmedResult &run();

  /// Final result; requires finished().
  const PalmedResult &result() const;
  /// Moves the final result out (the pipeline is spent afterwards);
  /// requires finished().
  PalmedResult takeResult();

  /// Statistics populated so far (complete once finished()).
  const PalmedStats &stats() const;

  const PalmedConfig &config() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace palmed

#endif // PALMED_PALMED_PIPELINE_H
