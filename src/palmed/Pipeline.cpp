//===- palmed/Pipeline.cpp - Staged Palmed pipeline -----------------------===//
//
// Part of the PALMED reproduction.
//
// The end-to-end pipeline of paper Fig. 3, split into the three explicit
// stages of the public API:
//
//   1. basic-instruction selection (Algo 1, Selection.h);
//   2. core mapping (Algo 2): seed benchmarks {a, aabb, aMb}, iterated
//      shape inference with benchmark enrichment (LP1, ShapeSolver.h),
//      edge weights (LP2, BwpSolver.h), and saturating-kernel selection;
//   3. complete mapping (Algo 5): every remaining benchmarkable
//      instruction is mapped against the frozen core via per-resource
//      saturation benchmarks Ksat(i, r) = i^IPC(i) sat[r]^(L * IPC(sat[r])).
//
// The only interaction with the target machine is through a
// BenchmarkRunner; no performance counters are used, mirroring the
// paper's core claim.
//
//===----------------------------------------------------------------------===//

#include "palmed/Pipeline.h"

#include "support/Executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>

using namespace palmed;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Measures \p K after integer rounding; returns the rounded kernel and its
/// IPC so LP coefficients match what was actually benchmarked.
std::pair<Microkernel, double> measureRounded(BenchmarkRunner &Runner,
                                              const Microkernel &K) {
  Microkernel Rounded = K.isIntegral() ? K : K.roundedToIntegers();
  double Ipc = Runner.measureIpc(Rounded);
  return {std::move(Rounded), Ipc};
}

/// Splits \p Members into kernels acceptable by the runner: if the member
/// set mixes SSE and AVX, one kernel drops the AVX part and one drops the
/// SSE part; otherwise a single kernel results. Multiplicities are the
/// members' solo IPCs. Kernels with fewer than two instructions are
/// dropped (solo kernels are seeded separately).
std::vector<Microkernel>
makeEnrichmentKernels(const std::vector<InstrId> &Members,
                      const std::map<InstrId, double> &SoloIpc,
                      const MachineModel &Machine) {
  const InstructionSet &Isa = Machine.isa();
  auto Build = [&](ExtClass Excluded) {
    Microkernel K;
    for (InstrId Id : Members)
      if (Isa.info(Id).Ext != Excluded)
        K.add(Id, SoloIpc.at(Id));
    return K;
  };
  Microkernel Full;
  for (InstrId Id : Members)
    Full.add(Id, SoloIpc.at(Id));

  std::vector<Microkernel> Out;
  if (!Machine.kernelMixesExtensions(Full)) {
    if (Full.numDistinct() >= 2)
      Out.push_back(std::move(Full));
    return Out;
  }
  Microkernel NoAvx = Build(ExtClass::Avx);
  Microkernel NoSse = Build(ExtClass::Sse);
  if (NoAvx.numDistinct() >= 2)
    Out.push_back(std::move(NoAvx));
  if (NoSse.numDistinct() >= 2)
    Out.push_back(std::move(NoSse));
  return Out;
}

} // namespace

const char *palmed::pipelineStageName(PipelineStage Stage) {
  switch (Stage) {
  case PipelineStage::SelectBasics:
    return "select-basics";
  case PipelineStage::SolveCoreMapping:
    return "solve-core-mapping";
  case PipelineStage::CompleteMapping:
    return "complete-mapping";
  }
  return "?";
}

PipelineObserver::~PipelineObserver() = default;

CancelledError::CancelledError()
    : std::runtime_error("palmed pipeline cancelled") {}

//===----------------------------------------------------------------------===//
// Pipeline implementation.
//===----------------------------------------------------------------------===//

struct Pipeline::Impl {
  BenchmarkRunner &Runner;
  const MachineModel &Machine;
  PalmedConfig Config;

  /// Shared worker pool for the fan-outs of all three stages (width 1
  /// under the Serial policy, in which case everything runs inline).
  Executor Exec;

  PipelineObserver *Observer = nullptr;
  CancellationToken *Cancel = nullptr;

  /// Number of stages completed so far (0..3).
  int StagesDone = 0;

  PalmedResult Result;
  CoreMappingResult Core;

  // Cross-stage working state (stage 2 builds it, stage 3 consumes it).
  std::map<InstrId, size_t> IndexOf;
  std::vector<double> BasicIpc;
  std::set<Microkernel> SeenKernels;
  std::vector<KernelObservation> Observations;
  std::vector<WeightKernel> CoreKernels;
  CoreWeights Weights;
  MappingShape Shape;
  std::vector<Microkernel> Sat;
  std::vector<bool> Genuine;

  /// Cross-solve memo for the stage-2 LP2 fits: the shape-refinement loop
  /// re-solves largely identical per-resource blocks every iteration, and
  /// the final refits repeat most of the last loop iteration's blocks.
  /// Stage 3 deliberately does NOT share this cache: its LPAUX solves run
  /// inside a parallelFor, and a shared memo would make the solve/pivot
  /// stats depend on scheduling, breaking the Serial==Parallel stats
  /// contract.
  BwpSubproblemCache CoreLpCache;

  // NumThreads <= 1 (including a raw 0) is serial, matching EvalSession;
  // the "0 = auto" convention is resolved by ExecutionPolicy::parallel()
  // before a policy ever reaches the pipeline.
  Impl(BenchmarkRunner &Runner, PalmedConfig Config)
      : Runner(Runner), Machine(Runner.machine()), Config(Config),
        Exec(std::max(1u, Config.Execution.NumThreads)),
        Result{ResourceMapping(Runner.machine().numInstructions()),
               SelectionResult(),
               MappingShape(),
               {},
               PalmedStats()} {
    Result.Stats.NumThreads = Exec.numWorkers();
  }

  void checkCancelled() const {
    if (Cancel && Cancel->cancelRequested())
      throw CancelledError();
  }

  void requireStage(PipelineStage Stage) const {
    int Want = static_cast<int>(Stage);
    if (StagesDone == Want)
      return;
    std::string Msg = std::string("palmed::Pipeline: stage '") +
                      pipelineStageName(Stage) + "' cannot run now (" +
                      (StagesDone > Want ? "already done"
                                         : "earlier stages pending") +
                      ")";
    throw std::logic_error(Msg);
  }

  void beginStage(PipelineStage Stage) {
    requireStage(Stage);
    checkCancelled();
    if (Observer)
      Observer->onStageBegin(Stage);
  }

  void endStage(PipelineStage Stage) {
    ++StagesDone;
    // Keep the benchmark counter live for stage-end observers (stage 3
    // re-derives the same value for the final stats).
    Result.Stats.NumBenchmarks = Runner.numDistinctBenchmarks();
    if (Observer)
      Observer->onStageEnd(Stage, Result.Stats);
  }

  /// Builds the per-resource saturation benchmark Ksat(i, r).
  Microkernel makeKsat(InstrId Inst, double InstIpc, const Microkernel &S) {
    double SatIpc = Runner.measureIpc(S);
    Microkernel K = S.scaled(Config.LSat * SatIpc);
    K.add(Inst, InstIpc);
    return K;
  }

  void selectBasics();
  void solveCoreMapping();
  void completeMapping();
};

// ---- Stage 1: basic instruction selection (Algo 1). ----
void Pipeline::Impl::selectBasics() {
  beginStage(PipelineStage::SelectBasics);
  auto T0 = std::chrono::steady_clock::now();
  Result.Selection = selectBasicInstructions(Runner, Machine.isa().allIds(),
                                             Config.Selection, &Exec);
  const SelectionResult &Sel = Result.Selection;
  Result.Stats.SelectionSeconds = secondsSince(T0);
  Result.Stats.PairBenchmarks = Sel.PairBenchmarks;
  Result.Stats.PairBenchmarksQuadratic = Sel.PairBenchmarksQuadratic;

  const std::vector<InstrId> &Basic = Sel.Basic;
  assert(!Basic.empty() && "selection produced no basic instructions");
  Result.Stats.NumBasic = Basic.size();

  BasicIpc.resize(Basic.size());
  for (size_t I = 0; I < Basic.size(); ++I) {
    IndexOf[Basic[I]] = I;
    BasicIpc[I] = Sel.soloIpc(Basic[I]);
  }
  endStage(PipelineStage::SelectBasics);
}

// ---- Stage 2: core mapping (Algo 2). ----
void Pipeline::Impl::solveCoreMapping() {
  beginStage(PipelineStage::SolveCoreMapping);
  const SelectionResult &Sel = Result.Selection;
  const std::vector<InstrId> &Basic = Sel.Basic;
  const double Eps = Config.Epsilon;
  auto T1 = std::chrono::steady_clock::now();
  // LP2 fits over CoreKernels (cache, per-resource blocks fanned over the
  // pipeline's executor); Lp2Work sums the LP work the fits report.
  BwpWork Lp2Work;
  auto FitWeights = [&](const std::vector<double> &SoloIpc) {
    BwpSolveOptions Options;
    Options.Exec = &Exec;
    Options.Cache = Config.Lp2Cache ? &CoreLpCache : nullptr;
    Weights = solveCoreWeights(Shape, IndexOf, CoreKernels, Config.Mode,
                               /*MaxPinIterations=*/6, SoloIpc, Options);
    Lp2Work += Weights.Work;
  };

  // Seed benchmarks: {a}, {aabb}, {aMb} per compatible pair (Algo 2 line 2).
  auto AddKernel = [&](const Microkernel &K) {
    if (K.empty() || !Runner.accepts(K))
      return;
    auto [Rounded, Ipc] = measureRounded(Runner, K);
    if (!SeenKernels.insert(Rounded).second)
      return;
    Observations.push_back({std::move(Rounded), Ipc});
  };

  for (InstrId A : Basic)
    AddKernel(Microkernel::single(A, Sel.soloIpc(A)));
  for (InstrId A : Basic) {
    for (InstrId B : Basic) {
      if (A >= B)
        continue;
      AddKernel(makePairKernel(A, Sel.soloIpc(A), B, Sel.soloIpc(B)));
    }
  }
  for (InstrId A : Basic) {
    for (InstrId B : Basic) {
      if (A == B)
        continue;
      // aMb: amplify a by M to expose a's private resources (Algo 3's
      // anti-collapse benchmarks).
      Microkernel K;
      K.add(A, Config.MRepeat * Sel.soloIpc(A));
      K.add(B, Sel.soloIpc(B));
      AddKernel(K);
    }
  }

  // Selection-derived constraints (Algo 3 lines 4-5), expressed per
  // extension group exactly as they were measured.
  std::vector<ShapeConstraint> FixedConstraints;
  {
    // Very basic: a resource private within the group's very-basic set.
    std::map<ExtClass, InstrIndexMask> VbMaskByExt;
    for (InstrId Id : Sel.VeryBasic) {
      if (!IndexOf.count(Id))
        continue;
      VbMaskByExt[Machine.isa().info(Id).Ext].set(IndexOf.at(Id));
    }
    for (InstrId Id : Sel.VeryBasic) {
      if (!IndexOf.count(Id))
        continue;
      InstrIndexMask Bit = InstrIndexMask::bit(IndexOf.at(Id));
      InstrIndexMask Others =
          VbMaskByExt[Machine.isa().info(Id).Ext].without(Bit);
      FixedConstraints.push_back(
          {Bit, Others, static_cast<int>(IndexOf.at(Id))});
    }
    // Most greedy: a resource shared with every overlapping peer.
    for (InstrId Id : Sel.MostGreedy) {
      if (!IndexOf.count(Id))
        continue;
      InstrIndexMask Req = InstrIndexMask::bit(IndexOf.at(Id));
      for (InstrId Peer : Basic) {
        if (Peer == Id)
          continue;
        double Pair = Sel.pairIpc(Id, Peer);
        if (Pair < 0.0)
          continue;
        if (!isAdditivePair(Pair, Sel.soloIpc(Id), Sel.soloIpc(Peer), Eps))
          Req.set(IndexOf.at(Peer));
      }
      FixedConstraints.push_back({Req, {}, -1});
    }
  }

  // Pairwise share classification over the basic set, from the quadratic
  // benchmarks (cross-extension pairs the generator refuses stay Unknown).
  ShareMatrix Shares(Basic.size(),
                     std::vector<ShareKind>(Basic.size(),
                                            ShareKind::Unknown));
  for (size_t I = 0; I < Basic.size(); ++I) {
    Shares[I][I] = ShareKind::Full;
    for (size_t J = I + 1; J < Basic.size(); ++J) {
      Microkernel K = makePairKernel(Basic[I], BasicIpc[I], Basic[J],
                                     BasicIpc[J]);
      if (!Runner.accepts(K))
        continue;
      auto [Rounded, Ipc] = measureRounded(Runner, K);
      double T = Rounded.size() / Ipc;
      double TAloneI = Rounded.multiplicity(Basic[I]) / BasicIpc[I];
      double TAloneJ = Rounded.multiplicity(Basic[J]) / BasicIpc[J];
      Shares[I][J] = Shares[J][I] = classifyShare(T, TAloneI, TAloneJ, Eps);
    }
  }

  // Shape iteration with benchmark enrichment (Algo 2 lines 3-7).
  std::map<InstrId, double> BasicSolo;
  for (InstrId Id : Basic)
    BasicSolo[Id] = Sel.soloIpc(Id);

  // The shape/weights refinement loop. Each round: (1) re-derive the LP1
  // constraints and solve for a minimal shape; (2) append previously forced
  // resources; (3) enrich the benchmark set with one kernel per resource;
  // (4) fit the weights (LP2) and look for kernels the mapping cannot
  // saturate — the paper's "undesired merges". Each such kernel's member
  // set is forced to become a dedicated resource in the next round, giving
  // LP2 a place to express that bottleneck.
  std::vector<ShapeConstraint> Constraints;
  std::vector<InstrIndexMask> ForcedResources;
  for (int Iter = 0; Iter < Config.MaxShapeIterations; ++Iter) {
    checkCancelled();
    Constraints = FixedConstraints;
    for (const KernelObservation &Obs : Observations) {
      auto Derived = deriveKernelConstraints(Obs, IndexOf, BasicIpc, Eps);
      Constraints.insert(Constraints.end(), Derived.begin(), Derived.end());
    }
    Constraints =
        simplifyConstraints(expandOwnerForbidden(Constraints, Shares));
    size_t SearchNodes = 0;
    Shape = solveShapeExact(Constraints, Shares, &SearchNodes);
    Result.Stats.ShapeSearchNodes += SearchNodes;
    for (const InstrIndexMask &Forced : ForcedResources)
      if (!std::count(Shape.Resources.begin(), Shape.Resources.end(),
                      Forced))
        Shape.Resources.push_back(Forced);

    // Enrichment: one benchmark per resource combining all its members —
    // over the *closure* of the member sets under union-of-intersecting
    // (the binding sets of the dual theory are such unions), so that
    // under-fitted unions can be discovered and forced below.
    size_t ObservationsBefore = Observations.size();
    std::set<InstrIndexMask> EnrichSets(Shape.Resources.begin(),
                                        Shape.Resources.end());
    {
      constexpr size_t ClosureCap = 96;
      bool Grew = true;
      while (Grew && EnrichSets.size() < ClosureCap) {
        Grew = false;
        std::vector<InstrIndexMask> Current(EnrichSets.begin(),
                                            EnrichSets.end());
        for (size_t A = 0; A < Current.size() && !Grew; ++A)
          for (size_t B = A + 1; B < Current.size(); ++B)
            if (Current[A].intersects(Current[B]) &&
                EnrichSets.insert(Current[A] | Current[B]).second) {
              Grew = true;
              break;
            }
      }
    }
    for (const InstrIndexMask &Members : EnrichSets) {
      std::vector<InstrId> Ids;
      Members.forEachSetBit([&](size_t I) { Ids.push_back(Basic[I]); });
      for (const Microkernel &K :
           makeEnrichmentKernels(Ids, BasicSolo, Machine))
        AddKernel(K);
    }

    // Fit the weights and detect unsaturable kernels. No balanced
    // tie-break here: the refinement's underfit detection needs the
    // maximal-weight vertex.
    CoreKernels.clear();
    for (const KernelObservation &Obs : Observations)
      CoreKernels.push_back({Obs.K, Obs.Ipc, -1});
    FitWeights({});

    size_t ForcedBefore = ForcedResources.size();
    {
      // Collect under-fitted kernels and force the *largest* member sets
      // first (a few per round): the union resources they demand usually
      // absorb the smaller ones, which the final pruning then removes.
      struct Candidate {
        InstrIndexMask Members;
        double Slack;
      };
      std::vector<Candidate> Candidates;
      for (const KernelObservation &Obs : Observations) {
        double T = Obs.K.size() / Obs.Ipc;
        double MaxLoad = 0.0;
        InstrIndexMask Members;
        for (size_t R = 0; R < Shape.numResources(); ++R) {
          double Load = 0.0;
          for (const auto &[Id, Mult] : Obs.K.terms())
            Load += Mult * Weights.Rho[IndexOf.at(Id)][R];
          MaxLoad = std::max(MaxLoad, Load);
        }
        for (const auto &[Id, Mult] : Obs.K.terms())
          Members.set(IndexOf.at(Id));
        if (MaxLoad < (1.0 - 2.0 * Eps) * T &&
            !std::count(ForcedResources.begin(), ForcedResources.end(),
                        Members) &&
            !std::count(Shape.Resources.begin(), Shape.Resources.end(),
                        Members))
          Candidates.push_back({Members, 1.0 - MaxLoad / T});
      }
      std::sort(Candidates.begin(), Candidates.end(),
                [](const Candidate &A, const Candidate &B) {
                  size_t CA = A.Members.count();
                  size_t CB = B.Members.count();
                  if (CA != CB)
                    return CA > CB; // Largest member sets first.
                  return A.Slack > B.Slack;
                });
      constexpr size_t MaxForcedPerRound = 8;
      for (size_t C = 0;
           C < Candidates.size() && C < MaxForcedPerRound; ++C)
        if (!std::count(ForcedResources.begin(), ForcedResources.end(),
                        Candidates[C].Members))
          ForcedResources.push_back(Candidates[C].Members);
    }

    if (Observer)
      Observer->onShapeIteration(Iter, Constraints.size(),
                                 Shape.numResources(),
                                 Runner.numDistinctBenchmarks());

    if (Observations.size() == ObservationsBefore &&
        ForcedResources.size() == ForcedBefore)
      break; // Fixpoint: nothing new to benchmark, nothing to split.
  }
  // NOTE: Shape.Resources and Weights.Rho columns are index-aligned from
  // here on; every later filtering step must touch both together.
  Result.Shape = Shape;
  Result.Stats.NumShapeConstraints = Constraints.size();

  // ---- Final weights: refit with the balanced tie-break. ----
  // In the dual, a resource r_J charges every µOP it serves uniformly
  // (1/|J|), so among the measurement-equivalent optima the most *balanced*
  // raw weights are the best estimate (and they keep saturating kernels
  // exclusive, which the LPAUX probes below require).
  CoreKernels.clear();
  for (const KernelObservation &Obs : Observations)
    CoreKernels.push_back({Obs.K, Obs.Ipc, -1});
  FitWeights(std::vector<double>(Basic.size(), 1.0));

  // ---- Set-cover trim. ----
  // The refinement loop leaves redundant fragment resources behind; keep a
  // minimal subset that still *explains* (nearly saturates) every kernel
  // some resource explains, preferring resources that explain many kernels.
  {
    const size_t Total = Shape.numResources();
    std::vector<std::vector<size_t>> Explains(Total);
    std::vector<bool> Covered(Observations.size(), false);
    size_t NumExplainable = 0;
    std::vector<bool> Explainable(Observations.size(), false);
    for (size_t O = 0; O < Observations.size(); ++O) {
      const KernelObservation &Obs = Observations[O];
      double T = Obs.K.size() / Obs.Ipc;
      for (size_t R = 0; R < Total; ++R) {
        double Load = 0.0;
        for (const auto &[Id, Mult] : Obs.K.terms())
          Load += Mult * Weights.Rho[IndexOf.at(Id)][R];
        if (Load >= (1.0 - 2.0 * Eps) * T)
          Explains[R].push_back(O);
      }
    }
    for (size_t R = 0; R < Total; ++R)
      for (size_t O : Explains[R])
        if (!Explainable[O]) {
          Explainable[O] = true;
          ++NumExplainable;
        }
    std::vector<bool> Keep(Total, false);
    size_t NumCovered = 0;
    while (NumCovered < NumExplainable) {
      size_t BestR = Total, BestGain = 0;
      for (size_t R = 0; R < Total; ++R) {
        if (Keep[R])
          continue;
        size_t Gain = 0;
        for (size_t O : Explains[R])
          Gain += !Covered[O];
        if (Gain > BestGain) {
          BestGain = Gain;
          BestR = R;
        }
      }
      if (BestR == Total)
        break;
      Keep[BestR] = true;
      for (size_t O : Explains[BestR])
        if (!Covered[O]) {
          Covered[O] = true;
          ++NumCovered;
        }
    }
    MappingShape Trimmed;
    std::vector<std::vector<double>> TrimmedRho(Basic.size());
    for (size_t R = 0; R < Total; ++R) {
      if (!Keep[R])
        continue;
      Trimmed.Resources.push_back(Shape.Resources[R]);
      for (size_t I = 0; I < Basic.size(); ++I)
        TrimmedRho[I].push_back(Weights.Rho[I][R]);
    }
    if (!Trimmed.Resources.empty()) {
      Shape = std::move(Trimmed);
      Weights.Rho = std::move(TrimmedRho);
    }
  }

  // Collapse the refinement fragments: a resource whose fitted basic
  // column is pointwise dominated by another's can never be the unique
  // bottleneck of any kernel over basic instructions, and — crucial for
  // the saturation probes below — its existence breaks the exclusivity of
  // every saturating kernel of its dominator. Exact duplicates keep the
  // first copy.
  {
    const size_t Total = Shape.numResources();
    std::vector<bool> Keep(Total, true);
    auto DominatesOrEqual = [&](size_t R2, size_t R) {
      for (size_t I = 0; I < Basic.size(); ++I)
        if (Weights.Rho[I][R] > Weights.Rho[I][R2] + 1e-6)
          return false;
      return true;
    };
    for (size_t R = 0; R < Total; ++R) {
      for (size_t R2 = 0; R2 < Total && Keep[R]; ++R2) {
        if (R2 == R || !Keep[R2])
          continue;
        if (!DominatesOrEqual(R2, R))
          continue;
        // Tie-break exact duplicates towards the smaller index.
        if (DominatesOrEqual(R, R2) && R < R2)
          continue;
        Keep[R] = false;
      }
    }
    MappingShape NewShape;
    std::vector<std::vector<double>> NewRho(Basic.size());
    for (size_t R = 0; R < Total; ++R) {
      if (!Keep[R])
        continue;
      NewShape.Resources.push_back(Shape.Resources[R]);
      for (size_t I = 0; I < Basic.size(); ++I)
        NewRho[I].push_back(Weights.Rho[I][R]);
    }
    Shape = std::move(NewShape);
    Weights.Rho = std::move(NewRho);
  }
  Result.Shape = Shape;

  // ---- Saturating kernels (Algo 2 lines 9-12). ----
  const size_t NumRes = Shape.numResources();
  auto LoadOn = [&](const Microkernel &K, size_t R,
                    const std::vector<std::vector<double>> &Rho) {
    double L = 0.0;
    for (const auto &[Id, Mult] : K.terms()) {
      auto It = IndexOf.find(Id);
      if (It != IndexOf.end())
        L += Mult * Rho[It->second][R];
    }
    return L;
  };
  auto Consumption = [&](const Microkernel &K,
                         const std::vector<std::vector<double>> &Rho) {
    double C = 0.0;
    for (const auto &[Id, Mult] : K.terms()) {
      auto It = IndexOf.find(Id);
      if (It == IndexOf.end())
        continue;
      for (size_t R = 0; R < NumRes; ++R)
        C += Mult * Rho[It->second][R];
    }
    return C;
  };
  // Genuine[r] records whether sat[r] truly saturates r; saturation
  // probes against non-genuine kernels would mis-attribute the residual
  // time to the probed instruction, so they are skipped.
  Genuine.assign(NumRes, false);
  auto PickSaturating = [&](const std::vector<std::vector<double>> &Rho) {
    std::vector<Microkernel> Chosen(NumRes);
    for (size_t R = 0; R < NumRes; ++R) {
      double BestCons = 0.0;
      bool Found = false;
      double BestRatio = 0.0;
      const Microkernel *Fallback = nullptr;
      for (const KernelObservation &Obs : Observations) {
        double T = Obs.K.size() / Obs.Ipc;
        double Ratio = LoadOn(Obs.K, R, Rho) / T;
        if (Ratio > BestRatio) {
          BestRatio = Ratio;
          Fallback = &Obs.K;
        }
        if (Ratio < 1.0 - 2.0 * Eps)
          continue;
        // Exclusive saturation (paper Def. A.11 / Thm. A.3): the kernel
        // must leave every other resource at most 3/4 loaded, otherwise a
        // saturation probe against it would attribute the probed
        // instruction's pressure on *other* resources to this one.
        bool Exclusive = true;
        for (size_t R2 = 0; R2 < NumRes && Exclusive; ++R2)
          if (R2 != R && LoadOn(Obs.K, R2, Rho) / T > 0.75 + Eps)
            Exclusive = false;
        if (!Exclusive)
          continue;
        double Cons = Consumption(Obs.K, Rho);
        if (!Found || Cons < BestCons) {
          Found = true;
          BestCons = Cons;
          Chosen[R] = Obs.K;
        }
      }
      Genuine[R] = Found;
      if (!Found && Fallback)
        Chosen[R] = *Fallback; // Closest-to-saturating kernel.
    }
    return Chosen;
  };
  Sat = PickSaturating(Weights.Rho);

  // Enrich LP2 with Ksat(i, r) for basic instructions missing from sat[r]
  // and re-solve once (Algo 2 lines 11-12).
  for (size_t R = 0; R < NumRes; ++R) {
    if (Sat[R].empty() || !Genuine[R])
      continue;
    for (InstrId Id : Basic) {
      if (Sat[R].contains(Id))
        continue;
      Microkernel K = makeKsat(Id, Sel.soloIpc(Id), Sat[R]);
      if (!Runner.accepts(K))
        continue;
      auto [Rounded, Ipc] = measureRounded(Runner, K);
      if (SeenKernels.insert(Rounded).second) {
        Observations.push_back({Rounded, Ipc});
        CoreKernels.push_back({Rounded, Ipc, static_cast<int>(R)});
      }
    }
  }
  FitWeights(BasicIpc);
  Sat = PickSaturating(Weights.Rho);
  Result.SaturatingKernels = Sat;
  Result.Stats.NumCoreKernels = CoreKernels.size();
  Result.Stats.CoreSlack = Weights.TotalSlack;
  Result.Stats.CoreMappingSeconds = secondsSince(T1);
  Result.Stats.CoreLpSolves = Lp2Work.Solves;
  Result.Stats.CoreLpPivots = Lp2Work.Pivots;
  Result.Stats.LpWarmStartAttempts += Lp2Work.CacheProbes;
  Result.Stats.LpWarmStartHits += Lp2Work.CacheHits;

  // ---- Materialize the core mapping. ----
  for (size_t R = 0; R < NumRes; ++R)
    Result.Mapping.addResource("R" + std::to_string(R));
  for (size_t I = 0; I < Basic.size(); ++I) {
    Result.Mapping.markMapped(Basic[I]);
    for (size_t R = 0; R < NumRes; ++R)
      if (Weights.Rho[I][R] > 1e-9)
        Result.Mapping.setUsage(Basic[I], R, Weights.Rho[I][R]);
  }

  // Freeze the inspectable stage result.
  Core.Shape = Shape;
  Core.SaturatingKernels = Sat;
  Core.NumCoreKernels = CoreKernels.size();
  Core.CoreSlack = Weights.TotalSlack;
  Core.Seconds = Result.Stats.CoreMappingSeconds;
  endStage(PipelineStage::SolveCoreMapping);
}

// ---- Stage 3: complete mapping (Algo 5 / LPAUX). ----
void Pipeline::Impl::completeMapping() {
  beginStage(PipelineStage::CompleteMapping);
  const SelectionResult &Sel = Result.Selection;
  const size_t NumRes = Shape.numResources();
  auto T2 = std::chrono::steady_clock::now();

  // The instructions this stage maps: non-basic survivors, in selection
  // order. Basics were mapped by stage 2 and are excluded from the
  // progress denominator, so NumDone runs 1..NumTotal without jumps.
  std::vector<InstrId> AuxInstrs;
  for (InstrId Inst : Sel.Survivors)
    if (!IndexOf.count(Inst))
      AuxInstrs.push_back(Inst);
  const size_t NumTotal = AuxInstrs.size();

  // Per-instruction work (solo + saturation benchmarks, LPAUX solve) fans
  // out over the executor in two phases. Phase A measures every
  // instruction's aux kernels; the main thread then groups instructions
  // whose aux problems are bit-identical (same measured kernels after
  // normalizing the instruction's own id — frozen core, shape and index
  // map are constant across the stage) and phase B solves one LPAUX per
  // group, scattering the representative's weights to the duplicates.
  // Many instructions are measurement-equivalent (identical port usage),
  // so the dedup removes most of the stage's LP work; each group probe
  // counts as a warm-start attempt and each duplicate as a hit. Grouping
  // happens serially from index-ordered phase-A slots and every task
  // writes only its own slot, so the mapping and the stats are
  // bit-identical to a serial run.
  struct AuxSlot {
    std::vector<WeightKernel> Kernels; ///< Phase A output.
    AuxWeights Aux;
    size_t Rep = 0; ///< Group representative (== own index for uniques).
  };
  std::vector<AuxSlot> Slots(NumTotal);
  size_t NumDone = 0;       // Guarded by ProgressMutex.
  std::mutex ProgressMutex; // Serializes observer delivery (see Observer.h).

  // ---- Phase A: benchmarks. ----
  Exec.parallelFor(NumTotal, [&](size_t Idx, unsigned) {
    checkCancelled();
    const InstrId Inst = AuxInstrs[Idx];
    const double InstIpc = Sel.soloIpc(Inst);

    std::vector<WeightKernel> &AuxKernels = Slots[Idx].Kernels;
    // Solo kernel: capacity constraints only. Attributing its bottleneck
    // to a specific resource without probe evidence would be speculation.
    {
      auto [Rounded, Ipc] =
          measureRounded(Runner, Microkernel::single(Inst, InstIpc));
      AuxKernels.push_back({Rounded, Ipc, WeightKernel::ConstraintOnly});
    }
    // One saturation benchmark per resource (pinned to that resource).
    for (size_t R = 0; R < NumRes; ++R) {
      if (Sat[R].empty() || !Genuine[R])
        continue;
      Microkernel K = makeKsat(Inst, InstIpc, Sat[R]);
      if (!Runner.accepts(K))
        continue; // Extension conflict: no evidence for this resource.
      auto [Rounded, Ipc] = measureRounded(Runner, K);
      AuxKernels.push_back({Rounded, Ipc, static_cast<int>(R)});
    }
  });

  // ---- Group measurement-equivalent instructions. ----
  // The digest covers everything an aux solve depends on that varies per
  // instruction: the kernel list with the instruction's own id replaced
  // by a sentinel (its basic ids resolve through the shared frozen core).
  std::vector<size_t> UniqueIdx;
  if (!Config.Lp2Cache) {
    // Cache disabled: every instruction solves its own problem (the true
    // cold baseline the warm-vs-cold tests compare against).
    UniqueIdx.resize(NumTotal);
    std::iota(UniqueIdx.begin(), UniqueIdx.end(), size_t{0});
    for (size_t Idx = 0; Idx < NumTotal; ++Idx)
      Slots[Idx].Rep = Idx;
  } else {
    std::map<lp::StructuralDigest::Value, size_t> FirstOf;
    for (size_t Idx = 0; Idx < NumTotal; ++Idx) {
      const InstrId Inst = AuxInstrs[Idx];
      lp::StructuralDigest D;
      D.addSize(Slots[Idx].Kernels.size());
      for (const WeightKernel &WK : Slots[Idx].Kernels) {
        D.addDouble(WK.Ipc);
        D.addInt(WK.PinnedResource);
        D.addSize(WK.K.terms().size());
        for (const auto &[Id, Mult] : WK.K.terms()) {
          D.addU64(Id == Inst ? ~uint64_t{0} : Id);
          D.addDouble(Mult);
        }
      }
      auto [It, Inserted] = FirstOf.try_emplace(D.value(), Idx);
      Slots[Idx].Rep = It->second;
      if (Inserted)
        UniqueIdx.push_back(Idx);
    }
  }

  // ---- Phase B: one LPAUX solve per group. ----
  Exec.parallelFor(UniqueIdx.size(), [&](size_t U, unsigned) {
    checkCancelled();
    const size_t Idx = UniqueIdx[U];
    const InstrId Inst = AuxInstrs[Idx];
    Slots[Idx].Aux =
        solveAuxWeights(Shape, IndexOf, Weights.Rho, Inst, Slots[Idx].Kernels,
                        Config.Mode, /*MaxPinIterations=*/4);

    if (Observer) {
      std::lock_guard<std::mutex> Lock(ProgressMutex);
      Observer->onInstructionMapped(Inst, ++NumDone, NumTotal);
    }
  });

  // Serial reduction, in selection order. Duplicates replay their
  // representative's weights (bit-identical by construction: the solver is
  // deterministic and their problems are structurally equal) and report
  // their progress here, after the fan-out; only representatives add LP
  // work.
  for (size_t Idx = 0; Idx < NumTotal; ++Idx) {
    const InstrId Inst = AuxInstrs[Idx];
    AuxSlot &Slot = Slots[Idx];
    Result.Mapping.markMapped(Inst);
    if (Config.Lp2Cache)
      ++Result.Stats.LpWarmStartAttempts; // Group probe.
    if (Slot.Rep != Idx) {
      Slot.Aux = Slots[Slot.Rep].Aux;
      ++Result.Stats.LpWarmStartHits; // Deduplicated against the group.
      if (Observer)
        Observer->onInstructionMapped(Inst, ++NumDone, NumTotal);
    } else {
      Result.Stats.CompleteLpSolves += Slot.Aux.Work.Solves;
      Result.Stats.CompleteLpPivots += Slot.Aux.Work.Pivots;
    }
    if (!Slot.Aux.Feasible)
      continue; // Mapped with no usage: visible as an explicit gap.
    for (size_t R = 0; R < NumRes; ++R)
      if (Slot.Aux.Rho[R] > 1e-9)
        Result.Mapping.setUsage(Inst, R, Slot.Aux.Rho[R]);
  }
  Result.Stats.CompleteMappingSeconds = secondsSince(T2);

  // ---- Prune dominated resources. ----
  // A resource whose usage column is pointwise dominated by another's can
  // never be the unique bottleneck (the paper: "some combined resources
  // are not needed as their usage is already perfectly described").
  {
    const ResourceMapping &Map = Result.Mapping;
    std::vector<bool> Keep(NumRes, true);
    for (size_t R = 0; R < NumRes; ++R) {
      bool AllZero = true;
      for (InstrId Id = 0; Id < Machine.numInstructions() && AllZero; ++Id)
        if (Map.isMapped(Id) && Map.rho(Id, R) > 1e-9)
          AllZero = false;
      if (AllZero) {
        Keep[R] = false;
        continue;
      }
      for (size_t R2 = 0; R2 < NumRes && Keep[R]; ++R2) {
        if (R2 == R || !Keep[R2])
          continue;
        bool Dominates = true;
        for (InstrId Id = 0; Id < Machine.numInstructions() && Dominates;
             ++Id)
          if (Map.isMapped(Id) &&
              Map.rho(Id, R) > Map.rho(Id, R2) + 1e-9)
            Dominates = false;
        if (Dominates)
          Keep[R] = false;
      }
    }
    ResourceMapping Pruned(Machine.numInstructions());
    std::vector<Microkernel> PrunedSat;
    MappingShape PrunedShape;
    for (size_t R = 0; R < NumRes; ++R) {
      if (!Keep[R])
        continue;
      Pruned.addResource("R" + std::to_string(PrunedSat.size()));
      PrunedSat.push_back(Sat[R]);
      PrunedShape.Resources.push_back(Shape.Resources[R]);
    }
    for (InstrId Id = 0; Id < Machine.numInstructions(); ++Id) {
      if (!Map.isMapped(Id))
        continue;
      Pruned.markMapped(Id);
      size_t Out = 0;
      for (size_t R = 0; R < NumRes; ++R) {
        if (!Keep[R])
          continue;
        if (Map.rho(Id, R) > 1e-9)
          Pruned.setUsage(Id, Out, Map.rho(Id, R));
        ++Out;
      }
    }
    Result.Mapping = std::move(Pruned);
    Result.SaturatingKernels = std::move(PrunedSat);
    Result.Shape = std::move(PrunedShape);
  }

  Result.Stats.NumBenchmarks = Runner.numDistinctBenchmarks();
  Result.Stats.NumResources = Result.Mapping.numResources();
  Result.Stats.NumMapped = Result.Mapping.numMappedInstructions();
  endStage(PipelineStage::CompleteMapping);
}

//===----------------------------------------------------------------------===//
// Public surface.
//===----------------------------------------------------------------------===//

Pipeline::Pipeline(BenchmarkRunner &Runner, PalmedConfig Config)
    : I(std::make_unique<Impl>(Runner, std::move(Config))) {}

Pipeline::~Pipeline() = default;
Pipeline::Pipeline(Pipeline &&) noexcept = default;
Pipeline &Pipeline::operator=(Pipeline &&) noexcept = default;

void Pipeline::setObserver(PipelineObserver *Observer) {
  I->Observer = Observer;
}

void Pipeline::setCancellationToken(CancellationToken *Token) {
  I->Cancel = Token;
}

PipelineStage Pipeline::nextStage() const {
  if (finished())
    throw std::logic_error("palmed::Pipeline: already finished");
  return static_cast<PipelineStage>(I->StagesDone);
}

bool Pipeline::finished() const { return I->StagesDone >= 3; }

const SelectionResult &Pipeline::selectBasics() {
  I->selectBasics();
  return I->Result.Selection;
}

const CoreMappingResult &Pipeline::solveCoreMapping() {
  I->solveCoreMapping();
  return I->Core;
}

const PalmedResult &Pipeline::completeMapping() {
  I->completeMapping();
  return I->Result;
}

const PalmedResult &Pipeline::run() {
  if (I->StagesDone == 0)
    I->selectBasics();
  if (I->StagesDone == 1)
    I->solveCoreMapping();
  if (I->StagesDone == 2)
    I->completeMapping();
  return I->Result;
}

const PalmedResult &Pipeline::result() const {
  if (!finished())
    throw std::logic_error("palmed::Pipeline: result() before completion");
  return I->Result;
}

PalmedResult Pipeline::takeResult() {
  if (!finished())
    throw std::logic_error(
        "palmed::Pipeline: takeResult() before completion");
  return std::move(I->Result);
}

const PalmedStats &Pipeline::stats() const { return I->Result.Stats; }

const PalmedConfig &Pipeline::config() const { return I->Config; }
