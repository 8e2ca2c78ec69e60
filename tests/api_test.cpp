//===- tests/api_test.cpp - Public facade tests ---------------------------===//
//
// Part of the PALMED reproduction.
//
// Tests of the include/palmed/ facade: the staged Pipeline (equivalence
// with run(), observer callbacks, stage ordering, cancellation), the
// PredictorRegistry, and the EvalSession execution policies (Serial vs
// Parallel determinism, clone/mutex fallbacks).
//
//===----------------------------------------------------------------------===//

#include "palmed/palmed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

using namespace palmed;

namespace {

/// Observer recording every callback it receives.
struct RecordingObserver : PipelineObserver {
  std::vector<std::string> Events;
  int ShapeIterations = 0;
  size_t InstructionsMapped = 0;
  size_t LastNumDone = 0;
  size_t LastNumTotal = 0;

  void onStageBegin(PipelineStage Stage) override {
    Events.push_back(std::string("begin:") + pipelineStageName(Stage));
  }
  void onStageEnd(PipelineStage Stage, const PalmedStats &Stats) override {
    (void)Stats;
    Events.push_back(std::string("end:") + pipelineStageName(Stage));
  }
  void onShapeIteration(int, size_t, size_t, size_t) override {
    ++ShapeIterations;
  }
  void onInstructionMapped(InstrId, size_t NumDone,
                           size_t NumTotal) override {
    ++InstructionsMapped;
    LastNumDone = NumDone;
    LastNumTotal = NumTotal;
  }
};

/// Exact equality of two mappings over the same ISA, via the canonical
/// text serialization.
void expectSameMapping(const ResourceMapping &A, const ResourceMapping &B,
                       const InstructionSet &Isa) {
  EXPECT_EQ(A.toText(Isa), B.toText(Isa));
}

} // namespace

//===----------------------------------------------------------------------===//
// Pipeline.
//===----------------------------------------------------------------------===//

TEST(ApiPipeline, StagedRunEqualsRun) {
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);

  BenchmarkRunner R1(M, O);
  const PalmedResult OneShot = Pipeline(R1).run();

  BenchmarkRunner R2(M, O);
  Pipeline P(R2);
  const SelectionResult &Sel = P.selectBasics();
  EXPECT_EQ(Sel.Basic.size(), OneShot.Selection.Basic.size());
  const CoreMappingResult &Core = P.solveCoreMapping();
  EXPECT_GT(Core.NumCoreKernels, 0u);
  EXPECT_GT(Core.Shape.numResources(), 0u);
  const PalmedResult &Staged = P.completeMapping();

  EXPECT_TRUE(P.finished());
  expectSameMapping(Staged.Mapping, OneShot.Mapping, M.isa());
  EXPECT_EQ(Staged.Stats.NumBenchmarks, OneShot.Stats.NumBenchmarks);
  EXPECT_EQ(Staged.Stats.NumResources, OneShot.Stats.NumResources);
  EXPECT_EQ(Staged.Stats.NumBasic, OneShot.Stats.NumBasic);
  EXPECT_EQ(Staged.Stats.NumMapped, OneShot.Stats.NumMapped);
  EXPECT_EQ(Staged.Stats.NumCoreKernels, OneShot.Stats.NumCoreKernels);
  EXPECT_EQ(Staged.Shape.Resources, OneShot.Shape.Resources);
  EXPECT_DOUBLE_EQ(Staged.Stats.CoreSlack, OneShot.Stats.CoreSlack);
}

TEST(ApiPipeline, RunResumesAfterInspectedStages) {
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);
  BenchmarkRunner R1(M, O);
  const PalmedResult OneShot = Pipeline(R1).run();

  BenchmarkRunner R2(M, O);
  Pipeline P(R2);
  P.selectBasics(); // Inspect stage 1, then let run() finish the rest.
  const PalmedResult &Resumed = P.run();
  expectSameMapping(Resumed.Mapping, OneShot.Mapping, M.isa());

  // takeResult() hands the result out by move.
  PalmedResult Taken = P.takeResult();
  expectSameMapping(Taken.Mapping, OneShot.Mapping, M.isa());
}

TEST(ApiPipeline, ObserverSeesAllStagesInOrder) {
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  Pipeline P(Runner);
  RecordingObserver Obs;
  P.setObserver(&Obs);
  P.run();

  ASSERT_EQ(Obs.Events.size(), 6u);
  EXPECT_EQ(Obs.Events[0], "begin:select-basics");
  EXPECT_EQ(Obs.Events[1], "end:select-basics");
  EXPECT_EQ(Obs.Events[2], "begin:solve-core-mapping");
  EXPECT_EQ(Obs.Events[3], "end:solve-core-mapping");
  EXPECT_EQ(Obs.Events[4], "begin:complete-mapping");
  EXPECT_EQ(Obs.Events[5], "end:complete-mapping");
  EXPECT_GE(Obs.ShapeIterations, 1);
  // LPAUX maps every non-basic survivor (on fig1 every survivor is
  // basic, so the callback count is simply zero).
  const PalmedResult &R = P.result();
  EXPECT_EQ(Obs.InstructionsMapped,
            R.Selection.Survivors.size() - R.Selection.Basic.size());
  if (Obs.InstructionsMapped > 0) {
    EXPECT_EQ(Obs.LastNumTotal, R.Selection.Survivors.size());
  }
}

TEST(ApiPipeline, ObserverSeesLpauxProgressOnLargerMachine) {
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  Pipeline P(Runner);
  RecordingObserver Obs;
  P.setObserver(&Obs);
  const PalmedResult &R = P.run();
  EXPECT_EQ(Obs.InstructionsMapped,
            R.Selection.Survivors.size() - R.Selection.Basic.size());
  EXPECT_GT(Obs.InstructionsMapped, 0u);
  // Basics are excluded from the denominator, so progress runs 1..NumTotal
  // without jumps and ends exactly at NumTotal.
  EXPECT_EQ(Obs.LastNumTotal,
            R.Selection.Survivors.size() - R.Selection.Basic.size());
  EXPECT_EQ(Obs.LastNumDone, Obs.LastNumTotal);
}

TEST(ApiPipeline, StageOrderIsEnforced) {
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  Pipeline P(Runner);

  EXPECT_EQ(P.nextStage(), PipelineStage::SelectBasics);
  EXPECT_THROW(P.solveCoreMapping(), std::logic_error);
  EXPECT_THROW(P.completeMapping(), std::logic_error);
  EXPECT_THROW(P.result(), std::logic_error);

  P.selectBasics();
  EXPECT_EQ(P.nextStage(), PipelineStage::SolveCoreMapping);
  EXPECT_THROW(P.selectBasics(), std::logic_error); // Stages run once.
  EXPECT_THROW(P.completeMapping(), std::logic_error);

  P.solveCoreMapping();
  P.completeMapping();
  EXPECT_TRUE(P.finished());
  EXPECT_THROW(P.nextStage(), std::logic_error);
  EXPECT_THROW(P.completeMapping(), std::logic_error);
}

TEST(ApiPipeline, CancellationTokenStopsBeforeWork) {
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  Pipeline P(Runner);
  CancellationToken Token;
  P.setCancellationToken(&Token);
  Token.requestCancel();
  EXPECT_THROW(P.run(), CancelledError);
  // Nothing ran; the pipeline is still at stage 1 and can be resumed
  // after clearing the token.
  EXPECT_EQ(P.nextStage(), PipelineStage::SelectBasics);
  P.setCancellationToken(nullptr);
  EXPECT_NO_THROW(P.run());
}

TEST(ApiPipeline, CancellationFromObserverCallback) {
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  Pipeline P(Runner);
  CancellationToken Token;
  P.setCancellationToken(&Token);

  // Cancel as soon as the core-mapping refinement reports progress.
  struct Canceller : PipelineObserver {
    CancellationToken *Token;
    void onShapeIteration(int, size_t, size_t, size_t) override {
      Token->requestCancel();
    }
  } Obs;
  Obs.Token = &Token;
  P.setObserver(&Obs);

  P.selectBasics();
  EXPECT_THROW(P.solveCoreMapping(), CancelledError);
  // Stage 1's result is still inspectable.
  EXPECT_FALSE(P.finished());
  EXPECT_EQ(P.nextStage(), PipelineStage::SolveCoreMapping);
  EXPECT_GT(P.stats().NumBasic, 0u);
}

//===----------------------------------------------------------------------===//
// Parallel mapping pipeline.
//===----------------------------------------------------------------------===//

namespace {

PalmedResult mapWith(const MachineModel &M, ExecutionPolicy Policy,
                     PipelineObserver *Obs = nullptr) {
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  PalmedConfig Cfg;
  Cfg.Execution = Policy;
  Pipeline P(Runner, Cfg);
  if (Obs)
    P.setObserver(Obs);
  P.run();
  return P.takeResult();
}

/// Full-outcome equality: mapping, shape, saturating kernels, selection,
/// and every stats field that is not a timing or the thread counter.
void expectBitIdenticalOutcome(const PalmedResult &A, const PalmedResult &B,
                               const InstructionSet &Isa) {
  EXPECT_EQ(A.Mapping.toText(Isa), B.Mapping.toText(Isa));
  EXPECT_EQ(A.Shape.Resources, B.Shape.Resources);
  EXPECT_EQ(A.SaturatingKernels, B.SaturatingKernels);
  EXPECT_EQ(A.Selection.Survivors, B.Selection.Survivors);
  EXPECT_EQ(A.Selection.Basic, B.Selection.Basic);
  EXPECT_EQ(A.Selection.SoloIpc, B.Selection.SoloIpc);   // Bit-identical.
  EXPECT_EQ(A.Selection.PairIpc, B.Selection.PairIpc);   // Bit-identical.
  EXPECT_EQ(A.Stats.NumBenchmarks, B.Stats.NumBenchmarks);
  EXPECT_EQ(A.Stats.NumResources, B.Stats.NumResources);
  EXPECT_EQ(A.Stats.NumBasic, B.Stats.NumBasic);
  EXPECT_EQ(A.Stats.NumMapped, B.Stats.NumMapped);
  EXPECT_EQ(A.Stats.NumCoreKernels, B.Stats.NumCoreKernels);
  EXPECT_EQ(A.Stats.NumShapeConstraints, B.Stats.NumShapeConstraints);
  EXPECT_EQ(A.Stats.ShapeSearchNodes, B.Stats.ShapeSearchNodes);
  EXPECT_DOUBLE_EQ(A.Stats.CoreSlack, B.Stats.CoreSlack);
  EXPECT_EQ(A.Stats.CoreLpSolves, B.Stats.CoreLpSolves);
  EXPECT_EQ(A.Stats.CoreLpPivots, B.Stats.CoreLpPivots);
  EXPECT_EQ(A.Stats.CompleteLpSolves, B.Stats.CompleteLpSolves);
  EXPECT_EQ(A.Stats.CompleteLpPivots, B.Stats.CompleteLpPivots);
  EXPECT_EQ(A.Stats.LpWarmStartAttempts, B.Stats.LpWarmStartAttempts);
  EXPECT_EQ(A.Stats.LpWarmStartHits, B.Stats.LpWarmStartHits);
}

void expectPoliciesEquivalent(const MachineModel &M) {
  PalmedResult Serial = mapWith(M, ExecutionPolicy::serial());
  PalmedResult Par4 = mapWith(M, ExecutionPolicy::parallel(4));
  PalmedResult Par11 = mapWith(M, ExecutionPolicy::parallel(11));
  EXPECT_EQ(Serial.Stats.NumThreads, 1u);
  EXPECT_EQ(Par4.Stats.NumThreads, 4u);
  EXPECT_EQ(Par11.Stats.NumThreads, 11u);
  expectBitIdenticalOutcome(Serial, Par4, M.isa());
  expectBitIdenticalOutcome(Serial, Par11, M.isa());
}

/// A small-but-nontrivial stress profile so the three full pipeline runs
/// stay fast in the test suite.
StressIsaConfig testStressConfig() {
  StressIsaConfig C;
  C.NumPorts = 8;
  C.NumCategories = 12;
  C.VariantsPerCategory = 4;
  C.MemVariantsPerCategory = 1;
  C.NumExtensions = 3;
  return C;
}

} // namespace

TEST(ApiParallelPipeline, SklMappingBitIdenticalAcrossPolicies) {
  expectPoliciesEquivalent(makeSklLike());
}

TEST(ApiParallelPipeline, ZenMappingBitIdenticalAcrossPolicies) {
  expectPoliciesEquivalent(makeZenLike());
}

TEST(ApiParallelPipeline, StressIsaMappingBitIdenticalAcrossPolicies) {
  expectPoliciesEquivalent(makeStressMachine(testStressConfig()));
}

TEST(ApiParallelPipeline, ObserverProgressIsMonotoneUnderParallelism) {
  MachineModel M = makeSklLike();

  // Callbacks are serialized by the pipeline (see Observer.h), so the
  // recording below needs no locking of its own.
  struct ProgressObserver : PipelineObserver {
    std::vector<size_t> DoneSeq;
    std::vector<InstrId> Ids;
    size_t NumTotal = 0;
    void onInstructionMapped(InstrId Id, size_t NumDone,
                             size_t NumTotal_) override {
      DoneSeq.push_back(NumDone);
      Ids.push_back(Id);
      NumTotal = NumTotal_;
    }
  } Obs;

  PalmedResult R = mapWith(M, ExecutionPolicy::parallel(4), &Obs);
  const size_t Expected =
      R.Selection.Survivors.size() - R.Selection.Basic.size();
  ASSERT_EQ(Obs.DoneSeq.size(), Expected);
  EXPECT_EQ(Obs.NumTotal, Expected);
  // NumDone takes each value 1..NumTotal exactly once, in order.
  for (size_t I = 0; I < Obs.DoneSeq.size(); ++I)
    EXPECT_EQ(Obs.DoneSeq[I], I + 1);
  // Every instruction is reported exactly once.
  std::vector<InstrId> Sorted = Obs.Ids;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_TRUE(std::adjacent_find(Sorted.begin(), Sorted.end()) ==
              Sorted.end());
}

TEST(ApiParallelPipeline, CancellationUnderParallelismIsResumable) {
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  BenchmarkRunner Runner(M, O);
  PalmedConfig Cfg;
  Cfg.Execution = ExecutionPolicy::parallel(4);
  Pipeline P(Runner, Cfg);
  CancellationToken Token;
  P.setCancellationToken(&Token);

  // Cancel after a few LPAUX instructions completed; the workers poll the
  // token per item, so the stage aborts with CancelledError.
  struct Canceller : PipelineObserver {
    CancellationToken *Token;
    void onInstructionMapped(InstrId, size_t NumDone, size_t) override {
      if (NumDone == 3)
        Token->requestCancel();
    }
  } Obs;
  Obs.Token = &Token;
  P.setObserver(&Obs);

  P.selectBasics();
  P.solveCoreMapping();
  EXPECT_THROW(P.completeMapping(), CancelledError);
  EXPECT_FALSE(P.finished());
  EXPECT_EQ(P.nextStage(), PipelineStage::CompleteMapping);

  // Clearing the token makes the stage re-runnable, and the result is
  // still bit-identical to an uncancelled serial run.
  P.setCancellationToken(nullptr);
  P.setObserver(nullptr);
  const PalmedResult &Resumed = P.completeMapping();
  PalmedResult Serial = mapWith(M, ExecutionPolicy::serial());
  expectSameMapping(Resumed.Mapping, Serial.Mapping, M.isa());
}

TEST(ApiParallelPipeline, AutoThreadPolicyResolvesAndIsRecorded) {
  // parallel(0) = "auto" resolves to a concrete width in [1, 64] at
  // policy-construction time, and the pipeline records the resolved width.
  ExecutionPolicy Auto = ExecutionPolicy::parallel(0);
  EXPECT_GE(Auto.NumThreads, 1u);
  EXPECT_LE(Auto.NumThreads, 64u);

  MachineModel M = makeFig1Machine();
  PalmedResult R = mapWith(M, Auto);
  EXPECT_EQ(R.Stats.NumThreads, Auto.NumThreads);
}

//===----------------------------------------------------------------------===//
// PredictorRegistry.
//===----------------------------------------------------------------------===//

TEST(ApiRegistry, BuiltinToolsRegistered) {
  const PredictorRegistry &R = PredictorRegistry::builtin();
  for (const char *Tool :
       {"palmed", "uops.info", "iaca", "pmevo", "llvm-mca"}) {
    EXPECT_TRUE(R.contains(Tool)) << Tool;
    EXPECT_FALSE(R.description(Tool).empty()) << Tool;
  }
  EXPECT_EQ(R.names().size(), 5u);
}

TEST(ApiRegistry, CreateBuildsSelfNamedPredictors) {
  MachineModel M = makeSklLike();
  PredictorContext Ctx;
  Ctx.Machine = &M;
  for (const char *Tool : {"uops.info", "iaca", "llvm-mca"}) {
    std::string Error;
    auto P = PredictorRegistry::builtin().create(Tool, Ctx, &Error);
    ASSERT_NE(P, nullptr) << Error;
    EXPECT_EQ(P->name(), Tool);
  }
}

TEST(ApiRegistry, CreateReportsMissingContext) {
  std::string Error;
  // "palmed" needs an inferred mapping.
  auto P = PredictorRegistry::builtin().create("palmed", PredictorContext(),
                                               &Error);
  EXPECT_EQ(P, nullptr);
  EXPECT_NE(Error.find("PalmedMapping"), std::string::npos) << Error;
  // "pmevo" needs a runner.
  MachineModel M = makeFig1Machine();
  PredictorContext Ctx;
  Ctx.Machine = &M;
  Error.clear();
  P = PredictorRegistry::builtin().create("pmevo", Ctx, &Error);
  EXPECT_EQ(P, nullptr);
  EXPECT_NE(Error.find("Runner"), std::string::npos) << Error;
}

TEST(ApiRegistry, CreateRejectsUnknownNames) {
  std::string Error;
  auto P = PredictorRegistry::builtin().create("osaca", PredictorContext(),
                                               &Error);
  EXPECT_EQ(P, nullptr);
  EXPECT_NE(Error.find("unknown predictor"), std::string::npos);
  EXPECT_NE(Error.find("palmed"), std::string::npos); // Lists known names.
}

TEST(ApiRegistry, UserRegistriesExtendTheBuiltin) {
  PredictorRegistry R = PredictorRegistry::builtin(); // Copy, then extend.
  R.add("const-one", "predicts IPC 1 for everything",
        [](const PredictorContext &, std::string &) {
          ResourceMapping M(0);
          return std::make_unique<MappingPredictor>("const-one",
                                                    std::move(M));
        });
  EXPECT_TRUE(R.contains("const-one"));
  EXPECT_EQ(R.names().size(), 6u);
  EXPECT_FALSE(PredictorRegistry::builtin().contains("const-one"));
}

//===----------------------------------------------------------------------===//
// EvalSession.
//===----------------------------------------------------------------------===//

namespace {

/// Deliberately non-thread-safe wrapper around a MappingPredictor,
/// optionally cloneable, for exercising the EvalSession fallbacks.
class GrumpyPredictor : public Predictor {
public:
  GrumpyPredictor(std::string Name, const MachineModel &Machine,
                  bool Cloneable)
      : Inner("inner", buildDualMapping(Machine)), Name(std::move(Name)),
        Machine(Machine), Cloneable(Cloneable) {}

  std::optional<double> predictIpc(const Microkernel &K) override {
    ++Calls; // Unsynchronized on purpose: relies on clone/mutex fallback.
    return Inner.predictIpc(K);
  }
  std::string name() const override { return Name; }
  bool isThreadSafe() const override { return false; }
  std::unique_ptr<Predictor> clone() const override {
    if (!Cloneable)
      return nullptr;
    return std::make_unique<GrumpyPredictor>(Name, Machine, Cloneable);
  }

private:
  MappingPredictor Inner;
  std::string Name;
  const MachineModel &Machine;
  bool Cloneable;
  size_t Calls = 0;
};

void expectSameOutcome(const EvalOutcome &A, const EvalOutcome &B) {
  EXPECT_EQ(A.ReferenceTool, B.ReferenceTool);
  EXPECT_EQ(A.NativeIpc, B.NativeIpc);   // Bit-identical.
  EXPECT_EQ(A.Predictions, B.Predictions); // Bit-identical.
}

} // namespace

TEST(ApiEvalSession, SerialAndParallelOutcomesAreIdentical) {
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  PredictorContext Ctx;
  Ctx.Machine = &M;

  WorkloadConfig WCfg;
  WCfg.NumBlocks = 200;
  auto Blocks = generateWorkload(M, WCfg);

  auto MakeSession = [&](ExecutionPolicy Policy,
                         std::vector<std::unique_ptr<Predictor>> &Owned) {
    EvalSession S(O, Policy);
    S.setReferenceTool("iaca");
    for (const char *Tool : {"uops.info", "iaca", "llvm-mca"}) {
      auto P = PredictorRegistry::builtin().create(Tool, Ctx);
      EXPECT_NE(P, nullptr);
      S.add(*P);                     // Borrowed...
      Owned.push_back(std::move(P)); // ...and kept alive by the caller.
    }
    // Add the non-reentrant predictors through both fallback paths.
    auto G1 = std::make_unique<GrumpyPredictor>("grumpy-clone", M, true);
    auto G2 = std::make_unique<GrumpyPredictor>("grumpy-mutex", M, false);
    S.add(std::move(G1));
    S.add(std::move(G2));
    return S;
  };

  std::vector<std::unique_ptr<Predictor>> OwnedA, OwnedB, OwnedC;
  EvalOutcome Serial = MakeSession(ExecutionPolicy::serial(), OwnedA)
                           .run(Blocks);
  EvalOutcome Par4 = MakeSession(ExecutionPolicy::parallel(4), OwnedB)
                         .run(Blocks);
  EvalOutcome Par11 = MakeSession(ExecutionPolicy::parallel(11), OwnedC)
                          .run(Blocks);

  EXPECT_EQ(Serial.Predictions.size(), 5u);
  expectSameOutcome(Serial, Par4);
  expectSameOutcome(Serial, Par11);

  // Sanity: the parallel run really carries predictions.
  ToolAccuracy A = Par4.accuracy("iaca");
  EXPECT_DOUBLE_EQ(A.CoveragePct, 100.0);
}

TEST(ApiEvalSession, RejectsDuplicateAndNullPredictors) {
  MachineModel M = makeSklLike();
  AnalyticOracle O(M);
  auto Iaca = makeIacaLikePredictor(M);
  EvalSession S(O);
  S.add(*Iaca);
  auto Iaca2 = makeIacaLikePredictor(M);
  EXPECT_THROW(S.add(*Iaca2), std::invalid_argument);
  EXPECT_THROW(S.add(std::unique_ptr<Predictor>()), std::invalid_argument);
  EXPECT_EQ(S.numPredictors(), 1u);
}

TEST(ApiEvalSession, EmptyBlockSetAndZeroAutoThreads) {
  MachineModel M = makeFig1Machine();
  AnalyticOracle O(M);
  auto Iaca = makeIacaLikePredictor(M);
  EvalSession S(O, ExecutionPolicy::parallel(0)); // Auto thread count.
  EXPECT_GE(S.policy().NumThreads, 1u);
  S.add(*Iaca);
  EvalOutcome Out = S.run({});
  EXPECT_TRUE(Out.NativeIpc.empty());
  EXPECT_EQ(Out.Predictions.at("iaca").size(), 0u);
}

TEST(ApiEvalSession, PredictorClonesPredictIdentically) {
  MachineModel M = makeSklLike();
  auto Uops = makeUopsInfoPredictor(M);
  ASSERT_TRUE(Uops->isThreadSafe());
  auto Clone = Uops->clone();
  ASSERT_NE(Clone, nullptr);
  EXPECT_EQ(Clone->name(), Uops->name());
  WorkloadConfig WCfg;
  WCfg.NumBlocks = 40;
  for (const BasicBlock &B : generateWorkload(M, WCfg))
    EXPECT_EQ(Uops->predictIpc(B.K), Clone->predictIpc(B.K));
}

//===----------------------------------------------------------------------===//
// Version.
//===----------------------------------------------------------------------===//

TEST(ApiVersion, StringMatchesMacros) {
  EXPECT_STREQ(versionString(), PALMED_VERSION_STRING);
  std::string Expected = std::to_string(PALMED_VERSION_MAJOR) + "." +
                         std::to_string(PALMED_VERSION_MINOR) + "." +
                         std::to_string(PALMED_VERSION_PATCH);
  EXPECT_EQ(Expected, PALMED_VERSION_STRING);
}
