//===- tests/lp2_test.cpp - Cached, parallel LP2 tests ---------------------===//
//
// Part of the PALMED reproduction.
//
// The stage-2 fit accepts solve-strategy knobs (BwpSolveOptions:
// subproblem cache, model-buffer reuse, executor fan-out of the
// per-resource blocks) whose contract is that every combination produces
// bit-identical weights — they only trade work. These tests pin that
// contract down, both on direct solveCoreWeights calls (where pivot counts
// can be bracketed exactly) and end-to-end through the pipeline on the
// shipped machine profiles.
//
//===----------------------------------------------------------------------===//

#include "core/BwpSolver.h"
#include "lp/Model.h"
#include "lp/Simplex.h"
#include "palmed/palmed.h"
#include "support/Executor.h"

#include <gtest/gtest.h>

using namespace palmed;

namespace {

/// Two independent instruction pairs on disjoint resource pairs.
/// Instructions 10/20 play ADDSS/BSR on resources {R0 = both, R1 = instr 1}
/// (the paper's running example), and instructions 30/40 mirror them on
/// resources {R2, R3}, so with a cache the blocks of R2/R3 replay the
/// blocks of R0/R1 solved earlier in the same pin round.
struct TwoComponentFixture {
  MappingShape Shape;
  std::map<InstrId, size_t> IndexOf = {{10, 0}, {20, 1}, {30, 2}, {40, 3}};
  /// First instruction of each pair; the second is Base + 10.
  std::vector<InstrId> Bases = {10, 30};

  TwoComponentFixture() {
    Shape.Resources = {BitSet::fromWord(0b0011), BitSet::fromWord(0b0010),
                       BitSet::fromWord(0b1100), BitSet::fromWord(0b1000)};
  }

  /// Component \p C alone (0 = instructions 10/20, 1 = 30/40), as its own
  /// two-resource problem: basic indices 0/1 on resources {R0 = both,
  /// R1 = instr 1}.
  static TwoComponentFixture component(size_t C) {
    TwoComponentFixture F;
    const InstrId Base = F.Bases[C];
    F.Bases = {Base};
    F.IndexOf = {{Base, 0}, {Base + 10, 1}};
    F.Shape.Resources = {BitSet::fromWord(0b11), BitSet::fromWord(0b10)};
    return F;
  }

  static Microkernel kernel(InstrId A, double MA, InstrId B, double MB) {
    Microkernel K;
    if (MA > 0)
      K.add(A, MA);
    if (MB > 0)
      K.add(B, MB);
    return K;
  }

  /// The paper-example measurement set, instantiated on both pairs.
  std::vector<WeightKernel> kernels() const {
    std::vector<WeightKernel> Out;
    for (InstrId Base : Bases) {
      InstrId A = Base, B = Base + 10;
      Out.push_back({kernel(A, 2, B, 0), 2.0, -1});
      Out.push_back({kernel(A, 0, B, 1), 1.0, -1});
      Out.push_back({kernel(A, 2, B, 1), 3.0 / 1.5, -1});
      Out.push_back({kernel(A, 8, B, 1), 9.0 / 4.5, -1});
      Out.push_back({kernel(A, 2, B, 4), 6.0 / 4.0, -1});
    }
    return Out;
  }
};

/// Runs solveCoreWeights under \p Opts and returns the weights plus the
/// exact LP telemetry delta of the call.
CoreWeights solveWith(const TwoComponentFixture &F,
                      const BwpSolveOptions &Opts, lp::LpTelemetry &Delta,
                      const std::vector<double> &SoloIpc = {}) {
  const lp::LpTelemetry Before = lp::lpTelemetry();
  CoreWeights W = solveCoreWeights(F.Shape, F.IndexOf, F.kernels(),
                                   BwpMode::Pinned, Opts,
                                   /*MaxPinIterations=*/6, SoloIpc);
  const lp::LpTelemetry &Now = lp::lpTelemetry();
  Delta.Solves = Now.Solves - Before.Solves;
  Delta.Pivots = Now.Pivots - Before.Pivots;
  Delta.WarmStartAttempts = Now.WarmStartAttempts - Before.WarmStartAttempts;
  Delta.WarmStartHits = Now.WarmStartHits - Before.WarmStartHits;
  return W;
}

/// Bitwise equality of two weight matrices (the contract is bit-identical,
/// not approximately equal).
void expectBitwiseEqual(const CoreWeights &A, const CoreWeights &B) {
  ASSERT_EQ(A.Rho.size(), B.Rho.size());
  for (size_t I = 0; I < A.Rho.size(); ++I) {
    ASSERT_EQ(A.Rho[I].size(), B.Rho[I].size());
    for (size_t R = 0; R < A.Rho[I].size(); ++R)
      EXPECT_EQ(A.Rho[I][R], B.Rho[I][R]) << "instr " << I << " res " << R;
  }
  EXPECT_EQ(A.TotalSlack, B.TotalSlack);
}

void expectSameTelemetry(const lp::LpTelemetry &A, const lp::LpTelemetry &B) {
  EXPECT_EQ(A.Solves, B.Solves);
  EXPECT_EQ(A.Pivots, B.Pivots);
  EXPECT_EQ(A.WarmStartAttempts, B.WarmStartAttempts);
  EXPECT_EQ(A.WarmStartHits, B.WarmStartHits);
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural digest properties.
//===----------------------------------------------------------------------===//

TEST(Lp2Digest, LengthPrefixingSeparatesFieldBoundaries) {
  // [1,2][3] vs [1][2,3]: same flat stream, different boundaries. The
  // length prefixes must keep the digests apart.
  lp::StructuralDigest A;
  A.addSize(2);
  A.addU64(1);
  A.addU64(2);
  A.addSize(1);
  A.addU64(3);
  lp::StructuralDigest B;
  B.addSize(1);
  B.addU64(1);
  B.addSize(2);
  B.addU64(2);
  B.addU64(3);
  EXPECT_NE(A.value(), B.value());
}

TEST(Lp2Digest, OrderSensitive) {
  lp::StructuralDigest A, B;
  A.addU64(1);
  A.addU64(2);
  B.addU64(2);
  B.addU64(1);
  EXPECT_NE(A.value(), B.value());
}

TEST(Lp2Digest, DoubleBitPatterns) {
  // The digest hashes bit patterns: -0.0 and 0.0 compare equal as doubles
  // but must digest differently (a solver pivoting on signed zeros is
  // hypothetical, but a miss is always safe and an alias never is).
  lp::StructuralDigest Pos, Neg;
  Pos.addDouble(0.0);
  Neg.addDouble(-0.0);
  EXPECT_NE(Pos.value(), Neg.value());

  // One-ulp perturbations must separate too.
  lp::StructuralDigest X, Y;
  X.addDouble(1.0);
  Y.addDouble(std::nextafter(1.0, 2.0));
  EXPECT_NE(X.value(), Y.value());
}

TEST(Lp2Digest, BothWordsReactToSingleInput) {
  // The two 64-bit streams evolve independently; a single-input change
  // must disturb both words, otherwise the effective width is 64 bits.
  lp::StructuralDigest A, B;
  A.addU64(42);
  B.addU64(43);
  EXPECT_NE(A.value().Lo, B.value().Lo);
  EXPECT_NE(A.value().Hi, B.value().Hi);
}

TEST(Lp2Digest, ValueOrderingIsStrictWeak) {
  lp::StructuralDigest A, B;
  A.addU64(1);
  B.addU64(2);
  const lp::StructuralDigest::Value VA = A.value(), VB = B.value();
  EXPECT_TRUE(VA == VA);
  EXPECT_NE(VA, VB);
  EXPECT_TRUE((VA < VB) != (VB < VA)); // Exactly one direction.
  EXPECT_FALSE(VA < VA);
}

TEST(Lp2Digest, EmptyStreamsCollide) {
  // Sanity: two untouched digests agree (the basis constants are fixed).
  EXPECT_EQ(lp::StructuralDigest().value(), lp::StructuralDigest().value());
}

//===----------------------------------------------------------------------===//
// Subproblem cache semantics.
//===----------------------------------------------------------------------===//

TEST(Lp2Cache, FirstInsertWins) {
  lp::StructuralDigest D;
  D.addU64(7);
  const lp::StructuralDigest::Value K = D.value();

  BwpSubproblemCache C;
  C.insert(K, {{1.0}});
  C.insert(K, {{2.0}}); // Ignored: entries are immutable once published.
  ASSERT_NE(C.find(K), nullptr);
  EXPECT_EQ(C.find(K)->Values[0], 1.0);
  EXPECT_EQ(C.numEntries(), 1u);
}

//===----------------------------------------------------------------------===//
// Direct-solve equivalences (exact pivot accounting).
//===----------------------------------------------------------------------===//

TEST(Lp2Equivalence, DecomposeOnOffBitwise) {
  // The fixture solved as one problem vs each of its two components solved
  // as its own: identical weights and exactly the same LP work, with and
  // without the balancing passes and the cache. A component that reached
  // its fixpoint keeps its objectives, so the joint pin loop skips its
  // blocks as identical subproblems and replays only the per-component
  // solves; with a cache shared by the two component solves, the second
  // component's blocks hit the first's entries, as the mirrored blocks do
  // inside one round of the joint solve.
  const std::vector<double> JointSoloIpc[] = {{}, {2.0, 1.0, 2.0, 1.0}};
  for (bool WithCache : {false, true}) {
    for (const std::vector<double> &SoloIpc : JointSoloIpc) {
      SCOPED_TRACE(WithCache ? "cache on" : "cache off");
      SCOPED_TRACE(SoloIpc.empty() ? "unbalanced" : "balanced");
      BwpSubproblemCache JointCache, SplitCache;
      BwpSolveOptions Joint;
      Joint.Cache = WithCache ? &JointCache : nullptr;
      lp::LpTelemetry JointTel;
      CoreWeights WJoint =
          solveWith(TwoComponentFixture(), Joint, JointTel, SoloIpc);

      BwpSolveOptions Split;
      Split.Cache = WithCache ? &SplitCache : nullptr;
      lp::LpTelemetry SplitTel;
      CoreWeights WSplit;
      WSplit.Rho.assign(4, std::vector<double>(4, 0.0));
      for (size_t C = 0; C < 2; ++C) {
        std::vector<double> PartSoloIpc;
        if (!SoloIpc.empty())
          PartSoloIpc = {SoloIpc[2 * C], SoloIpc[2 * C + 1]};
        lp::LpTelemetry Tel;
        CoreWeights W = solveWith(TwoComponentFixture::component(C), Split,
                                  Tel, PartSoloIpc);
        for (size_t I = 0; I < 2; ++I)
          for (size_t R = 0; R < 2; ++R)
            WSplit.Rho[2 * C + I][2 * C + R] = W.Rho[I][R];
        WSplit.TotalSlack += W.TotalSlack;
        SplitTel.Solves += Tel.Solves;
        SplitTel.Pivots += Tel.Pivots;
        SplitTel.WarmStartAttempts += Tel.WarmStartAttempts;
        SplitTel.WarmStartHits += Tel.WarmStartHits;
      }
      expectBitwiseEqual(WSplit, WJoint);
      expectSameTelemetry(SplitTel, JointTel);
      EXPECT_EQ(SplitCache.numEntries(), JointCache.numEntries());
    }
  }
}

TEST(Lp2Equivalence, CacheOnOffBitwiseValues) {
  TwoComponentFixture F;
  BwpSubproblemCache Cache;
  lp::LpTelemetry Warm, Cold;
  BwpSolveOptions Cached;
  Cached.Cache = &Cache;
  BwpSolveOptions Uncached;
  CoreWeights WCold = solveWith(F, Uncached, Cold);
  CoreWeights WWarm = solveWith(F, Cached, Warm);
  expectBitwiseEqual(WWarm, WCold);
  EXPECT_GT(Warm.WarmStartAttempts, 0);
  EXPECT_EQ(Cold.WarmStartAttempts, 0);
  // A second cached solve of the identical problem replays every block.
  lp::LpTelemetry Replay;
  CoreWeights WReplay = solveWith(F, Cached, Replay);
  expectBitwiseEqual(WReplay, WCold);
  EXPECT_GT(Replay.WarmStartHits, 0);
  EXPECT_LT(Replay.Pivots, Cold.Pivots);
}

namespace {

/// Per-resource blocks fanned over 2- and 4-worker executors vs inline,
/// with and without the balancing passes: identical weights and identical
/// telemetry (each block's thread-local telemetry delta is published on
/// the calling thread). With \p WithCache each solve starts from an empty
/// cache, and the mirrored blocks of R2/R3 replay those of R0/R1.
void expectFanOutMatchesInline(bool WithCache) {
  TwoComponentFixture F;
  // Solves and pivots of one cold solve when the blocks run one at a time
  // in resource order, without the cache; with it, 4 of the 8 block probes
  // hit the entries their mirror published earlier in the same round, and
  // half the work remains.
  struct Case {
    std::vector<double> SoloIpc;
    long Solves, Pivots;
  };
  const Case Cases[] = {{{}, 8, 12}, {{2.0, 1.0, 2.0, 1.0}, 24, 74}};
  for (const Case &C : Cases) {
    const std::vector<double> &SoloIpc = C.SoloIpc;
    BwpSubproblemCache InlineCache;
    BwpSolveOptions Inline;
    Inline.Cache = WithCache ? &InlineCache : nullptr;
    lp::LpTelemetry InlineTel;
    CoreWeights WInline = solveWith(F, Inline, InlineTel, SoloIpc);
    EXPECT_EQ(InlineTel.Solves, WithCache ? C.Solves / 2 : C.Solves);
    EXPECT_EQ(InlineTel.Pivots, WithCache ? C.Pivots / 2 : C.Pivots);
    EXPECT_EQ(InlineTel.WarmStartAttempts, WithCache ? 8 : 0);
    EXPECT_EQ(InlineTel.WarmStartHits, WithCache ? 4 : 0);
    for (unsigned Workers : {2u, 4u}) {
      SCOPED_TRACE(Workers);
      Executor Exec(Workers);
      BwpSubproblemCache FannedCache;
      BwpSolveOptions Fanned = Inline;
      Fanned.Exec = &Exec;
      Fanned.Cache = WithCache ? &FannedCache : nullptr;
      lp::LpTelemetry FannedTel;
      CoreWeights WFanned = solveWith(F, Fanned, FannedTel, SoloIpc);
      expectBitwiseEqual(WFanned, WInline);
      expectSameTelemetry(FannedTel, InlineTel);
      EXPECT_EQ(FannedCache.numEntries(), InlineCache.numEntries());
    }
  }
}

} // namespace

TEST(Lp2Equivalence, ExecutorFanOutBitwise) {
  expectFanOutMatchesInline(false);
}

TEST(Lp2Equivalence, ExecutorFanOutCachedBitwise) {
  expectFanOutMatchesInline(true);
}

//===----------------------------------------------------------------------===//
// Pipeline-level equivalences on the shipped profiles.
//===----------------------------------------------------------------------===//

namespace {

struct ProfileRun {
  std::string MappingText;
  double CoreSlack = 0.0;
  long CorePivots = 0;
  long CompletePivots = 0;
  long WarmAttempts = 0;
  long WarmHits = 0;
};

ProfileRun runProfile(const MachineModel &M, PalmedConfig Config) {
  AnalyticOracle Oracle(M);
  BenchmarkRunner Runner(M, Oracle);
  Pipeline P(Runner, Config);
  const PalmedResult &R = P.run();
  ProfileRun Out;
  Out.MappingText = R.Mapping.toText(M.isa());
  Out.CoreSlack = R.Stats.CoreSlack;
  Out.CorePivots = R.Stats.CoreLpPivots;
  Out.CompletePivots = R.Stats.CompleteLpPivots;
  Out.WarmAttempts = R.Stats.LpWarmStartAttempts;
  Out.WarmHits = R.Stats.LpWarmStartHits;
  return Out;
}

/// Each pin round decomposes into per-resource blocks, which a Parallel(4)
/// pipeline solves concurrently. The decomposed schedule must agree with
/// the serial one bitwise on the mapping text (which carries the rho
/// traces) and exactly on the LP work counts, with the cache off and on.
void checkDecomposeEquivalence(const MachineModel &M, PalmedConfig Config) {
  for (bool Cache : {false, true}) {
    SCOPED_TRACE(Cache ? "cache on" : "cache off");
    Config.Lp2Cache = Cache;
    Config.Execution = ExecutionPolicy::serial();
    ProfileRun Serial = runProfile(M, Config);
    Config.Execution = ExecutionPolicy::parallel(4);
    ProfileRun Par = runProfile(M, Config);
    EXPECT_EQ(Par.MappingText, Serial.MappingText);
    EXPECT_EQ(Par.CoreSlack, Serial.CoreSlack);
    EXPECT_EQ(Par.CorePivots, Serial.CorePivots);
    EXPECT_EQ(Par.CompletePivots, Serial.CompletePivots);
    EXPECT_EQ(Par.WarmAttempts, Serial.WarmAttempts);
    EXPECT_EQ(Par.WarmHits, Serial.WarmHits);
  }
}

} // namespace

TEST(Lp2Pipeline, DecomposeEquivalenceFig1) {
  checkDecomposeEquivalence(makeFig1Machine(), PalmedConfig());
}

TEST(Lp2Pipeline, DecomposeEquivalenceSkl) {
  checkDecomposeEquivalence(makeSklLike(), PalmedConfig());
}

TEST(Lp2Pipeline, DecomposeEquivalenceStress) {
  checkDecomposeEquivalence(makeStressMachine(StressIsaConfig()),
                            PalmedConfig());
}

TEST(Lp2Pipeline, DecomposeEquivalenceHuge) {
  PalmedConfig Config;
  Config.Selection.ClusterPairPruning = true;
  checkDecomposeEquivalence(makeStressMachine(hugeStressConfig()), Config);
}

TEST(Lp2Pipeline, WarmVsColdBitwiseSkl) {
  MachineModel M = makeSklLike();
  PalmedConfig Warm;
  PalmedConfig Cold;
  Cold.Lp2Cache = false;
  ProfileRun W = runProfile(M, Warm);
  ProfileRun C = runProfile(M, Cold);
  // The cache only skips work; the mapping and its weights are bitwise
  // unchanged.
  EXPECT_EQ(W.MappingText, C.MappingText);
  EXPECT_EQ(W.CoreSlack, C.CoreSlack);
  // The warm run probes and hits; the cold run never counts an attempt.
  EXPECT_GT(W.WarmAttempts, 0);
  EXPECT_GT(W.WarmHits, 0);
  EXPECT_EQ(C.WarmAttempts, 0);
  EXPECT_EQ(C.WarmHits, 0);
  EXPECT_LT(W.CorePivots + W.CompletePivots,
            C.CorePivots + C.CompletePivots);
}
