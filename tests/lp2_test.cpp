//===- tests/lp2_test.cpp - Cached, parallel LP2 tests ---------------------===//
//
// Part of the PALMED reproduction.
//
// The stage-2 fit accepts solve-strategy knobs (BwpSolveOptions:
// subproblem cache, executor fan-out of the per-resource blocks) whose
// contract is that every combination produces bit-identical weights —
// they only trade work. These tests pin that contract down, both on
// direct solveCoreWeights calls (whose returned work can be bracketed
// exactly) and end-to-end through the pipeline on the shipped machine
// profiles.
//
//===----------------------------------------------------------------------===//

#include "core/BwpSolver.h"
#include "lp/Model.h"
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

/// Runs solveCoreWeights under \p Opts; the result carries the call's
/// work.
CoreWeights solveWith(const TwoComponentFixture &F,
                      const BwpSolveOptions &Opts,
                      const std::vector<double> &SoloIpc = {}) {
  return solveCoreWeights(F.Shape, F.IndexOf, F.kernels(), BwpMode::Pinned,
                          /*MaxPinIterations=*/6, SoloIpc, Opts);
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

void expectSameWork(const BwpWork &A, const BwpWork &B) {
  EXPECT_EQ(A.Solves, B.Solves);
  EXPECT_EQ(A.Pivots, B.Pivots);
  EXPECT_EQ(A.CacheProbes, B.CacheProbes);
  EXPECT_EQ(A.CacheHits, B.CacheHits);
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
      CoreWeights WJoint = solveWith(TwoComponentFixture(), Joint, SoloIpc);

      BwpSolveOptions Split;
      Split.Cache = WithCache ? &SplitCache : nullptr;
      CoreWeights WSplit;
      WSplit.Rho.assign(4, std::vector<double>(4, 0.0));
      for (size_t C = 0; C < 2; ++C) {
        std::vector<double> PartSoloIpc;
        if (!SoloIpc.empty())
          PartSoloIpc = {SoloIpc[2 * C], SoloIpc[2 * C + 1]};
        CoreWeights W = solveWith(TwoComponentFixture::component(C), Split,
                                  PartSoloIpc);
        for (size_t I = 0; I < 2; ++I)
          for (size_t R = 0; R < 2; ++R)
            WSplit.Rho[2 * C + I][2 * C + R] = W.Rho[I][R];
        WSplit.TotalSlack += W.TotalSlack;
        WSplit.Work += W.Work;
      }
      expectBitwiseEqual(WSplit, WJoint);
      expectSameWork(WSplit.Work, WJoint.Work);
      EXPECT_EQ(SplitCache.numEntries(), JointCache.numEntries());
    }
  }
}

TEST(Lp2Equivalence, CacheOnOffBitwiseValues) {
  TwoComponentFixture F;
  BwpSubproblemCache Cache;
  BwpSolveOptions Cached;
  Cached.Cache = &Cache;
  BwpSolveOptions Uncached;
  CoreWeights WCold = solveWith(F, Uncached);
  CoreWeights WWarm = solveWith(F, Cached);
  expectBitwiseEqual(WWarm, WCold);
  EXPECT_GT(WWarm.Work.CacheProbes, 0);
  EXPECT_EQ(WCold.Work.CacheProbes, 0);
  // A second cached solve of the identical problem replays every block.
  CoreWeights WReplay = solveWith(F, Cached);
  expectBitwiseEqual(WReplay, WCold);
  EXPECT_GT(WReplay.Work.CacheHits, 0);
  EXPECT_LT(WReplay.Work.Pivots, WCold.Work.Pivots);
}

namespace {

/// Per-resource blocks fanned over 2- and 4-worker executors vs inline,
/// with and without the balancing passes: identical weights and identical
/// work (each block's work is summed by the serial publish pass). With
/// \p WithCache each solve starts from an empty cache, and the mirrored
/// blocks of R2/R3 replay those of R0/R1.
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
    CoreWeights WInline = solveWith(F, Inline, SoloIpc);
    EXPECT_EQ(WInline.Work.Solves, WithCache ? C.Solves / 2 : C.Solves);
    EXPECT_EQ(WInline.Work.Pivots, WithCache ? C.Pivots / 2 : C.Pivots);
    EXPECT_EQ(WInline.Work.CacheProbes, WithCache ? 8 : 0);
    EXPECT_EQ(WInline.Work.CacheHits, WithCache ? 4 : 0);
    for (unsigned Workers : {2u, 4u}) {
      SCOPED_TRACE(Workers);
      Executor Exec(Workers);
      BwpSubproblemCache FannedCache;
      BwpSolveOptions Fanned = Inline;
      Fanned.Exec = &Exec;
      Fanned.Cache = WithCache ? &FannedCache : nullptr;
      CoreWeights WFanned = solveWith(F, Fanned, SoloIpc);
      expectBitwiseEqual(WFanned, WInline);
      expectSameWork(WFanned.Work, WInline.Work);
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

TEST(Lp2Pipeline, LpCountsIgnoreMeasurementCache) {
  // Two maps over one runner: the second finds every benchmark in the
  // runner's cache, so the analytic oracle solves none of its
  // port-scheduling LPs. The LP counts cover the weight solves only, so
  // the two maps must report the same work.
  MachineModel M = makeSklLike();
  AnalyticOracle Oracle(M);
  BenchmarkRunner Runner(M, Oracle);
  const PalmedResult Cold = Pipeline(Runner).run();
  const size_t Measured = Runner.numDistinctBenchmarks();
  const PalmedResult Warm = Pipeline(Runner).run();
  EXPECT_EQ(Runner.numDistinctBenchmarks(), Measured);
  EXPECT_EQ(Warm.Mapping.toText(M.isa()), Cold.Mapping.toText(M.isa()));
  EXPECT_EQ(Warm.Stats.CoreLpSolves, Cold.Stats.CoreLpSolves);
  EXPECT_EQ(Warm.Stats.CoreLpPivots, Cold.Stats.CoreLpPivots);
  EXPECT_EQ(Warm.Stats.CompleteLpSolves, Cold.Stats.CompleteLpSolves);
  EXPECT_EQ(Warm.Stats.CompleteLpPivots, Cold.Stats.CompleteLpPivots);
  EXPECT_EQ(Warm.Stats.LpWarmStartAttempts, Cold.Stats.LpWarmStartAttempts);
  EXPECT_EQ(Warm.Stats.LpWarmStartHits, Cold.Stats.LpWarmStartHits);
}
