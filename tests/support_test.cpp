//===- tests/support_test.cpp - Support library tests ---------------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Approx.h"
#include "support/BitSet.h"
#include "support/Executor.h"
#include "support/Fraction.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

using namespace palmed;

// -------------------------------------------------------------------- BitSet

TEST(BitSet, EmptyAndSingleBit) {
  BitSet S;
  EXPECT_TRUE(S.none());
  EXPECT_FALSE(S.any());
  EXPECT_EQ(S.count(), 0u);
  EXPECT_FALSE(S.test(0));
  EXPECT_FALSE(S.test(1000));

  S.set(5);
  EXPECT_TRUE(S.any());
  EXPECT_TRUE(S.test(5));
  EXPECT_EQ(S.count(), 1u);
  EXPECT_EQ(S.findFirst(), 5u);
  EXPECT_EQ(S.findLast(), 5u);
  EXPECT_EQ(S, BitSet::bit(5));
  S.reset(5);
  EXPECT_TRUE(S.none());
  EXPECT_EQ(S, BitSet());
}

TEST(BitSet, WordBoundarySizes) {
  // The sizes that historically broke fixed-width masks: around the old
  // 32-bit cap and around the inline 64-bit word.
  for (size_t N : {31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    BitSet S = BitSet::firstN(N);
    EXPECT_EQ(S.count(), N) << N;
    EXPECT_EQ(S.findFirst(), 0u) << N;
    EXPECT_EQ(S.findLast(), N - 1) << N;
    EXPECT_FALSE(S.test(N)) << N;

    BitSet Top = BitSet::bit(N - 1);
    EXPECT_TRUE(Top.isSubsetOf(S)) << N;
    EXPECT_TRUE(S.intersects(Top)) << N;
    BitSet Without = S.without(Top);
    EXPECT_EQ(Without.count(), N - 1) << N;
    EXPECT_FALSE(Without.test(N - 1)) << N;
    EXPECT_EQ(Without | Top, S) << N;
    EXPECT_EQ(S & Top, Top) << N;
    EXPECT_EQ(S ^ Top, Without) << N;
    // Crossing the boundary by one more bit.
    BitSet Grown = S;
    Grown.set(N);
    EXPECT_EQ(Grown.count(), N + 1) << N;
    EXPECT_EQ(Grown.findLast(), N) << N;
    EXPECT_TRUE(S.isSubsetOf(Grown)) << N;
    EXPECT_LT(S, Grown) << N;
  }
}

TEST(BitSet, IntegerValueOrdering) {
  // Ordering must match the underlying integer value — the property that
  // keeps ordered containers iterating exactly like the old uint32_t
  // masks.
  std::vector<uint64_t> Values = {0, 1, 2, 3, 7, 8, 0x80, 0xff00ff,
                                  0x8000000000000000ull};
  for (uint64_t A : Values)
    for (uint64_t B : Values) {
      EXPECT_EQ(BitSet::fromWord(A) < BitSet::fromWord(B), A < B);
      EXPECT_EQ(BitSet::fromWord(A) == BitSet::fromWord(B), A == B);
    }
  // Multi-word values sort above any single-word value.
  EXPECT_LT(BitSet::fromWord(~uint64_t{0}), BitSet::bit(64));
  EXPECT_LT(BitSet::bit(64), BitSet::bit(64) | BitSet::bit(0));
  EXPECT_LT(BitSet::bit(64) | BitSet::bit(0), BitSet::bit(65));
}

TEST(BitSet, ShiftBasics) {
  BitSet S = BitSet::fromWord(0b1011);
  EXPECT_EQ(S << 2, BitSet::fromWord(0b101100));
  EXPECT_EQ(S >> 1, BitSet::fromWord(0b101));
  EXPECT_EQ(S >> 4, BitSet());
  // Shifting across the inline-word boundary and back.
  BitSet Wide = S << 62;
  EXPECT_EQ(Wide.count(), 3u);
  EXPECT_EQ(Wide.findLast(), 65u);
  EXPECT_EQ(Wide >> 62, S);
  EXPECT_EQ(BitSet::bit(0) << 200, BitSet::bit(200));
  EXPECT_EQ(BitSet::bit(200) >> 200, BitSet::bit(0));
}

TEST(BitSet, IterationAndIndices) {
  BitSet S;
  std::vector<size_t> Expected = {0, 31, 32, 63, 64, 65, 200};
  for (size_t I : Expected)
    S.set(I);
  EXPECT_EQ(S.toIndices(), Expected);
  EXPECT_EQ(S.str(), "{0, 31, 32, 63, 64, 65, 200}");
}

TEST(BitSet, HashingEqualValuesAgree) {
  // Same value reached via different construction histories (including a
  // spill to the heap and back) must hash identically.
  BitSet A = BitSet::fromWord(0b1010);
  BitSet B;
  B.set(1);
  B.set(3);
  B.set(100);
  B.reset(100); // Shrinks back to one word.
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_EQ(std::hash<BitSet>()(A), A.hash());
  EXPECT_NE(BitSet::bit(64).hash(), BitSet::bit(63).hash());
}

/// Property: BitSet agrees with a std::vector<bool> reference model under
/// random set/reset/union/intersection/difference/shift/subset ops.
class BitSetProperty : public ::testing::TestWithParam<uint64_t> {};

namespace {

std::vector<bool> refModel(const BitSet &S, size_t N) {
  std::vector<bool> Out(N, false);
  S.forEachSetBit([&](size_t I) { Out[I] = true; });
  return Out;
}

} // namespace

TEST_P(BitSetProperty, MatchesVectorBoolModel) {
  Rng R(GetParam());
  // Universe straddling two words keeps every op crossing the boundary.
  const size_t N = 65 + R.uniformInt(80);
  BitSet A, B;
  std::vector<bool> RefA(N, false), RefB(N, false);
  for (int Op = 0; Op < 200; ++Op) {
    size_t I = R.uniformInt(N);
    switch (R.uniformInt(6)) {
    case 0:
      A.set(I);
      RefA[I] = true;
      break;
    case 1:
      A.reset(I);
      RefA[I] = false;
      break;
    case 2:
      B.set(I);
      RefB[I] = true;
      break;
    case 3:
      B.flip(I);
      RefB[I] = !RefB[I];
      break;
    case 4: { // Shift A left by a small amount within the universe.
      size_t Sh = R.uniformInt(5);
      if (A.any() && A.findLast() + Sh < N) {
        A <<= Sh;
        std::vector<bool> Next(N, false);
        for (size_t X = 0; X + Sh < N; ++X)
          if (RefA[X])
            Next[X + Sh] = true;
        RefA = Next;
      }
      break;
    }
    case 5: { // Shift B right.
      size_t Sh = R.uniformInt(70);
      B >>= Sh;
      std::vector<bool> Next(N, false);
      for (size_t X = Sh; X < N; ++X)
        if (RefB[X])
          Next[X - Sh] = true;
      RefB = Next;
      break;
    }
    }

    ASSERT_EQ(refModel(A, N), RefA);
    ASSERT_EQ(refModel(B, N), RefB);

    // Derived ops against the model.
    std::vector<bool> RefOr(N), RefAnd(N), RefDiff(N);
    bool RefIntersects = false, RefSubset = true;
    size_t RefCount = 0;
    for (size_t X = 0; X < N; ++X) {
      RefOr[X] = RefA[X] || RefB[X];
      RefAnd[X] = RefA[X] && RefB[X];
      RefDiff[X] = RefA[X] && !RefB[X];
      RefIntersects |= RefA[X] && RefB[X];
      RefSubset &= !RefA[X] || RefB[X];
      RefCount += RefA[X];
    }
    ASSERT_EQ(refModel(A | B, N), RefOr);
    ASSERT_EQ(refModel(A & B, N), RefAnd);
    ASSERT_EQ(refModel(A.without(B), N), RefDiff);
    ASSERT_EQ(A.intersects(B), RefIntersects);
    ASSERT_EQ(A.isSubsetOf(B), RefSubset);
    ASSERT_EQ(A.count(), RefCount);
    ASSERT_EQ((A ^ B) ^ B, A);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitSetProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// -------------------------------------------------------------------- Approx

TEST(Approx, RelDiff) {
  EXPECT_DOUBLE_EQ(relDiff(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(relDiff(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(relDiff(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(relDiff(2.0, 1.0), 0.5); // Symmetric.
  EXPECT_TRUE(approxEqual(1.0, 1.04, 0.05));
  EXPECT_FALSE(approxEqual(1.0, 1.06, 0.05));
}

TEST(Approx, IsAdditivePair) {
  EXPECT_TRUE(isAdditivePair(3.0, 1.0, 2.0, 0.05));
  EXPECT_TRUE(isAdditivePair(2.9, 1.0, 2.0, 0.05));
  EXPECT_FALSE(isAdditivePair(2.0, 1.0, 2.0, 0.05));
}

// ---------------------------------------------------------------- Statistics

TEST(Statistics, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Statistics, RmsErrorExactPrediction) {
  EXPECT_DOUBLE_EQ(weightedRmsRelativeError({1.0, 2.0}, {1.0, 2.0}), 0.0);
}

TEST(Statistics, RmsErrorKnownValue) {
  // Single sample, 10% over-prediction.
  EXPECT_NEAR(weightedRmsRelativeError({1.1}, {1.0}), 0.1, 1e-12);
}

TEST(Statistics, RmsErrorUsesWeights) {
  // The heavy sample dominates: err = sqrt(0.9*0.01 + 0.1*0.04).
  double E = weightedRmsRelativeError({1.1, 1.2}, {1.0, 1.0}, {9.0, 1.0});
  EXPECT_NEAR(E, std::sqrt(0.9 * 0.01 + 0.1 * 0.04), 1e-12);
}

TEST(Statistics, RmsErrorSkipsZeroNative) {
  EXPECT_NEAR(weightedRmsRelativeError({5.0, 1.1}, {0.0, 1.0}), 0.1, 1e-12);
}

TEST(Statistics, KendallPerfectCorrelation) {
  std::vector<double> A = {1, 2, 3, 4, 5};
  std::vector<double> B = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(kendallTau(A, B), 1.0);
  EXPECT_DOUBLE_EQ(kendallTauNaive(A, B), 1.0);
}

TEST(Statistics, KendallAntiCorrelation) {
  std::vector<double> A = {1, 2, 3, 4};
  std::vector<double> B = {4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(kendallTau(A, B), -1.0);
}

TEST(Statistics, KendallTiny) {
  EXPECT_DOUBLE_EQ(kendallTau({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(kendallTau({1.0}, {2.0}), 0.0);
}

/// Property: the O(n log n) implementation agrees with the naive one on
/// random data with ties.
class KendallProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KendallProperty, MatchesNaive) {
  Rng R(GetParam());
  size_t N = 5 + R.uniformInt(60);
  std::vector<double> A(N), B(N);
  for (size_t I = 0; I < N; ++I) {
    // Small integer values provoke plenty of ties.
    A[I] = static_cast<double>(R.uniformInt(8));
    B[I] = static_cast<double>(R.uniformInt(8));
  }
  EXPECT_NEAR(kendallTau(A, B), kendallTauNaive(A, B), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KendallProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

TEST(Statistics, RunningStats) {
  RunningStats S;
  for (double X : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(X);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
}

// ----------------------------------------------------------------------- Rng

TEST(Rng, Deterministic) {
  Rng A(7), B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Rng, UniformIntInRange) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.uniformInt(10);
    EXPECT_LT(V, 10u);
  }
}

TEST(Rng, UniformRealCoversUnitInterval) {
  Rng R(5);
  double Min = 1.0, Max = 0.0;
  for (int I = 0; I < 10000; ++I) {
    double V = R.uniformReal();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
    Min = std::min(Min, V);
    Max = std::max(Max, V);
  }
  EXPECT_LT(Min, 0.01);
  EXPECT_GT(Max, 0.99);
}

TEST(Rng, NormalMoments) {
  Rng R(11);
  RunningStats S;
  for (int I = 0; I < 20000; ++I)
    S.add(R.normal());
  EXPECT_NEAR(S.mean(), 0.0, 0.05);
  EXPECT_NEAR(S.stddev(), 1.0, 0.05);
}

TEST(Rng, PickWeightedRespectsWeights) {
  Rng R(13);
  int Counts[3] = {0, 0, 0};
  for (int I = 0; I < 30000; ++I)
    ++Counts[R.pickWeighted({1.0, 2.0, 7.0})];
  EXPECT_NEAR(Counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(Counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(Counts[2] / 30000.0, 0.7, 0.02);
}

TEST(Rng, ZipfFavoursLowRanks) {
  Rng R(17);
  ZipfSampler Zipf(100, 1.2);
  int First = 0, Last = 0;
  for (int I = 0; I < 5000; ++I) {
    uint64_t K = Zipf.draw(R);
    EXPECT_GE(K, 1u);
    EXPECT_LE(K, 100u);
    First += K == 1;
    Last += K == 100;
  }
  EXPECT_GT(First, Last * 10);
}

TEST(Rng, ZipfSamplerMatchesLinearScan) {
  // The inverse-CDF linear scan ZipfSampler replaced: it renormalizes and
  // rescans the support on every draw. Ranks and RNG consumption must stay
  // bit-identical, since every seeded workload depends on both.
  auto LinearZipf = [](Rng &R, uint64_t N, double S) -> uint64_t {
    double Norm = 0.0;
    for (uint64_t K = 1; K <= N; ++K)
      Norm += 1.0 / std::pow(static_cast<double>(K), S);
    double U = R.uniformReal() * Norm;
    double Acc = 0.0;
    for (uint64_t K = 1; K <= N; ++K) {
      Acc += 1.0 / std::pow(static_cast<double>(K), S);
      if (U <= Acc)
        return K;
    }
    return N;
  };
  for (uint64_t N : {1u, 2u, 3u, 64u, 1000u}) {
    for (double S : {0.0, 0.5, 1.1, 2.0, 8.0}) {
      ZipfSampler Zipf(N, S);
      Rng Fast(N * 31 + static_cast<uint64_t>(S * 10));
      Rng Slow = Fast;
      for (int I = 0; I < 2000; ++I)
        ASSERT_EQ(Zipf.draw(Fast), LinearZipf(Slow, N, S))
            << "N=" << N << " S=" << S << " draw " << I;
      EXPECT_EQ(Fast.next(), Slow.next()) << "N=" << N << " S=" << S;
    }
  }
}

// ------------------------------------------------------------------ Fraction

TEST(Fraction, Gcd) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(0, 5), 5);
  EXPECT_EQ(gcd(7, 0), 7);
  EXPECT_EQ(gcd(1, 1), 1);
}

TEST(Fraction, Lcm) {
  EXPECT_EQ(lcm(4, 6), 12);
  EXPECT_EQ(lcm(1, 9), 9);
  EXPECT_EQ(lcm(0, 9), 0);
}

TEST(Fraction, ApproximateExactValues) {
  Fraction F = approximateRatio(0.5, 10);
  EXPECT_EQ(F.Num, 1);
  EXPECT_EQ(F.Den, 2);
  F = approximateRatio(3.0, 10);
  EXPECT_EQ(F.Num, 3);
  EXPECT_EQ(F.Den, 1);
}

TEST(Fraction, ApproximateThird) {
  Fraction F = approximateRatio(1.0 / 3.0, 10);
  EXPECT_EQ(F.Num, 1);
  EXPECT_EQ(F.Den, 3);
}

TEST(Fraction, BoundedDenominator) {
  Fraction F = approximateRatio(M_PI, 7);
  EXPECT_LE(F.Den, 7);
  EXPECT_NEAR(F.toDouble(), M_PI, 0.01); // 22/7.
}

TEST(Fraction, PaperStyleRounding) {
  // Sec. VI-A: a = 0.06 rounds to a small fraction within ~5%.
  Fraction F = approximateRatio(0.06, 20);
  EXPECT_NEAR(F.toDouble(), 0.06, 0.06 * 0.06);
}

// --------------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  TextTable T({"tool", "err"});
  T.addRow({"palmed", "7.8"});
  T.addRow({"uops.info", "40.3"});
  std::ostringstream OS;
  T.print(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("tool"), std::string::npos);
  EXPECT_NE(Out.find("palmed"), std::string::npos);
  EXPECT_NE(Out.find("40.3"), std::string::npos);
}

TEST(Table, CsvEscapes) {
  TextTable T({"a", "b"});
  T.addRow({"x,y", "plain"});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_NE(OS.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(int64_t{42}), "42");
}

// ------------------------------------------------------------------ Executor

TEST(Executor, ResolveThreadCount) {
  EXPECT_EQ(Executor::resolveThreadCount(3), 3u);
  EXPECT_EQ(Executor::resolveThreadCount(1), 1u);
  // 0 = auto: a concrete width in [1, MaxAutoThreads], whatever the host.
  unsigned Auto = Executor::resolveThreadCount(0);
  EXPECT_GE(Auto, 1u);
  EXPECT_LE(Auto, Executor::MaxAutoThreads);
  // Explicit requests are taken as-is, even above the auto clamp.
  EXPECT_EQ(Executor::resolveThreadCount(Executor::MaxAutoThreads + 7),
            Executor::MaxAutoThreads + 7);
}

TEST(Executor, CoversEveryIndexExactlyOnce) {
  Executor E(4);
  EXPECT_EQ(E.numWorkers(), 4u);
  constexpr size_t N = 4096;
  // Each index is claimed exactly once, so unsynchronized per-slot writes
  // are race-free; the join at the end of parallelFor publishes them.
  std::vector<int> Hits(N, 0);
  std::vector<unsigned> Worker(N, ~0u);
  E.parallelFor(N, [&](size_t I, unsigned W) {
    ++Hits[I];
    Worker[I] = W;
  });
  for (size_t I = 0; I < N; ++I) {
    EXPECT_EQ(Hits[I], 1) << I;
    EXPECT_LT(Worker[I], 4u) << I;
  }
}

TEST(Executor, SerialWidthRunsInlineInOrder) {
  Executor E(1);
  EXPECT_EQ(E.numWorkers(), 1u);
  std::vector<size_t> Order;
  E.parallelFor(5, [&](size_t I, unsigned W) {
    EXPECT_EQ(W, 0u);
    Order.push_back(I);
  });
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(Executor, PropagatesFirstExceptionAndStaysUsable) {
  Executor E(3);
  std::atomic<int> Ran{0};
  auto Boom = [&](size_t I, unsigned) {
    if (I == 17)
      throw std::runtime_error("boom");
    ++Ran;
  };
  EXPECT_THROW(E.parallelFor(64, Boom), std::runtime_error);
  // Unclaimed items were abandoned, claimed ones completed.
  EXPECT_LT(Ran.load(), 64);

  // The pool survives an exception and runs the next job normally.
  std::atomic<int> Count{0};
  E.parallelFor(100, [&](size_t, unsigned) { ++Count; });
  EXPECT_EQ(Count.load(), 100);
}

TEST(Executor, ZeroAndSingleItemJobs) {
  Executor E(4);
  int Calls = 0;
  E.parallelFor(0, [&](size_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  E.parallelFor(1, [&](size_t I, unsigned W) {
    EXPECT_EQ(I, 0u);
    EXPECT_EQ(W, 0u); // Single items run inline on the caller.
    ++Calls;
  });
  EXPECT_EQ(Calls, 1);
}

TEST(Executor, BackToBackJobsReuseThePool) {
  Executor E(4);
  for (int Round = 0; Round < 50; ++Round) {
    std::atomic<size_t> Sum{0};
    E.parallelFor(257, [&](size_t I, unsigned) { Sum += I; });
    EXPECT_EQ(Sum.load(), 257u * 256u / 2u);
  }
}
