//===- support/Rng.h - Deterministic random number generation --*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, deterministic, seedable random number generator (xoshiro256**)
/// used everywhere randomness is needed: synthetic ISA generation, workload
/// generation, measurement noise, and the PMEvo evolutionary baseline.
/// Determinism across platforms matters because every experiment in
/// EXPERIMENTS.md is keyed by a seed.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_SUPPORT_RNG_H
#define PALMED_SUPPORT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace palmed {

/// Deterministic xoshiro256** generator with convenience distributions.
class Rng {
public:
  /// Seeds the four 64-bit lanes from \p Seed via splitmix64.
  explicit Rng(uint64_t Seed);

  /// Raw 64-bit output.
  uint64_t next();

  /// Uniform integer in [0, Bound), Bound > 0, via rejection sampling.
  uint64_t uniformInt(uint64_t Bound);

  /// Uniform integer in [Lo, Hi] inclusive.
  int64_t uniformIntIn(int64_t Lo, int64_t Hi);

  /// Uniform real in [0, 1).
  double uniformReal();

  /// Uniform real in [Lo, Hi).
  double uniformRealIn(double Lo, double Hi);

  /// Standard normal variate (Box-Muller).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double Mean, double StdDev);

  /// Bernoulli trial with probability \p P.
  bool chance(double P) { return uniformReal() < P; }

  /// Index sampled proportionally to non-negative \p Weights (at least one
  /// weight must be positive).
  size_t pickWeighted(const std::vector<double> &Weights);

  /// Fisher-Yates shuffle.
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I) {
      size_t J = static_cast<size_t>(uniformInt(I));
      std::swap(V[I - 1], V[J]);
    }
  }

  /// Derives an independent child generator; stable given the call sequence.
  Rng fork();

private:
  uint64_t State[4];
  bool HasSpareNormal = false;
  double SpareNormal = 0.0;
};

/// Zipf law over the ranks [1, N] with exponent S, P(k) ~ 1/k^S, drawn by
/// inverse CDF (used for basic-block frequency weights). The running sums
/// of 1/k^S are built once; a draw consumes one Rng::uniformReal and
/// binary-searches them in O(log N).
class ZipfSampler {
public:
  ZipfSampler(uint64_t N, double S);

  /// The first rank K with U <= Acc[K], where U = R.uniformReal() * Acc[N]
  /// and Acc[K] = 1/1^S + ... + 1/K^S summed in rank order; N if rounding
  /// leaves U above every sum.
  uint64_t draw(Rng &R) const;

private:
  std::vector<double> Acc; ///< Acc[K - 1] for ranks K = 1..N.
};

} // namespace palmed

#endif // PALMED_SUPPORT_RNG_H
