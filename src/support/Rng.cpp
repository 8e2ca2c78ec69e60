//===- support/Rng.cpp - Deterministic random number generation ----------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"

#include <algorithm>
#include <cmath>

using namespace palmed;

namespace {

uint64_t splitmix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

} // namespace

Rng::Rng(uint64_t Seed) {
  uint64_t S = Seed;
  for (uint64_t &Lane : State)
    Lane = splitmix64(S);
  // Avoid the all-zero state, which is a fixed point of xoshiro.
  if (State[0] == 0 && State[1] == 0 && State[2] == 0 && State[3] == 0)
    State[0] = 1;
}

uint64_t Rng::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::uniformInt(uint64_t Bound) {
  assert(Bound > 0 && "uniformInt bound must be positive");
  // Rejection sampling to avoid modulo bias.
  uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t R = next();
    if (R >= Threshold)
      return R % Bound;
  }
}

int64_t Rng::uniformIntIn(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty range");
  uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
  return Lo + static_cast<int64_t>(uniformInt(Span));
}

double Rng::uniformReal() {
  // 53-bit mantissa in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniformRealIn(double Lo, double Hi) {
  return Lo + (Hi - Lo) * uniformReal();
}

double Rng::normal() {
  if (HasSpareNormal) {
    HasSpareNormal = false;
    return SpareNormal;
  }
  double U1, U2;
  do {
    U1 = uniformReal();
  } while (U1 <= 0.0);
  U2 = uniformReal();
  double R = std::sqrt(-2.0 * std::log(U1));
  double Theta = 2.0 * M_PI * U2;
  SpareNormal = R * std::sin(Theta);
  HasSpareNormal = true;
  return R * std::cos(Theta);
}

double Rng::normal(double Mean, double StdDev) {
  return Mean + StdDev * normal();
}

size_t Rng::pickWeighted(const std::vector<double> &Weights) {
  double Total = 0.0;
  for (double W : Weights) {
    assert(W >= 0.0 && "negative weight");
    Total += W;
  }
  assert(Total > 0.0 && "all weights zero");
  double U = uniformReal() * Total;
  double Acc = 0.0;
  for (size_t I = 0, E = Weights.size(); I != E; ++I) {
    Acc += Weights[I];
    if (U <= Acc)
      return I;
  }
  return Weights.size() - 1;
}

Rng Rng::fork() { return Rng(next()); }

ZipfSampler::ZipfSampler(uint64_t N, double S) : Acc(N) {
  double Sum = 0.0;
  for (uint64_t K = 1; K <= N; ++K)
    Acc[K - 1] = Sum += 1.0 / std::pow(static_cast<double>(K), S);
}

uint64_t ZipfSampler::draw(Rng &R) const {
  assert(!Acc.empty() && "zipf over empty support");
  double U = R.uniformReal() * Acc.back();
  // The sums never decrease, so this is the first K with U <= Acc[K].
  auto It = std::lower_bound(Acc.begin(), Acc.end(), U);
  if (It == Acc.end())
    return Acc.size();
  return static_cast<uint64_t>(It - Acc.begin()) + 1;
}
