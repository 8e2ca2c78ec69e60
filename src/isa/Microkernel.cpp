//===- isa/Microkernel.cpp - Dependency-free instruction multiset --------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "isa/Microkernel.h"

#include "isa/InstructionSet.h"
#include "support/Fraction.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string_view>

using namespace palmed;

Microkernel Microkernel::single(InstrId Id, double Mult) {
  Microkernel K;
  K.add(Id, Mult);
  return K;
}

void Microkernel::add(InstrId Id, double Mult) {
  assert(Mult > 0.0 && "multiplicity must be positive");
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), Id,
      [](const Term &T, InstrId Key) { return T.first < Key; });
  if (It != Terms.end() && It->first == Id) {
    It->second += Mult;
    return;
  }
  Terms.insert(It, {Id, Mult});
}

void Microkernel::add(const Microkernel &Other) {
  for (const Term &T : Other.Terms)
    add(T.first, T.second);
}

double Microkernel::size() const {
  double Sum = 0.0;
  for (const Term &T : Terms)
    Sum += T.second;
  return Sum;
}

double Microkernel::multiplicity(InstrId Id) const {
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), Id,
      [](const Term &T, InstrId Key) { return T.first < Key; });
  if (It != Terms.end() && It->first == Id)
    return It->second;
  return 0.0;
}

Microkernel Microkernel::scaled(double Factor) const {
  assert(Factor > 0.0 && "scale factor must be positive");
  Microkernel K = *this;
  for (Term &T : K.Terms)
    T.second *= Factor;
  return K;
}

Microkernel Microkernel::roundedToIntegers(int64_t MaxDenominator) const {
  // Approximate each multiplicity by a bounded-denominator rational, then
  // scale the kernel by the least common multiple of the denominators.
  int64_t CommonDen = 1;
  std::vector<Fraction> Fracs;
  Fracs.reserve(Terms.size());
  for (const Term &T : Terms) {
    Fraction F = approximateRatio(T.second, MaxDenominator);
    if (F.Num == 0)
      F = {1, MaxDenominator}; // Keep a trace amount rather than dropping.
    Fracs.push_back(F);
    CommonDen = lcm(CommonDen, F.Den);
  }
  Microkernel K;
  for (size_t I = 0; I != Terms.size(); ++I) {
    int64_t Count = Fracs[I].Num * (CommonDen / Fracs[I].Den);
    K.add(Terms[I].first, static_cast<double>(Count));
  }
  return K;
}

bool Microkernel::isIntegral() const {
  for (const Term &T : Terms)
    if (std::abs(T.second - std::round(T.second)) > 1e-9)
      return false;
  return true;
}

std::string Microkernel::str(const InstructionSet &Isa) const {
  std::string Out;
  for (const Term &T : Terms) {
    if (!Out.empty())
      Out += ' ';
    Out += Isa.name(T.first);
    if (std::abs(T.second - 1.0) > 1e-12) {
      char Buf[32];
      if (std::abs(T.second - std::round(T.second)) < 1e-9)
        std::snprintf(Buf, sizeof(Buf), "^%lld",
                      static_cast<long long>(std::llround(T.second)));
      else
        std::snprintf(Buf, sizeof(Buf), "^%.4g", T.second);
      Out += Buf;
    }
  }
  return Out;
}

namespace {

/// 1 if \p C separates tokens, else 0. The separators are the C locale's
/// isspace set, which is what splitting on `std::istream >> std::string`
/// used to give. The result is an integer, not a bool, so that the token
/// count in parse() stays branch-free and vectorizes.
unsigned isKernelSpace(char C) {
  return static_cast<unsigned>(C == ' ') |
         static_cast<unsigned>(static_cast<unsigned char>(C - '\t') <=
                               '\r' - '\t');
}

/// Reads the multiplicity spelled by exactly the bytes [B, E). At most 15
/// decimal digits are read as an integer, which is exact and equals what
/// strtod returns for them; every other spelling goes to strtod, on a
/// NUL-terminated copy so that strtod can neither skip leading whitespace
/// nor read past the token, and a NUL inside the token fails the
/// whole-token check. Returns false unless every byte is consumed.
bool parseMultiplicity(const char *B, const char *E, double &Mult) {
  constexpr ptrdiff_t MaxExactDigits = 15; // 10^15 < 2^53.
  if (E - B <= MaxExactDigits) {
    uint64_t V = 0;
    const char *P = B;
    for (; P != E && *P >= '0' && *P <= '9'; ++P)
      V = V * 10 + static_cast<uint64_t>(*P - '0');
    if (P == E && P != B) {
      Mult = static_cast<double>(V);
      return true;
    }
  }
  std::string Copy(B, E);
  char *End = nullptr;
  Mult = std::strtod(Copy.c_str(), &End);
  return !Copy.empty() && End == Copy.c_str() + Copy.size();
}

} // namespace

std::optional<Microkernel> Microkernel::parse(const std::string &Text,
                                              const InstructionSet &Isa) {
  // Size the terms by the token count: the bytes that start a token.
  size_t NumTokens = !Text.empty() && !isKernelSpace(Text[0]);
  for (size_t I = 1; I < Text.size(); ++I)
    NumTokens += isKernelSpace(Text[I - 1]) & !isKernelSpace(Text[I]);
  Microkernel K;
  K.Terms.reserve(NumTokens);

  const char *P = Text.data();
  const char *const E = P + Text.size();
  while (true) {
    while (P != E && isKernelSpace(*P))
      ++P;
    if (P == E)
      break;
    const char *Name = P;
    while (P != E && !isKernelSpace(*P) && *P != '^')
      ++P;
    const char *NameEnd = P;
    double Mult = 1.0;
    if (P != E && *P == '^') {
      const char *MultBegin = ++P;
      while (P != E && !isKernelSpace(*P))
        ++P;
      // !(Mult > 0.0) also rejects NaN, which compares false against
      // everything; kernel text arrives over the wire, so "^nan"/"^inf"
      // must not leak non-finite multiplicities into predictions.
      if (!parseMultiplicity(MultBegin, P, Mult) || !std::isfinite(Mult) ||
          !(Mult > 0.0))
        return std::nullopt;
    }
    InstrId Id = Isa.findByName(
        std::string_view(Name, static_cast<size_t>(NameEnd - Name)));
    if (Id == InvalidInstr)
      return std::nullopt;
    // Text in str() order names ids ascending: append in place.
    if (K.Terms.empty() || K.Terms.back().first < Id)
      K.Terms.emplace_back(Id, Mult);
    else
      K.add(Id, Mult);
  }
  // Each multiplicity is finite, but repeated names merge by addition and
  // |K| sums every term, so either can overflow to inf (and the IPC to inf
  // or NaN). An infinite term makes |K| infinite, so one check on size(),
  // the very sum KernelBatch stores for the kernel, rejects both.
  if (K.empty() || !std::isfinite(K.size()))
    return std::nullopt;
  return K;
}
