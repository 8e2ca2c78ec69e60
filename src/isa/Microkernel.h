//===- isa/Microkernel.h - Dependency-free instruction multiset -*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A microkernel (paper Def. IV.1): an infinite loop over a finite multiset
/// of dependency-free instructions  K = I1^s1 I2^s2 ... Im^sm.  Order is
/// irrelevant; multiplicities may be fractional while a kernel is being
/// constructed (the paper's convention "a a b b" repeats each instruction
/// proportionally to its IPC) and can be rounded to integers within a
/// tolerance, mirroring Sec. VI-A's 5% benchmark-coefficient rounding.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_ISA_MICROKERNEL_H
#define PALMED_ISA_MICROKERNEL_H

#include "isa/Instruction.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace palmed {

class InstructionSet;

/// A multiset of instructions with positive (possibly fractional)
/// multiplicities, kept sorted by instruction id.
class Microkernel {
public:
  using Term = std::pair<InstrId, double>;

  Microkernel() = default;

  /// Kernel holding a single instruction with multiplicity \p Mult.
  static Microkernel single(InstrId Id, double Mult = 1.0);

  /// Adds \p Mult instances of \p Id (merging with an existing term).
  void add(InstrId Id, double Mult);

  /// Merges \p Other into this kernel.
  void add(const Microkernel &Other);

  /// Terms sorted by instruction id; multiplicities are > 0.
  const std::vector<Term> &terms() const { return Terms; }

  bool empty() const { return Terms.empty(); }

  /// Number of distinct instructions.
  size_t numDistinct() const { return Terms.size(); }

  /// Total number of instructions |K| = sum of multiplicities.
  double size() const;

  /// Multiplicity of \p Id (0 if absent).
  double multiplicity(InstrId Id) const;

  bool contains(InstrId Id) const { return multiplicity(Id) > 0.0; }

  /// Returns a copy with every multiplicity scaled by \p Factor > 0.
  Microkernel scaled(double Factor) const;

  /// Rounds multiplicities to integers: each multiplicity is approximated by
  /// a rational with denominator <= \p MaxDenominator and the kernel is
  /// scaled by the common denominator. The relative perturbation of each
  /// multiplicity is bounded by the approximation error (about 1/MaxDen).
  Microkernel roundedToIntegers(int64_t MaxDenominator = 20) const;

  /// True if all multiplicities are integral (within 1e-9).
  bool isIntegral() const;

  /// Canonical text form, e.g. "ADDSS^2 BSR", for cache keys and debugging.
  std::string str(const InstructionSet &Isa) const;

  /// Parses the str() format back: tokens "NAME" or "NAME^MULT" separated
  /// by ' ', '\t', '\n', '\v', '\f' or '\r'. MULT (e.g. "2", "0.5",
  /// "1e1") must be read whole by strtod and be finite and > 0; repeated
  /// names add up. Returns nullopt on syntax errors, unknown names, an
  /// empty kernel, or when a merged multiplicity or |K| overflows.
  static std::optional<Microkernel> parse(const std::string &Text,
                                          const InstructionSet &Isa);

  bool operator==(const Microkernel &O) const { return Terms == O.Terms; }
  bool operator<(const Microkernel &O) const { return Terms < O.Terms; }

private:
  std::vector<Term> Terms;
};

} // namespace palmed

#endif // PALMED_ISA_MICROKERNEL_H
