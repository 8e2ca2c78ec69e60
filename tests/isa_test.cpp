//===- tests/isa_test.cpp - Instruction set and microkernel tests ---------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "eval/Workload.h"
#include "isa/InstructionSet.h"
#include "isa/Microkernel.h"
#include "machine/StandardMachines.h"
#include "machine/SyntheticIsa.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

using namespace palmed;

namespace {

InstructionSet makeIsa() {
  InstructionSet Isa;
  Isa.add({"ADD", ExtClass::Base, InstrCategory::IntAlu});
  Isa.add({"MUL", ExtClass::Base, InstrCategory::IntMul});
  Isa.add({"ADDSS", ExtClass::Sse, InstrCategory::FpAdd});
  return Isa;
}

} // namespace

TEST(InstructionSet, AddAndLookup) {
  InstructionSet Isa = makeIsa();
  EXPECT_EQ(Isa.size(), 3u);
  EXPECT_EQ(Isa.findByName("MUL"), 1u);
  EXPECT_EQ(Isa.findByName("NOPE"), InvalidInstr);
  EXPECT_EQ(Isa.name(2), "ADDSS");
  EXPECT_EQ(Isa.info(2).Ext, ExtClass::Sse);
}

TEST(InstructionSet, AllIdsInOrder) {
  InstructionSet Isa = makeIsa();
  std::vector<InstrId> Ids = Isa.allIds();
  ASSERT_EQ(Ids.size(), 3u);
  EXPECT_EQ(Ids[0], 0u);
  EXPECT_EQ(Ids[2], 2u);
}

TEST(InstructionSet, CategoryNames) {
  EXPECT_STREQ(categoryName(InstrCategory::IntAlu), "int-alu");
  EXPECT_STREQ(categoryName(InstrCategory::FpDiv), "fp-div");
  EXPECT_STREQ(extClassName(ExtClass::Avx), "avx");
}

TEST(Microkernel, AddMergesTerms) {
  Microkernel K;
  K.add(3, 1.0);
  K.add(1, 2.0);
  K.add(3, 0.5);
  ASSERT_EQ(K.numDistinct(), 2u);
  EXPECT_DOUBLE_EQ(K.multiplicity(3), 1.5);
  EXPECT_DOUBLE_EQ(K.multiplicity(1), 2.0);
  EXPECT_DOUBLE_EQ(K.multiplicity(7), 0.0);
  EXPECT_DOUBLE_EQ(K.size(), 3.5);
  // Terms stay sorted by instruction id.
  EXPECT_EQ(K.terms()[0].first, 1u);
  EXPECT_EQ(K.terms()[1].first, 3u);
}

TEST(Microkernel, OrderIndependentEquality) {
  Microkernel A, B;
  A.add(1, 1.0);
  A.add(2, 2.0);
  B.add(2, 2.0);
  B.add(1, 1.0);
  EXPECT_TRUE(A == B);
}

TEST(Microkernel, MergeKernels) {
  Microkernel A = Microkernel::single(0, 1.0);
  Microkernel B = Microkernel::single(1, 2.0);
  A.add(B);
  EXPECT_DOUBLE_EQ(A.size(), 3.0);
  EXPECT_TRUE(A.contains(1));
}

TEST(Microkernel, Scaled) {
  Microkernel K;
  K.add(0, 1.0);
  K.add(1, 2.0);
  Microkernel S = K.scaled(4.0);
  EXPECT_DOUBLE_EQ(S.multiplicity(0), 4.0);
  EXPECT_DOUBLE_EQ(S.multiplicity(1), 8.0);
  EXPECT_DOUBLE_EQ(K.multiplicity(0), 1.0); // Original untouched.
}

TEST(Microkernel, IntegralityCheck) {
  Microkernel K;
  K.add(0, 2.0);
  EXPECT_TRUE(K.isIntegral());
  K.add(1, 0.5);
  EXPECT_FALSE(K.isIntegral());
}

TEST(Microkernel, RoundingPreservesRatios) {
  Microkernel K;
  K.add(0, 1.5);
  K.add(1, 1.0);
  Microkernel R = K.roundedToIntegers(20);
  EXPECT_TRUE(R.isIntegral());
  // Ratio 1.5 must be preserved exactly (3 : 2).
  EXPECT_DOUBLE_EQ(R.multiplicity(0) / R.multiplicity(1), 1.5);
}

TEST(Microkernel, RoundingPaperExample) {
  // Sec. VI-A: "a benchmark aabb with a=0.06 and b=1 will be rounded to
  // a^1 b^20" style integer scaling within 5%.
  Microkernel K;
  K.add(0, 0.06);
  K.add(1, 1.0);
  Microkernel R = K.roundedToIntegers(20);
  EXPECT_TRUE(R.isIntegral());
  double Ratio = R.multiplicity(1) / R.multiplicity(0);
  EXPECT_NEAR(Ratio, 1.0 / 0.06, 1.0 / 0.06 * 0.06);
}

TEST(Microkernel, RoundingKeepsTinyTerms) {
  Microkernel K;
  K.add(0, 0.001); // Below the denominator resolution.
  K.add(1, 1.0);
  Microkernel R = K.roundedToIntegers(10);
  EXPECT_GT(R.multiplicity(0), 0.0); // Never silently dropped.
}

TEST(Microkernel, StrFormatting) {
  InstructionSet Isa = makeIsa();
  Microkernel K;
  K.add(0, 2.0);
  K.add(1, 1.0);
  EXPECT_EQ(K.str(Isa), "ADD^2 MUL");
}

TEST(Microkernel, ParseRoundTrip) {
  InstructionSet Isa = makeIsa();
  Microkernel K;
  K.add(0, 2.0);
  K.add(2, 1.0);
  auto Parsed = Microkernel::parse(K.str(Isa), Isa);
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_TRUE(*Parsed == K);
}

TEST(Microkernel, ParseFractionalAndImplicitMultiplicity) {
  InstructionSet Isa = makeIsa();
  auto K = Microkernel::parse("ADD^0.5 MUL", Isa);
  ASSERT_TRUE(K.has_value());
  EXPECT_DOUBLE_EQ(K->multiplicity(0), 0.5);
  EXPECT_DOUBLE_EQ(K->multiplicity(1), 1.0);
}

TEST(Microkernel, ParseMergesRepeatedNames) {
  InstructionSet Isa = makeIsa();
  auto K = Microkernel::parse("ADD ADD^2", Isa);
  ASSERT_TRUE(K.has_value());
  EXPECT_DOUBLE_EQ(K->multiplicity(0), 3.0);
}

TEST(Microkernel, ParseRejectsGarbage) {
  InstructionSet Isa = makeIsa();
  EXPECT_FALSE(Microkernel::parse("", Isa).has_value());
  EXPECT_FALSE(Microkernel::parse("NOPE", Isa).has_value());
  EXPECT_FALSE(Microkernel::parse("ADD^", Isa).has_value());
  EXPECT_FALSE(Microkernel::parse("ADD^-2", Isa).has_value());
  EXPECT_FALSE(Microkernel::parse("ADD^x", Isa).has_value());
}

TEST(Microkernel, ParseRejectsNonFiniteMultiplicityRegression) {
  // Found by fuzz_protocol: strtod parses "inf"/"nan", and NaN slips
  // past a `Mult <= 0.0` check because every comparison with NaN is
  // false. Such kernels poisoned predictions with non-finite IPCs.
  InstructionSet Isa = makeIsa();
  EXPECT_FALSE(Microkernel::parse("ADD^inf", Isa).has_value());
  EXPECT_FALSE(Microkernel::parse("ADD^nan", Isa).has_value());
  EXPECT_FALSE(Microkernel::parse("ADD^1e999", Isa).has_value());
}

TEST(Microkernel, ParseRejectsOverflowingSumRegression) {
  // Each multiplicity was checked for finiteness, but repeated names merge
  // by addition and |K| sums every term: "ADD^1e308 ADD^1e308" merged to
  // an infinite multiplicity (served as IPC NaN) and "ADD^1e308 MUL^1e308"
  // had an infinite |K| (served as IPC inf).
  InstructionSet Isa = makeIsa();
  EXPECT_FALSE(Microkernel::parse("ADD^1e308 ADD^1e308", Isa).has_value());
  EXPECT_FALSE(Microkernel::parse("ADD^1e308 MUL^1e308", Isa).has_value());
  EXPECT_FALSE(
      Microkernel::parse("ADD^1e308 MUL^1e308 ADDSS^1e308", Isa).has_value());
  // Sums that stay finite still parse.
  auto K = Microkernel::parse("ADD^1e308 MUL^1e307 ADD", Isa);
  ASSERT_TRUE(K.has_value());
  EXPECT_EQ(K->multiplicity(0), 1e308 + 1.0);
  EXPECT_TRUE(std::isfinite(K->size()));
}

TEST(Microkernel, ParseRejectsEmbeddedNulRegression) {
  // strtod stops at a NUL, and the old parser's `*End == 0` check took the
  // NUL for the end of the token, so "ADD^2\0junk" parsed as ADD^2.
  InstructionSet Isa = makeIsa();
  EXPECT_FALSE(
      Microkernel::parse(std::string("ADD^2\0junk", 10), Isa).has_value());
  EXPECT_FALSE(Microkernel::parse(std::string("ADD^2\0", 6), Isa).has_value());
  EXPECT_FALSE(
      Microkernel::parse(std::string("ADD^0.5\0 MUL", 12), Isa).has_value());
  EXPECT_FALSE(Microkernel::parse(std::string("ADD\0^2", 6), Isa).has_value());
  EXPECT_TRUE(Microkernel::parse("ADD^2 MUL", Isa).has_value());
}

namespace {

/// The istringstream parser Microkernel::parse replaced, kept verbatim as
/// the reference, with its std::map name lookup.
std::optional<Microkernel>
referenceParse(const std::string &Text,
               const std::map<std::string, InstrId> &ByName) {
  Microkernel K;
  std::istringstream IS(Text);
  std::string Token;
  while (IS >> Token) {
    std::string Name = Token;
    double Mult = 1.0;
    size_t Caret = Token.find('^');
    if (Caret != std::string::npos) {
      Name = Token.substr(0, Caret);
      std::string MultStr = Token.substr(Caret + 1);
      char *End = nullptr;
      Mult = std::strtod(MultStr.c_str(), &End);
      if (End == MultStr.c_str() || *End != 0 || !std::isfinite(Mult) ||
          !(Mult > 0.0))
        return std::nullopt;
    }
    auto It = ByName.find(Name);
    if (It == ByName.end())
      return std::nullopt;
    K.add(It->second, Mult);
  }
  if (K.empty())
    return std::nullopt;
  return K;
}

bool sameTerms(const Microkernel &A, const Microkernel &B) {
  if (A.numDistinct() != B.numDistinct())
    return false;
  for (size_t I = 0; I != A.numDistinct(); ++I) {
    const Microkernel::Term &X = A.terms()[I], &Y = B.terms()[I];
    if (X.first != Y.first ||
        std::memcmp(&X.second, &Y.second, sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// True if some token of \p Text has a NUL after its first caret: the
/// multiplicity the reference parser cut short at the NUL.
bool hasNulInMultiplicity(const std::string &Text) {
  std::istringstream IS(Text);
  std::string Token;
  while (IS >> Token) {
    size_t Caret = Token.find('^');
    if (Caret != std::string::npos &&
        Token.find('\0', Caret) != std::string::npos)
      return true;
  }
  return false;
}

/// Parses \p Texts with both parsers and requires the same answer, bit for
/// bit, except where the reference accepted one of its two bugs: a NUL in
/// a multiplicity, or a merged multiplicity or |K| that overflowed.
/// Returns how many texts parsed and how many were a reference bug.
std::pair<size_t, size_t>
expectParsersAgree(const InstructionSet &Isa,
                   const std::vector<std::string> &Texts) {
  std::map<std::string, InstrId> ByName;
  for (InstrId Id = 0; Id != Isa.size(); ++Id)
    ByName.emplace(Isa.name(Id), Id);
  size_t Parsed = 0, Bugs = 0;
  for (const std::string &Text : Texts) {
    std::optional<Microkernel> Want = referenceParse(Text, ByName);
    std::optional<Microkernel> Got = Microkernel::parse(Text, Isa);
    std::string Shown = testing::PrintToString(Text);
    if (Want && !Got && (hasNulInMultiplicity(Text) ||
                         !std::isfinite(Want->size()))) {
      ++Bugs;
      continue;
    }
    EXPECT_EQ(Got.has_value(), Want.has_value()) << Shown;
    if (Got && Want) {
      EXPECT_TRUE(sameTerms(*Got, *Want)) << Shown;
    }
    Parsed += Got.has_value();
  }
  return {Parsed, Bugs};
}

std::vector<MachineModel> shippedMachines() {
  std::vector<MachineModel> Ms;
  Ms.push_back(makeFig1Machine());
  Ms.push_back(makeSklLike());
  Ms.push_back(makeZenLike());
  Ms.push_back(makeStressMachine(StressIsaConfig()));
  Ms.push_back(makeStressMachine(hugeStressConfig()));
  return Ms;
}

/// A seeded soup of kernel texts over \p Isa: ISA and unknown names, every
/// whitespace byte, carets anywhere, NULs, and multiplicity spellings
/// strtod accepts or rejects.
std::vector<std::string> tokenSoup(const InstructionSet &Isa, uint64_t Seed,
                                   size_t Count) {
  static const char *const Spaces[] = {" ", "\t", "\n", "\v", "\f", "\r"};
  static const char *const Mults[] = {
      "2", "1", "007", "0.5", "+2", "0x10", "1e1", ".5", "5.", "-2", "0",
      "inf", "nan", "1e-400", "2^3", "", "x", "1e308",
      "123456789012345",      // 15 digits: read exactly.
      "999999999999999",      //
      "000000000000000",      //
      "1234567890123456",     // 16 digits: strtod.
      "0000000000000001",     //
      "12345678901234567890", // 20 digits.
      "9007199254740993",     // 2^53 + 1: strtod rounds it.
  };
  static const char *const Unknown[] = {"NOPE", "", "add", "ADD_", "^"};
  Rng R(Seed);
  auto Pick = [&](size_t N) { return static_cast<size_t>(R.uniformInt(N)); };
  auto Space = [&] { return std::string(Spaces[Pick(6)]); };
  std::vector<std::string> Out;
  for (size_t T = 0; T < Count; ++T) {
    std::string Text;
    if (R.chance(0.2))
      Text += Space();
    for (size_t N = Pick(6); N > 0; --N) {
      std::string Token;
      if (R.chance(0.8)) {
        Token = Isa.name(static_cast<InstrId>(Pick(Isa.size())));
        if (R.chance(0.05)) // A prefix of a real name.
          Token.resize(Pick(Token.size()));
      } else {
        Token = Unknown[Pick(std::size(Unknown))];
      }
      if (R.chance(0.6))
        Token += std::string("^") + Mults[Pick(std::size(Mults))];
      if (R.chance(0.05))
        Token.insert(Pick(Token.size() + 1), 1, '^');
      if (R.chance(0.03))
        Token.insert(Pick(Token.size() + 1), 1, '\0');
      Text += Token;
      do
        Text += Space();
      while (R.chance(0.2));
    }
    if (!Text.empty() && R.chance(0.5))
      Text.pop_back(); // Often no trailing whitespace.
    Out.push_back(std::move(Text));
  }
  return Out;
}

} // namespace

TEST(Microkernel, ParseMatchesStreamParserOnGeneratedBlocks) {
  for (const MachineModel &M : shippedMachines()) {
    WorkloadConfig W;
    W.NumBlocks = 300;
    W.Seed = 7;
    std::vector<std::string> Texts;
    for (const BasicBlock &B : generateWorkload(M, W)) {
      Texts.push_back(B.K.str(M.isa()));
      // Fractional multiplicities, as str() prints them ("%.4g").
      Texts.push_back(B.K.scaled(0.37).str(M.isa()));
    }
    auto [Parsed, Bugs] = expectParsersAgree(M.isa(), Texts);
    EXPECT_EQ(Parsed, Texts.size());
    EXPECT_EQ(Bugs, 0u);
  }
}

TEST(Microkernel, ParseMatchesStreamParserOnTokenSoup) {
  size_t Parsed = 0, Bugs = 0, Total = 0;
  for (const MachineModel &M : shippedMachines()) {
    std::vector<std::string> Texts = tokenSoup(M.isa(), 11 + Total, 4000);
    // The two inputs the stream parser got wrong.
    Texts.push_back(M.isa().name(0) + "^1e308 " + M.isa().name(0) +
                    "^1e308");
    Texts.push_back(std::string(M.isa().name(0) + "^2") + '\0' + "junk");
    auto [P, B] = expectParsersAgree(M.isa(), Texts);
    Parsed += P;
    Bugs += B;
    Total += Texts.size();
  }
  // The soup must reach both answers and both bugs.
  EXPECT_GT(Parsed, Total / 20);
  EXPECT_LT(Parsed, Total - Total / 20);
  EXPECT_GE(Bugs, 10u);
}

TEST(InstructionSet, FindByNameOnNonPowerOfTwoSizes) {
  // The name index is an open-addressing table; a probe for a missing name
  // must stop at a free slot on every table size, not only full ones.
  EXPECT_EQ(InstructionSet().findByName("ADD"), InvalidInstr);
  EXPECT_EQ(InstructionSet().findByName(""), InvalidInstr);
  for (size_t N : {1u, 3u, 5u, 7u, 8u, 9u, 15u, 17u, 100u, 1000u, 1500u}) {
    InstructionSet Isa;
    std::map<std::string, InstrId> Want;
    for (size_t I = 0; I < N; ++I) {
      std::string Name = "OP" + std::to_string(I * 7919 % 100003);
      Want.emplace(Name, Isa.add({Name}));
    }
    ASSERT_EQ(Want.size(), N);
    for (const auto &[Name, Id] : Want) {
      ASSERT_EQ(Isa.findByName(Name), Id) << Name;
      EXPECT_EQ(Isa.findByName(Name + '\0'), InvalidInstr) << Name;
      EXPECT_EQ(Isa.findByName(Name + "X"), InvalidInstr) << Name;
      for (size_t Len = 0; Len < Name.size(); ++Len) {
        auto It = Want.find(Name.substr(0, Len));
        EXPECT_EQ(Isa.findByName(Name.substr(0, Len)),
                  It == Want.end() ? InvalidInstr : It->second)
            << Name.substr(0, Len);
      }
    }
  }
  for (const MachineModel &M : shippedMachines()) {
    const InstructionSet &Isa = M.isa();
    for (InstrId Id = 0; Id != Isa.size(); ++Id) {
      const std::string &Name = Isa.name(Id);
      ASSERT_EQ(Isa.findByName(Name), Id) << Name;
      EXPECT_EQ(Isa.findByName(Name + '\0'), InvalidInstr) << Name;
    }
    EXPECT_EQ(Isa.findByName(""), InvalidInstr);
  }
}
