//===- isa/InstructionSet.cpp - Instruction registry ----------------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "isa/InstructionSet.h"

#include <algorithm>

using namespace palmed;

const char *palmed::categoryName(InstrCategory Cat) {
  switch (Cat) {
  case InstrCategory::IntAlu:
    return "int-alu";
  case InstrCategory::IntMul:
    return "int-mul";
  case InstrCategory::IntDiv:
    return "int-div";
  case InstrCategory::Shift:
    return "shift";
  case InstrCategory::Branch:
    return "branch";
  case InstrCategory::Load:
    return "load";
  case InstrCategory::Store:
    return "store";
  case InstrCategory::AddressGen:
    return "agu";
  case InstrCategory::FpAdd:
    return "fp-add";
  case InstrCategory::FpMul:
    return "fp-mul";
  case InstrCategory::FpDiv:
    return "fp-div";
  case InstrCategory::VecInt:
    return "vec-int";
  case InstrCategory::VecShuffle:
    return "vec-shuffle";
  case InstrCategory::Other:
    return "other";
  }
  return "unknown";
}

const char *palmed::extClassName(ExtClass Ext) {
  switch (Ext) {
  case ExtClass::Base:
    return "base";
  case ExtClass::Sse:
    return "sse";
  case ExtClass::Avx:
    return "avx";
  case ExtClass::Avx512:
    return "avx512";
  case ExtClass::Mmx:
    return "mmx";
  case ExtClass::X87:
    return "x87";
  }
  return "unknown";
}

namespace {

/// 64-bit FNV-1a: fixed across platforms and runs, so the probe order,
/// like everything else here, is deterministic.
uint64_t hashName(std::string_view Name) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

} // namespace

InstrId InstructionSet::add(InstrInfo Info) {
  assert(findByName(Info.Name) == InvalidInstr && "duplicate name");
  InstrId Id = static_cast<InstrId>(Infos.size());
  Infos.push_back(std::move(Info));
  if (2 * Infos.size() > Slots.size()) {
    Slots.assign(std::max<size_t>(16, 2 * Slots.size()), InvalidInstr);
    for (InstrId Old = 0; Old != Infos.size(); ++Old)
      index(Old);
  } else {
    index(Id);
  }
  return Id;
}

void InstructionSet::index(InstrId Id) {
  size_t Mask = Slots.size() - 1;
  size_t S = static_cast<size_t>(hashName(Infos[Id].Name)) & Mask;
  while (Slots[S] != InvalidInstr)
    S = (S + 1) & Mask;
  Slots[S] = Id;
}

InstrId InstructionSet::findByName(std::string_view Name) const {
  if (Slots.empty())
    return InvalidInstr;
  size_t Mask = Slots.size() - 1;
  for (size_t S = static_cast<size_t>(hashName(Name)) & Mask;;
       S = (S + 1) & Mask) {
    InstrId Id = Slots[S];
    if (Id == InvalidInstr || Infos[Id].Name == Name)
      return Id;
  }
}

std::vector<InstrId> InstructionSet::allIds() const {
  std::vector<InstrId> Ids(size());
  for (size_t I = 0; I != Ids.size(); ++I)
    Ids[I] = static_cast<InstrId>(I);
  return Ids;
}
