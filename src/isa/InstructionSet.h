//===- isa/InstructionSet.h - Instruction registry --------------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registry of the instructions of a target; the dense InstrId space shared
/// by the machine model, the oracles and the mapping algorithms.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_ISA_INSTRUCTIONSET_H
#define PALMED_ISA_INSTRUCTIONSET_H

#include "isa/Instruction.h"

#include <cassert>
#include <string_view>
#include <vector>

namespace palmed {

/// Append-only instruction registry with hashed name lookup.
class InstructionSet {
public:
  /// Registers \p Info; names must be unique.
  InstrId add(InstrInfo Info);

  size_t size() const { return Infos.size(); }

  const InstrInfo &info(InstrId Id) const {
    assert(Id < Infos.size() && "instruction id out of range");
    return Infos[Id];
  }

  const std::string &name(InstrId Id) const { return info(Id).Name; }

  /// Returns the id for \p Name, or InvalidInstr if unknown. Never
  /// allocates: kernel parsing probes it with views into the text.
  InstrId findByName(std::string_view Name) const;

  /// All ids, in registration order.
  std::vector<InstrId> allIds() const;

private:
  /// Inserts \p Id into Slots (which has a free slot).
  void index(InstrId Id);

  std::vector<InstrInfo> Infos;
  /// Name index: open addressing with linear probing over a power-of-two
  /// table of ids, InvalidInstr marking a free slot. The table is kept at
  /// most half full, so every probe sequence reaches a free slot.
  std::vector<InstrId> Slots;
};

} // namespace palmed

#endif // PALMED_ISA_INSTRUCTIONSET_H
