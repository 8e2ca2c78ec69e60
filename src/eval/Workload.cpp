//===- eval/Workload.cpp - Synthetic basic-block workloads ----------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "eval/Workload.h"

#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace palmed;

const char *palmed::workloadProfileName(WorkloadProfile Profile) {
  switch (Profile) {
  case WorkloadProfile::SpecLike:
    return "SPEC2017-like";
  case WorkloadProfile::PolybenchLike:
    return "Polybench-like";
  }
  return "unknown";
}

namespace {

/// Category weights per profile; categories absent from the machine are
/// renormalized away.
std::map<InstrCategory, double> profileMix(WorkloadProfile Profile) {
  switch (Profile) {
  case WorkloadProfile::SpecLike:
    return {
        {InstrCategory::IntAlu, 0.30},     {InstrCategory::Load, 0.20},
        {InstrCategory::Store, 0.08},      {InstrCategory::Branch, 0.12},
        {InstrCategory::Shift, 0.06},      {InstrCategory::IntMul, 0.05},
        {InstrCategory::AddressGen, 0.07}, {InstrCategory::IntDiv, 0.02},
        {InstrCategory::FpAdd, 0.03},      {InstrCategory::FpMul, 0.03},
        {InstrCategory::VecInt, 0.02},     {InstrCategory::VecShuffle, 0.01},
        {InstrCategory::FpDiv, 0.005},     {InstrCategory::Other, 0.005},
    };
  case WorkloadProfile::PolybenchLike:
    return {
        {InstrCategory::FpAdd, 0.18},      {InstrCategory::FpMul, 0.18},
        {InstrCategory::VecInt, 0.10},     {InstrCategory::VecShuffle, 0.05},
        {InstrCategory::Load, 0.20},       {InstrCategory::Store, 0.07},
        {InstrCategory::AddressGen, 0.08}, {InstrCategory::IntAlu, 0.07},
        {InstrCategory::Branch, 0.04},     {InstrCategory::IntMul, 0.01},
        {InstrCategory::FpDiv, 0.01},      {InstrCategory::Other, 0.01},
    };
  }
  return {};
}

} // namespace

std::vector<BasicBlock>
palmed::generateWorkload(const MachineModel &Machine,
                         const WorkloadConfig &Config) {
  const InstructionSet &Isa = Machine.isa();
  Rng R(Config.Seed);

  // Index instructions by (category, extension class).
  std::map<InstrCategory, std::vector<InstrId>> Scalar, Sse, Avx;
  for (InstrId Id = 0; Id < Machine.numInstructions(); ++Id) {
    const InstrInfo &Info = Isa.info(Id);
    switch (Info.Ext) {
    case ExtClass::Base:
    case ExtClass::Mmx:
    case ExtClass::X87:
      // Legacy classes ride the scalar bucket: no mixing rule applies and
      // the workload profiles only distinguish scalar vs SSE vs AVX mixes.
      Scalar[Info.Category].push_back(Id);
      break;
    case ExtClass::Sse:
      Sse[Info.Category].push_back(Id);
      break;
    case ExtClass::Avx:
    case ExtClass::Avx512:
      Avx[Info.Category].push_back(Id);
      break;
    }
  }

  std::map<InstrCategory, double> Mix = profileMix(Config.Profile);
  std::vector<InstrCategory> Categories;
  std::vector<double> Weights;
  for (const auto &[Cat, W] : Mix) {
    bool Present = Scalar.count(Cat) || Sse.count(Cat) || Avx.count(Cat);
    if (!Present)
      continue;
    Categories.push_back(Cat);
    Weights.push_back(W);
  }
  assert(!Categories.empty() && "machine has no usable categories");

  ZipfSampler Zipf(Config.NumBlocks, Config.ZipfExponent);
  std::vector<BasicBlock> Blocks;
  Blocks.reserve(Config.NumBlocks);
  while (Blocks.size() < Config.NumBlocks) {
    // Per-block vector flavor, as produced by one compilation mode.
    bool Mixed = R.chance(Config.MixedFlavorProbability);
    bool UseAvx = R.chance(0.4);

    auto PickFrom = [&](InstrCategory Cat) -> InstrId {
      // Vector categories draw from the block's flavor; scalar categories
      // from the base ISA; fall back across classes when a class lacks the
      // category.
      std::vector<const std::vector<InstrId> *> Sources;
      bool AvxNow = Mixed ? R.chance(0.5) : UseAvx;
      if (AvxNow) {
        Sources = {&Avx[Cat], &Sse[Cat], &Scalar[Cat]};
      } else {
        Sources = {&Sse[Cat], &Avx[Cat], &Scalar[Cat]};
      }
      if (Scalar.count(Cat) && !Scalar[Cat].empty())
        Sources.insert(Sources.begin(), &Scalar[Cat]);
      for (const auto *Src : Sources)
        if (!Src->empty())
          return (*Src)[R.uniformInt(Src->size())];
      return InvalidInstr;
    };

    int Distinct = static_cast<int>(
        R.uniformIntIn(Config.MinDistinct, Config.MaxDistinct));
    Microkernel K;
    for (int D = 0; D < Distinct; ++D) {
      InstrCategory Cat = Categories[R.pickWeighted(Weights)];
      InstrId Id = PickFrom(Cat);
      if (Id == InvalidInstr)
        continue;
      K.add(Id, static_cast<double>(
                    R.uniformIntIn(1, Config.MaxMultiplicity)));
    }
    if (K.empty())
      continue;
    BasicBlock B;
    B.K = std::move(K);
    B.Weight = 1.0 / static_cast<double>(Zipf.draw(R));
    Blocks.push_back(std::move(B));
  }
  return Blocks;
}
