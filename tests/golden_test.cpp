//===- tests/golden_test.cpp - Committed mapping digests -------------------===//
//
// Part of the PALMED reproduction.
//
// Maps the shipped machine profiles cold, as `palmed_cli map` does, and
// compares each mapping against committed constants: the FNV-1a-64 of its
// binary serialization and its resource count. The other determinism
// tests compare two runs inside one binary, so a change that moves every
// run alike (a solver edit, a compiler flag such as FP contraction, a new
// -march level) passes them; these constants catch it. The skl, zen,
// stress and huge values equal perfbench/goldens.json. Each map must also
// skip every shape search (the clique bound proves each greedy shape
// optimal), so losing the bound shows up as a count, not only as time.
//
// A deliberate mapping change updates the constants below and
// perfbench/goldens.json together, from the digests the failing test
// prints.
//
//===----------------------------------------------------------------------===//

#include "palmed/palmed.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

using namespace palmed;

namespace {

uint64_t fnv1a64(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Bytes)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  return H;
}

std::string hex64(uint64_t X) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, X);
  return Buf;
}

/// Maps \p Machine with the default configuration (pair pruning and
/// execution policy as given) and checks the digest, the resource count
/// and that no shape search ran.
void expectGolden(const MachineModel &Machine, bool PairPruning,
                  const char *Digest, size_t Resources,
                  ExecutionPolicy Execution = ExecutionPolicy::serial()) {
  AnalyticOracle Oracle(Machine);
  BenchmarkRunner Runner(Machine, Oracle);
  PalmedConfig Cfg;
  Cfg.Selection.ClusterPairPruning = PairPruning;
  Cfg.Execution = Execution;
  Pipeline P(Runner, Cfg);
  const PalmedResult &R = P.run();
  EXPECT_EQ(hex64(fnv1a64(serve::serializeMapping(R.Mapping, Machine))),
            Digest)
      << Machine.name() << " mapping digest";
  EXPECT_EQ(R.Stats.NumResources, Resources) << Machine.name();
  EXPECT_EQ(R.Stats.ShapeSearchNodes, 0u) << Machine.name();
}

} // namespace

TEST(GoldenMapping, Fig1) {
  expectGolden(makeFig1Machine(), false, "a5bd4c2c404f9553", 6);
}

TEST(GoldenMapping, Skl) {
  expectGolden(makeSklLike(), false, "082c33c14f5f83dc", 40);
}

TEST(GoldenMapping, SklParallel4) {
  expectGolden(makeSklLike(), false, "082c33c14f5f83dc", 40,
               ExecutionPolicy::parallel(4));
}

TEST(GoldenMapping, Zen) {
  expectGolden(makeZenLike(), false, "ef17c1b2dbabbe08", 22);
}

TEST(GoldenMapping, Stress) {
  expectGolden(makeStressMachine(StressIsaConfig()), false, "319989d0c2d2bcfb",
               23);
}

// huge maps with cluster-first pair pruning, its `palmed_cli map` default.
TEST(GoldenMapping, Huge) {
  expectGolden(makeStressMachine(hugeStressConfig()), true, "49d8c0ac925598fd",
               56);
}

TEST(GoldenMapping, HugeParallel4) {
  expectGolden(makeStressMachine(hugeStressConfig()), true, "49d8c0ac925598fd",
               56, ExecutionPolicy::parallel(4));
}
