//===- fuzz/gen_corpus.cpp - Regenerate the checked-in seed corpora -------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
//
// Writes the seed corpora for fuzz_mapping_io and fuzz_protocol under the
// directory given as argv[1] (corpus/mapping_io and corpus/protocol).
// Seeds are derived from real artifacts — a genuine serialized fig1
// mapping, its legacy text form, and well-formed protocol frames — plus a
// few structured near-misses (truncations, corruptions, hostile declared
// counts) so even non-coverage-guided replay exercises the deep paths.
//
// Deterministic: running it twice produces byte-identical files, so the
// checked-in corpus can be audited with `git diff` after regeneration.
//
//===----------------------------------------------------------------------===//

#include "core/DualConstruction.h"
#include "machine/StandardMachines.h"
#include "serve/MappingIO.h"
#include "serve/Protocol.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

using namespace palmed;
using namespace palmed::serve;

namespace {

void writeFile(const std::filesystem::path &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  if (!OS.good()) {
    std::fprintf(stderr, "failed writing %s\n", Path.c_str());
    std::exit(1);
  }
}

void putU32At(std::string &Bytes, size_t Pos, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Bytes[Pos + static_cast<size_t>(I)] =
        static_cast<char>((V >> (8 * I)) & 0xff);
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  fs::path Root(argv[1]);
  fs::create_directories(Root / "mapping_io");
  fs::create_directories(Root / "protocol");

  MachineModel M = makeFig1Machine();
  ResourceMapping Mapping = buildDualMapping(M);

  // --- mapping_io: the loadMappingAuto byte surface. ---
  std::string Binary = serializeMapping(Mapping, M);
  writeFile(Root / "mapping_io" / "fig1_binary.palmedmap", Binary);
  writeFile(Root / "mapping_io" / "fig1_text.mapping", Mapping.toText(M.isa()));
  writeFile(Root / "mapping_io" / "truncated_header.palmedmap",
            Binary.substr(0, 14));
  writeFile(Root / "mapping_io" / "truncated_payload.palmedmap",
            Binary.substr(0, Binary.size() - 7));
  std::string Corrupt = Binary;
  Corrupt[Corrupt.size() / 2] =
      static_cast<char>(Corrupt[Corrupt.size() / 2] ^ 0x40);
  writeFile(Root / "mapping_io" / "corrupt_payload.palmedmap", Corrupt);
  std::string BadVersion = Binary;
  putU32At(BadVersion, 8, MappingFormatVersion + 7); // Version follows magic.
  writeFile(Root / "mapping_io" / "bad_version.palmedmap", BadVersion);
  writeFile(Root / "mapping_io" / "text_header_only.mapping",
            "palmed-mapping v1\nresources 0\n");
  writeFile(Root / "mapping_io" / "text_bad_edge.mapping",
            "palmed-mapping v1\nresources 1\nresource r0 1.5\n"
            "instr ADDSS 0:nan\n");

  // --- protocol: frame payloads for the server-side dispatch. ---
  QueryRequest Query;
  Query.Machine = "fig1";
  Query.Kernels = {"ADDSS", "ADDSS^2 VCVTT", "DIVPS JMP^0.5"};
  writeFile(Root / "protocol" / "query_fig1.bin", encodeQueryRequest(Query));
  QueryRequest Hostile;
  Hostile.Machine = "fig1";
  Hostile.Kernels = {"", "NO_SUCH_INSTR", "ADDSS^0", "ADDSS^inf",
                     "ADDSS^nan", "^2", "ADDSS^-1",
                     // Finite terms whose merged multiplicity or |K|
                     // overflows, and a NUL inside a multiplicity.
                     "ADDSS^1e308 ADDSS^1e308", "ADDSS^1e308 VCVTT^1e308",
                     std::string("ADDSS^2\0junk", 12)};
  writeFile(Root / "protocol" / "query_hostile_kernels.bin",
            encodeQueryRequest(Hostile));
  QueryRequest Unknown;
  Unknown.Machine = "no-such-machine";
  Unknown.Kernels = {"ADDSS"};
  writeFile(Root / "protocol" / "query_unknown_machine.bin",
            encodeQueryRequest(Unknown));
  writeFile(Root / "protocol" / "stats.bin", encodeStatsRequest());
  writeFile(Root / "protocol" / "list.bin", encodeListRequest());
  writeFile(Root / "protocol" / "error_as_request.bin",
            encodeErrorResponse({"client sent a response type"}));
  // The declared-count bomb: 16 bytes claiming 2^32-1 kernel records.
  // Kept as a seed so the reserve-clamp regression is replayed on every
  // corpus run (see ServeProtocol.QueryRequestDeclaredCountBombRegression).
  std::string Bomb = encodeQueryRequest({/*Machine=*/"fig1", /*Kernels=*/{}});
  putU32At(Bomb, Bomb.size() - 4, 0xFFFFFFFFu);
  writeFile(Root / "protocol" / "query_count_bomb.bin", Bomb);
  writeFile(Root / "protocol" / "empty.bin", "");
  writeFile(Root / "protocol" / "unknown_type.bin", "\x2a");

  std::printf("corpora written under %s\n", Root.c_str());
  return 0;
}
