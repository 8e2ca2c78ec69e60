//===- serve/MappingIO.cpp - Versioned on-disk mapping format -------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "serve/MappingIO.h"

#include "serve/ByteCodec.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace palmed;
using namespace palmed::serve;
using namespace palmed::serve::bytes;

namespace {

constexpr char Magic[8] = {'P', 'L', 'M', 'D', 'M', 'A', 'P', 'B'};

void setError(MappingIOError *Err, MappingIOStatus Status,
              std::string Message) {
  if (Err) {
    Err->Status = Status;
    Err->Message = std::move(Message);
  }
}

/// FNV-1a over a byte sequence, the primitive under machineDigest.
uint64_t fnv1a(uint64_t H, const void *Data, size_t Size) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t fnv1aStr(uint64_t H, const std::string &S) {
  H = fnv1a(H, S.data(), S.size());
  // Separator byte so {"ab","c"} and {"a","bc"} hash differently.
  unsigned char Sep = 0xff;
  return fnv1a(H, &Sep, 1);
}

/// Hashes an integer's low \p NumBytes as little-endian bytes, matching
/// the rest of the format, so the digest is identical across host
/// endiannesses (hashing raw host memory would not be).
uint64_t fnv1aUintLe(uint64_t H, uint64_t V, int NumBytes) {
  unsigned char Bytes[8];
  for (int I = 0; I < NumBytes; ++I)
    Bytes[I] = static_cast<unsigned char>((V >> (8 * I)) & 0xff);
  return fnv1a(H, Bytes, static_cast<size_t>(NumBytes));
}

} // namespace

const char *palmed::serve::mappingIOStatusName(MappingIOStatus Status) {
  switch (Status) {
  case MappingIOStatus::Ok:
    return "ok";
  case MappingIOStatus::IoError:
    return "io-error";
  case MappingIOStatus::BadMagic:
    return "bad-magic";
  case MappingIOStatus::BadVersion:
    return "bad-version";
  case MappingIOStatus::Truncated:
    return "truncated";
  case MappingIOStatus::BadChecksum:
    return "bad-checksum";
  case MappingIOStatus::MachineMismatch:
    return "machine-mismatch";
  case MappingIOStatus::Malformed:
    return "malformed";
  }
  return "unknown";
}

uint32_t palmed::serve::crc32(const void *Data, size_t Size) {
  // Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t Crc = 0xFFFFFFFFu;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I)
    Crc = Table[(Crc ^ P[I]) & 0xff] ^ (Crc >> 8);
  return Crc ^ 0xFFFFFFFFu;
}

uint64_t palmed::serve::machineDigest(const MachineModel &Machine) {
  uint64_t H = 0xcbf29ce484222325ULL;
  H = fnv1aStr(H, Machine.name());
  H = fnv1aUintLe(H, Machine.numPorts(), 4);
  for (unsigned P = 0; P < Machine.numPorts(); ++P)
    H = fnv1aStr(H, Machine.portName(P));
  H = fnv1aUintLe(H, Machine.numInstructions(), 8);
  for (InstrId Id = 0; Id < Machine.numInstructions(); ++Id)
    H = fnv1aStr(H, Machine.isa().name(Id));
  return H;
}

std::string palmed::serve::serializeMapping(const ResourceMapping &Mapping,
                                            const MachineModel &Machine) {
  // Payload: resources, ISA width, then one record per *mapped*
  // instruction (zero-edge records preserve markMapped instructions).
  std::string Payload;
  putU32(Payload, static_cast<uint32_t>(Mapping.numResources()));
  for (ResourceId R = 0; R < Mapping.numResources(); ++R) {
    putStr16(Payload, Mapping.resourceName(R));
    putF64(Payload, Mapping.resourceThroughput(R));
  }
  putU32(Payload, static_cast<uint32_t>(Mapping.numInstructions()));
  std::string Records;
  uint32_t NumMapped = 0;
  for (InstrId Id = 0; Id < Mapping.numInstructions(); ++Id) {
    if (!Mapping.isMapped(Id))
      continue;
    ++NumMapped;
    putU32(Records, static_cast<uint32_t>(Id));
    std::string Edges;
    uint32_t NumEdges = 0;
    for (ResourceId R = 0; R < Mapping.numResources(); ++R) {
      double V = Mapping.rho(Id, R);
      if (V == 0.0)
        continue;
      ++NumEdges;
      putU32(Edges, static_cast<uint32_t>(R));
      putF64(Edges, V);
    }
    putU32(Records, NumEdges);
    Records += Edges;
  }
  putU32(Payload, NumMapped);
  Payload += Records;

  std::string Out;
  Out.append(Magic, sizeof(Magic));
  putU32(Out, MappingFormatVersion);
  putStr16(Out, Machine.name());
  putU64(Out, machineDigest(Machine));
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  putU32(Out, crc32(Payload.data(), Payload.size()));
  Out += Payload;
  return Out;
}

std::optional<ResourceMapping>
palmed::serve::deserializeMapping(const std::string &Bytes,
                                  const MachineModel &Machine,
                                  MappingIOError *Err) {
  if (Bytes.size() < sizeof(Magic)) {
    setError(Err, MappingIOStatus::Truncated,
             "file shorter than the 8-byte magic");
    return std::nullopt;
  }
  if (std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0) {
    setError(Err, MappingIOStatus::BadMagic,
             "not a palmed binary mapping file");
    return std::nullopt;
  }

  Reader Header(Bytes, sizeof(Magic));
  uint32_t Version = Header.u32();
  if (!Header.fail() && Version != MappingFormatVersion) {
    setError(Err, MappingIOStatus::BadVersion,
             "unsupported mapping format version " +
                 std::to_string(Version) + " (this build reads version " +
                 std::to_string(MappingFormatVersion) + ")");
    return std::nullopt;
  }
  std::string MachineName = Header.str16();
  uint64_t Digest = Header.u64();
  uint32_t PayloadSize = Header.u32();
  uint32_t PayloadCrc = Header.u32();
  if (Header.fail()) {
    setError(Err, MappingIOStatus::Truncated,
             "file ends inside the mapping header");
    return std::nullopt;
  }
  // Digest before the payload-length checks: a wrong-machine file should
  // say so even when it is also shorter/longer than this machine expects.
  if (Digest != machineDigest(Machine)) {
    setError(Err, MappingIOStatus::MachineMismatch,
             "mapping was saved for machine '" + MachineName +
                 "' (digest mismatch with '" + Machine.name() + "')");
    return std::nullopt;
  }
  if (Bytes.size() - Header.pos() < PayloadSize) {
    setError(Err, MappingIOStatus::Truncated,
             "payload declares " + std::to_string(PayloadSize) +
                 " bytes but only " +
                 std::to_string(Bytes.size() - Header.pos()) +
                 " are present");
    return std::nullopt;
  }
  if (crc32(Bytes.data() + Header.pos(), PayloadSize) != PayloadCrc) {
    setError(Err, MappingIOStatus::BadChecksum,
             "payload CRC32 mismatch (corrupted mapping file)");
    return std::nullopt;
  }

  Reader R(Bytes, Header.pos());
  auto Malformed = [&](const char *What) -> std::optional<ResourceMapping> {
    setError(Err, MappingIOStatus::Malformed,
             std::string("malformed mapping payload: ") + What);
    return std::nullopt;
  };

  ResourceMapping M(Machine.numInstructions());
  uint32_t NumResources = R.u32();
  for (uint32_t I = 0; I < NumResources && !R.fail(); ++I) {
    std::string Name = R.str16();
    double Throughput = R.f64();
    if (R.fail() || Throughput <= 0.0)
      return Malformed("bad resource record");
    M.addResource(std::move(Name), Throughput);
  }
  uint32_t NumInstructions = R.u32();
  if (R.fail())
    return Malformed("unreadable resource table");
  if (NumInstructions != Machine.numInstructions())
    return Malformed("instruction-space size mismatch");
  uint32_t NumMapped = R.u32();
  for (uint32_t I = 0; I < NumMapped && !R.fail(); ++I) {
    uint32_t Id = R.u32();
    uint32_t NumEdges = R.u32();
    if (R.fail() || Id >= NumInstructions)
      return Malformed("bad instruction record");
    M.markMapped(Id);
    for (uint32_t E = 0; E < NumEdges; ++E) {
      uint32_t Res = R.u32();
      double V = R.f64();
      if (R.fail() || Res >= NumResources || V < 0.0)
        return Malformed("bad usage edge");
      M.setUsage(Id, Res, V);
    }
  }
  if (R.fail())
    return Malformed("payload ends inside a record");
  setError(Err, MappingIOStatus::Ok, "");
  return M;
}

bool palmed::serve::saveMapping(const std::string &Path,
                                const ResourceMapping &Mapping,
                                const MachineModel &Machine,
                                MappingIOError *Err) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  if (!OS) {
    setError(Err, MappingIOStatus::IoError,
             "cannot open '" + Path + "' for writing");
    return false;
  }
  std::string Bytes = serializeMapping(Mapping, Machine);
  OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  OS.flush();
  if (!OS.good()) {
    setError(Err, MappingIOStatus::IoError, "failed writing '" + Path + "'");
    return false;
  }
  setError(Err, MappingIOStatus::Ok, "");
  return true;
}

namespace {

std::optional<std::string> readFile(const std::string &Path,
                                    MappingIOError *Err) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    setError(Err, MappingIOStatus::IoError, "cannot open '" + Path + "'");
    return std::nullopt;
  }
  std::ostringstream Buffer;
  Buffer << IS.rdbuf();
  if (IS.bad()) {
    setError(Err, MappingIOStatus::IoError, "failed reading '" + Path + "'");
    return std::nullopt;
  }
  return Buffer.str();
}

} // namespace

std::optional<ResourceMapping>
palmed::serve::loadMapping(const std::string &Path,
                           const MachineModel &Machine, MappingIOError *Err) {
  auto Bytes = readFile(Path, Err);
  if (!Bytes)
    return std::nullopt;
  return deserializeMapping(*Bytes, Machine, Err);
}

std::optional<ResourceMapping>
palmed::serve::deserializeMappingAuto(const std::string &Bytes,
                                      const MachineModel &Machine,
                                      MappingIOError *Err) {
  if (Bytes.size() >= sizeof(Magic) &&
      std::memcmp(Bytes.data(), Magic, sizeof(Magic)) == 0)
    return deserializeMapping(Bytes, Machine, Err);
  // Legacy line-oriented text format.
  auto M = ResourceMapping::fromText(Bytes, Machine.isa());
  if (!M) {
    setError(Err, MappingIOStatus::Malformed,
             "neither a binary nor a text mapping");
    return std::nullopt;
  }
  setError(Err, MappingIOStatus::Ok, "");
  return M;
}

std::optional<ResourceMapping>
palmed::serve::loadMappingAuto(const std::string &Path,
                               const MachineModel &Machine,
                               MappingIOError *Err) {
  auto Bytes = readFile(Path, Err);
  if (!Bytes)
    return std::nullopt;
  auto M = deserializeMappingAuto(*Bytes, Machine, Err);
  if (!M && Err && Err->Status == MappingIOStatus::Malformed &&
      Err->Message == "neither a binary nor a text mapping")
    Err->Message =
        "'" + Path + "' is neither a binary nor a text mapping file";
  return M;
}
