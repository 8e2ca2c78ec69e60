//===- tests/serve_test.cpp - Serving subsystem tests ---------------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
//
// Covers the serving subsystem end to end: the versioned binary mapping
// format (bit-identical round trips, typed rejection of every corruption
// mode), the wire protocol codecs, the sharded prediction cache, and the
// daemon itself over a real AF_UNIX socket with concurrent client
// sessions against multiple machines. Concurrency tests carry "Serve" in
// the suite name so the CI TSan job picks them up by regex.
//
//===----------------------------------------------------------------------===//

#include "core/DualConstruction.h"
#include "eval/Workload.h"
#include "machine/StandardMachines.h"
#include "machine/SyntheticIsa.h"
#include "serve/Client.h"
#include "serve/MappingIO.h"
#include "serve/PredictionCache.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

using namespace palmed;
using namespace palmed::serve;

namespace {

/// Kernels with single instructions, pairs, and fractional multiplicities
/// over the first few instructions of \p M's ISA.
std::vector<Microkernel> probeKernels(const MachineModel &M) {
  std::vector<Microkernel> Out;
  size_t N = std::min<size_t>(M.isa().size(), 8);
  for (size_t I = 0; I < N; ++I)
    Out.push_back(Microkernel::single(static_cast<InstrId>(I)));
  for (size_t I = 0; I + 1 < N; ++I) {
    Microkernel K;
    K.add(static_cast<InstrId>(I), 2.0);
    K.add(static_cast<InstrId>(I + 1), 0.5);
    Out.push_back(K);
  }
  return Out;
}

/// Exact-bits comparison: the round-trip criterion is byte equality of
/// predictions, not approximate equality.
bool sameBits(double A, double B) {
  uint64_t Ba, Bb;
  std::memcpy(&Ba, &A, sizeof(Ba));
  std::memcpy(&Bb, &B, sizeof(Bb));
  return Ba == Bb;
}

std::string tempPath(const std::string &Leaf) {
  return testing::TempDir() + "/" + Leaf;
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(OS.is_open());
  OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

//===----------------------------------------------------------------------===//
// MappingIO: the binary format.
//===----------------------------------------------------------------------===//

TEST(ServeMappingIO, Crc32KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(ServeMappingIO, RoundTripIsBitIdentical) {
  // skl, zen, and stress duals: fractional rhos, hundreds of
  // instructions, multi-µop entries.
  std::vector<MachineModel> Machines;
  Machines.push_back(makeSklLike());
  Machines.push_back(makeZenLike());
  Machines.push_back(makeStressMachine(StressIsaConfig()));
  for (const MachineModel &M : Machines) {
    ResourceMapping Mapping = buildDualMapping(M);
    std::string Bytes = serializeMapping(Mapping, M);
    MappingIOError Err;
    auto Reloaded = deserializeMapping(Bytes, M, &Err);
    ASSERT_TRUE(Reloaded) << M.name() << ": " << Err.Message;
    EXPECT_EQ(Reloaded->toText(M.isa()), Mapping.toText(M.isa()))
        << M.name();
    for (const Microkernel &K : probeKernels(M)) {
      auto A = Mapping.predictIpc(K);
      auto B = Reloaded->predictIpc(K);
      ASSERT_EQ(A.has_value(), B.has_value()) << M.name();
      if (A) {
        EXPECT_TRUE(sameBits(*A, *B))
            << M.name() << ": " << K.str(M.isa());
      }
    }
    // Re-serializing the reloaded mapping reproduces the exact file.
    EXPECT_EQ(serializeMapping(*Reloaded, M), Bytes) << M.name();
  }
}

TEST(ServeMappingIO, SaveLoadThroughFile) {
  MachineModel M = makeFig1Machine();
  ResourceMapping Mapping = buildDualMapping(M);
  std::string Path = tempPath("fig1_roundtrip.palmedmap");
  MappingIOError Err;
  ASSERT_TRUE(saveMapping(Path, Mapping, M, &Err)) << Err.Message;
  auto Reloaded = loadMapping(Path, M, &Err);
  ASSERT_TRUE(Reloaded) << Err.Message;
  EXPECT_EQ(Reloaded->toText(M.isa()), Mapping.toText(M.isa()));
  std::remove(Path.c_str());
}

TEST(ServeMappingIO, PartiallyMappedRoundTrip) {
  // Unmapped instructions must stay unmapped after a round trip (the
  // mapped flag is data, not derivable from the rho row).
  MachineModel M = makeFig1Machine();
  ResourceMapping Mapping(M.isa().size());
  ResourceId R = Mapping.addResource("r0", 2.0);
  Mapping.setUsage(0, R, 0.5);
  Mapping.markMapped(1); // Mapped with an all-zero row.
  auto Reloaded = deserializeMapping(serializeMapping(Mapping, M), M);
  ASSERT_TRUE(Reloaded);
  EXPECT_TRUE(Reloaded->isMapped(0));
  EXPECT_TRUE(Reloaded->isMapped(1));
  for (InstrId I = 2; I < M.isa().size(); ++I)
    EXPECT_FALSE(Reloaded->isMapped(I));
  EXPECT_EQ(Reloaded->resourceThroughput(R), 2.0);
}

TEST(ServeMappingIO, RejectsTruncatedFile) {
  MachineModel M = makeFig1Machine();
  std::string Bytes = serializeMapping(buildDualMapping(M), M);
  // Chop inside the payload and inside the header.
  for (size_t Keep : {Bytes.size() - 1, Bytes.size() / 2, size_t(10)}) {
    MappingIOError Err;
    auto R = deserializeMapping(Bytes.substr(0, Keep), M, &Err);
    EXPECT_FALSE(R) << "kept " << Keep;
    EXPECT_EQ(Err.Status, MappingIOStatus::Truncated) << "kept " << Keep;
  }
}

TEST(ServeMappingIO, RejectsChecksumCorruption) {
  MachineModel M = makeFig1Machine();
  std::string Bytes = serializeMapping(buildDualMapping(M), M);
  // Flip one bit in the last payload byte.
  std::string Bad = Bytes;
  Bad.back() = static_cast<char>(Bad.back() ^ 0x01);
  MappingIOError Err;
  EXPECT_FALSE(deserializeMapping(Bad, M, &Err));
  EXPECT_EQ(Err.Status, MappingIOStatus::BadChecksum);
}

TEST(ServeMappingIO, RejectsWrongVersion) {
  MachineModel M = makeFig1Machine();
  std::string Bytes = serializeMapping(buildDualMapping(M), M);
  // The u32 format version sits right after the 8-byte magic.
  std::string Bad = Bytes;
  Bad[8] = static_cast<char>(MappingFormatVersion + 1);
  MappingIOError Err;
  EXPECT_FALSE(deserializeMapping(Bad, M, &Err));
  EXPECT_EQ(Err.Status, MappingIOStatus::BadVersion);
}

TEST(ServeMappingIO, RejectsWrongMachine) {
  MachineModel Skl = makeSklLike();
  MachineModel Zen = makeZenLike();
  ASSERT_NE(machineDigest(Skl), machineDigest(Zen));
  std::string Bytes = serializeMapping(buildDualMapping(Skl), Skl);
  MappingIOError Err;
  EXPECT_FALSE(deserializeMapping(Bytes, Zen, &Err));
  EXPECT_EQ(Err.Status, MappingIOStatus::MachineMismatch);
}

TEST(ServeMappingIO, RejectsBadMagic) {
  MachineModel M = makeFig1Machine();
  MappingIOError Err;
  EXPECT_FALSE(deserializeMapping("definitely not a mapping", M, &Err));
  EXPECT_EQ(Err.Status, MappingIOStatus::BadMagic);
}

TEST(ServeMappingIO, AutoLoadAcceptsTextFallback) {
  MachineModel M = makeFig1Machine();
  ResourceMapping Mapping = buildDualMapping(M);
  std::string Path = tempPath("fig1_text.mapping");
  writeFile(Path, Mapping.toText(M.isa()));
  MappingIOError Err;
  auto R = loadMappingAuto(Path, M, &Err);
  ASSERT_TRUE(R) << Err.Message;
  EXPECT_EQ(R->toText(M.isa()), Mapping.toText(M.isa()));

  // Unparseable text reports Malformed; a missing file reports IoError.
  writeFile(Path, "not a mapping at all\n");
  EXPECT_FALSE(loadMappingAuto(Path, M, &Err));
  EXPECT_EQ(Err.Status, MappingIOStatus::Malformed);
  std::remove(Path.c_str());
  EXPECT_FALSE(loadMappingAuto(Path, M, &Err));
  EXPECT_EQ(Err.Status, MappingIOStatus::IoError);
}

//===----------------------------------------------------------------------===//
// Protocol codecs.
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, QueryRoundTrip) {
  QueryRequest Req;
  Req.Machine = "skl";
  Req.Kernels = {"ADD_0", "ADD_0^2 LOAD_0", ""};
  auto Decoded = decodeQueryRequest(encodeQueryRequest(Req));
  ASSERT_TRUE(Decoded);
  EXPECT_EQ(Decoded->Machine, Req.Machine);
  EXPECT_EQ(Decoded->Kernels, Req.Kernels);

  QueryResponse Resp;
  KernelAnswer A;
  A.S = KernelAnswer::Status::Ok;
  A.Ipc = 3.14159;
  A.Bottlenecks = {"r01", "r0"};
  Resp.Answers.push_back(A);
  A.S = KernelAnswer::Status::ParseError;
  A.Ipc = 0.0;
  A.Bottlenecks.clear();
  Resp.Answers.push_back(A);
  auto DecodedResp = decodeQueryResponse(encodeQueryResponse(Resp));
  ASSERT_TRUE(DecodedResp);
  ASSERT_EQ(DecodedResp->Answers.size(), 2u);
  EXPECT_EQ(DecodedResp->Answers[0].S, KernelAnswer::Status::Ok);
  EXPECT_TRUE(sameBits(DecodedResp->Answers[0].Ipc, 3.14159));
  EXPECT_EQ(DecodedResp->Answers[0].Bottlenecks,
            (std::vector<std::string>{"r01", "r0"}));
  EXPECT_EQ(DecodedResp->Answers[1].S, KernelAnswer::Status::ParseError);
}

TEST(ServeProtocol, RejectsMalformedPayloads) {
  QueryRequest Req;
  Req.Machine = "skl";
  Req.Kernels = {"ADD_0"};
  std::string Bytes = encodeQueryRequest(Req);
  // Truncations and trailing garbage must both fail to decode.
  for (size_t Keep = 0; Keep < Bytes.size(); ++Keep)
    EXPECT_FALSE(decodeQueryRequest(Bytes.substr(0, Keep)))
        << "kept " << Keep;
  EXPECT_FALSE(decodeQueryRequest(Bytes + "x"));
  // A different message type is not a query request.
  EXPECT_FALSE(decodeQueryRequest(encodeStatsRequest()));
  EXPECT_TRUE(decodeQueryRequest(Bytes));

  EXPECT_FALSE(peekType(""));
  EXPECT_FALSE(peekType(std::string(1, '\x63')));
  EXPECT_EQ(peekType(Bytes), MsgType::QueryRequest);
}

TEST(ServeProtocol, ErrorAndListRoundTrip) {
  auto Err = decodeErrorResponse(encodeErrorResponse({"boom"}));
  ASSERT_TRUE(Err);
  EXPECT_EQ(Err->Message, "boom");

  ListResponse L;
  MachineInfo Info;
  Info.Name = "fig1";
  Info.Digest = 0x0123456789abcdefull;
  Info.NumResources = 6;
  Info.NumMapped = 6;
  L.Machines.push_back(Info);
  auto Decoded = decodeListResponse(encodeListResponse(L));
  ASSERT_TRUE(Decoded);
  ASSERT_EQ(Decoded->Machines.size(), 1u);
  EXPECT_EQ(Decoded->Machines[0].Name, "fig1");
  EXPECT_EQ(Decoded->Machines[0].Digest, 0x0123456789abcdefull);
  EXPECT_EQ(Decoded->Machines[0].NumResources, 6u);
  EXPECT_EQ(Decoded->Machines[0].NumMapped, 6u);
}

TEST(ServeProtocol, OversizedStringsTruncateToDecodableFrames) {
  // 16-bit-length strings past 64 KiB must truncate, not emit a record
  // whose length prefix disagrees with its body (an undecodable frame).
  ErrorResponse E;
  E.Message.assign(100000, 'x');
  auto Decoded = decodeErrorResponse(encodeErrorResponse(E));
  ASSERT_TRUE(Decoded.has_value());
  EXPECT_EQ(Decoded->Message.size(), 65535u);
  EXPECT_EQ(Decoded->Message, E.Message.substr(0, 65535));
}

//===----------------------------------------------------------------------===//
// PredictionCache.
//===----------------------------------------------------------------------===//

TEST(ServeCache, ComputesOncePerKey) {
  // First insert wins: a second insert of the key keeps the first entry,
  // at the same address, and reports that it existed.
  PredictionCache Cache;
  Prediction P;
  P.Ipc = 4.0;
  auto [First, FirstExisted] = Cache.insert("k", P);
  EXPECT_FALSE(FirstExisted);
  ASSERT_NE(First, nullptr);
  P.Ipc = 5.0;
  auto [Second, SecondExisted] = Cache.insert("k", P);
  EXPECT_TRUE(SecondExisted);
  EXPECT_EQ(Second, First);
  EXPECT_EQ(First->Ipc, 4.0);
  EXPECT_EQ(Cache.size(), 1u);

  EXPECT_EQ(Cache.lookupPtr("k"), First);
  EXPECT_EQ(Cache.lookupPtr("other"), nullptr);
}

TEST(ServeCacheConcurrency, ExactlyOnceUnderContention) {
  // Every thread inserts its own answer for the same keys; each key keeps
  // exactly one entry, the first inserter's, and every thread sees it at
  // one address.
  PredictionCache Cache;
  constexpr int NumThreads = 8;
  constexpr int NumKeys = 64;
  const Prediction *Seen[NumThreads][NumKeys] = {};
  bool Existed[NumThreads][NumKeys] = {};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int K = 0; K < NumKeys; ++K) {
        Prediction P;
        P.Ipc = static_cast<double>(T * NumKeys + K);
        std::tie(Seen[T][K], Existed[T][K]) =
            Cache.insert("kernel-" + std::to_string(K), std::move(P));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Cache.size(), static_cast<size_t>(NumKeys));
  for (int K = 0; K < NumKeys; ++K) {
    SCOPED_TRACE(K);
    int Winners = 0;
    for (int T = 0; T < NumThreads; ++T) {
      EXPECT_EQ(Seen[T][K], Seen[0][K]);
      if (!Existed[T][K]) {
        ++Winners;
        EXPECT_EQ(Seen[T][K]->Ipc, static_cast<double>(T * NumKeys + K));
      }
    }
    EXPECT_EQ(Winners, 1);
    EXPECT_EQ(Cache.lookupPtr("kernel-" + std::to_string(K)), Seen[0][K]);
  }
}

//===----------------------------------------------------------------------===//
// Server + Client over a real socket.
//===----------------------------------------------------------------------===//

namespace {

/// A daemon serving fig1 + skl duals on a temp socket, torn down on
/// destruction the same way palmed_serve's SIGTERM path does.
struct ServerFixture {
  MachineModel Fig1 = makeFig1Machine();
  MachineModel Skl = makeSklLike();
  ResourceMapping Fig1Map = buildDualMapping(Fig1);
  ResourceMapping SklMap = buildDualMapping(Skl);
  std::string Socket = tempPath("serve_test_" + std::to_string(::getpid()) +
                                ".sock");
  Server S;
  std::thread ServeThread;

  explicit ServerFixture(unsigned Threads = 2)
      : S([&] {
          ServerConfig C;
          C.SocketPath = Socket;
          C.NumThreads = Threads;
          return C;
        }()) {
    S.addMachine("fig1", Fig1, Fig1Map);
    S.addMachine("skl", Skl, SklMap);
    S.bind();
    ServeThread = std::thread([this] { S.serve(); });
  }

  ~ServerFixture() {
    S.requestStop();
    ServeThread.join();
  }
};

} // namespace

TEST(ServeServer, ServesTwoMachinesConcurrently) {
  ServerFixture F;
  const std::vector<std::string> Fig1Kernels = {"ADDSS", "ADDSS^2 VCVTT",
                                                "BSR ADDSS", "ADDSS"};
  const std::vector<std::string> SklKernels = {"ADD_0", "ADD_0^2 LOAD_0",
                                               "STORE_0", "ADD_0"};

  auto ExpectIpc = [](const MachineModel &M, const ResourceMapping &Map,
                      const std::string &Text) {
    auto K = Microkernel::parse(Text, M.isa());
    EXPECT_TRUE(K.has_value());
    auto Ipc = Map.predictIpc(*K);
    EXPECT_TRUE(Ipc.has_value());
    return *Ipc;
  };

  constexpr int NumClients = 4;
  std::vector<std::thread> Clients;
  std::atomic<int> Failures{0};
  for (int T = 0; T < NumClients; ++T)
    Clients.emplace_back([&, T] {
      Client C;
      if (!C.connect(F.Socket)) {
        ++Failures;
        return;
      }
      bool UseFig1 = (T % 2) == 0;
      const auto &Kernels = UseFig1 ? Fig1Kernels : SklKernels;
      const MachineModel &M = UseFig1 ? F.Fig1 : F.Skl;
      const ResourceMapping &Map = UseFig1 ? F.Fig1Map : F.SklMap;
      for (int Round = 0; Round < 8; ++Round) {
        auto R = C.query(UseFig1 ? "fig1" : "skl", Kernels);
        if (!R || R->Answers.size() != Kernels.size()) {
          ++Failures;
          return;
        }
        for (size_t I = 0; I < Kernels.size(); ++I) {
          if (R->Answers[I].S != KernelAnswer::Status::Ok ||
              !sameBits(R->Answers[I].Ipc, ExpectIpc(M, Map, Kernels[I])))
            ++Failures;
        }
      }
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  ServerTotals Totals = F.S.totals();
  EXPECT_EQ(Totals.Connections, static_cast<uint64_t>(NumClients));
  EXPECT_EQ(Totals.Requests, static_cast<uint64_t>(NumClients * 8));
  // 4 kernels per request, one a duplicate: 3 distinct per machine, and
  // every kernel beyond the first computation is a hit.
  EXPECT_EQ(Totals.CacheMisses, 6u);
  EXPECT_EQ(Totals.CacheHits + Totals.CacheMisses, Totals.Kernels);
}

TEST(ServeServer, ReportsErrorsAndStatuses) {
  ServerFixture F(/*Threads=*/1);
  Client C;
  ASSERT_TRUE(C.connect(F.Socket)) << C.lastError();

  // Unknown machine: typed server error naming the roster.
  EXPECT_FALSE(C.query("nope", {"ADDSS"}));
  EXPECT_NE(C.lastError().find("unknown machine 'nope'"), std::string::npos)
      << C.lastError();
  EXPECT_NE(C.lastError().find("fig1"), std::string::npos);

  // The connection survives the error; per-kernel failures are statuses,
  // not connection errors.
  auto R = C.query("fig1", {"ADDSS", "NO_SUCH_INSTR", ""});
  ASSERT_TRUE(R) << C.lastError();
  EXPECT_EQ(R->Answers[0].S, KernelAnswer::Status::Ok);
  EXPECT_EQ(R->Answers[1].S, KernelAnswer::Status::ParseError);
  EXPECT_NE(R->Answers[2].S, KernelAnswer::Status::Ok);

  // An unmapped instruction is Unsupported, not an error.
  {
    ResourceMapping Partial(F.Fig1.isa().size());
    ResourceId Res = Partial.addResource("r0");
    Partial.setUsage(F.Fig1.isa().findByName("ADDSS"), Res, 0.5);
    ServerConfig C2;
    C2.SocketPath = F.Socket + ".partial";
    Server S2(C2);
    S2.addMachine("partial", F.Fig1, Partial);
    uint64_t Hits = 0, Misses = 0;
    std::string Error;
    QueryRequest Req;
    Req.Machine = "partial";
    // The mixed kernel exercises the release-safety regression: BSR has no
    // row entries at all in the ragged partial mapping, and the old serve
    // path reached predictCycles' unchecked rho reads for it. It must come
    // back Unsupported, never garbage or a crash.
    Req.Kernels = {"ADDSS", "BSR", "ADDSS BSR"};
    auto Wire = S2.evaluateWire(Req, &Hits, &Misses, &Error);
    ASSERT_TRUE(Wire) << Error;
    auto Decoded = decodeQueryResponse(*Wire);
    ASSERT_TRUE(Decoded);
    const QueryResponse &Resp = *Decoded;
    ASSERT_EQ(Resp.Answers.size(), 3u);
    EXPECT_EQ(Resp.Answers[0].S, KernelAnswer::Status::Ok);
    EXPECT_EQ(Resp.Answers[1].S, KernelAnswer::Status::Unsupported);
    EXPECT_EQ(Resp.Answers[2].S, KernelAnswer::Status::Unsupported);
    // The batch engine behind the serve path must agree bit for bit with
    // the scalar mapping on the kernel it does support.
    auto K = Microkernel::parse("ADDSS", F.Fig1.isa());
    ASSERT_TRUE(K);
    auto Want = Partial.predictIpc(*K);
    ASSERT_TRUE(Want);
    EXPECT_EQ(Resp.Answers[0].Ipc, *Want);
  }

  // Stats and list round-trip with sane values.
  auto Stats = C.stats();
  ASSERT_TRUE(Stats) << C.lastError();
  auto Find = [&](const std::string &Key) -> double {
    for (const auto &[K, V] : Stats->Counters)
      if (K == Key)
        return V;
    ADD_FAILURE() << "missing counter " << Key;
    return -1.0;
  };
  EXPECT_EQ(Find("conn.requests"), 1.0); // The error reply doesn't count.
  EXPECT_EQ(Find("conn.kernels"), 3.0);
  EXPECT_EQ(Find("server.machines"), 2.0);
  EXPECT_GT(Find("conn.qps"), 0.0);
  EXPECT_GE(Find("conn.p99_us"), Find("conn.p50_us"));

  auto List = C.list();
  ASSERT_TRUE(List) << C.lastError();
  ASSERT_EQ(List->Machines.size(), 2u);
  EXPECT_EQ(List->Machines[0].Name, "fig1");
  EXPECT_EQ(List->Machines[0].Digest, machineDigest(F.Fig1));
  EXPECT_EQ(List->Machines[1].Name, "skl");
}

TEST(ServeServer, BatchDedupesWithinRequest) {
  ServerFixture F(/*Threads=*/1);
  uint64_t Hits = 0, Misses = 0;
  std::string Error;
  QueryRequest Req;
  Req.Machine = "fig1";
  Req.Kernels.assign(100, "ADDSS^3 BSR");
  auto Wire = F.S.evaluateWire(Req, &Hits, &Misses, &Error);
  ASSERT_TRUE(Wire) << Error;
  auto Decoded = decodeQueryResponse(*Wire);
  ASSERT_TRUE(Decoded);
  const QueryResponse &R = *Decoded;
  ASSERT_EQ(R.Answers.size(), 100u);
  EXPECT_EQ(Misses, 1u);
  EXPECT_EQ(Hits, 99u);
  for (const KernelAnswer &A : R.Answers)
    EXPECT_TRUE(sameBits(A.Ipc, R.Answers[0].Ipc));
}

namespace {

/// Answers of one query request dispatched as raw frame bytes, the path a
/// connection handler runs; fig1 is served with \p Threads workers.
std::vector<KernelAnswer> dispatchQuery(const std::vector<std::string> &Texts,
                                        unsigned Threads = 2) {
  ServerConfig C;
  C.SocketPath = "/unused-never-bound";
  C.NumThreads = Threads;
  Server S(C);
  MachineModel M = makeFig1Machine();
  ResourceMapping Mapping = buildDualMapping(M);
  S.addMachine("fig1", std::move(M), std::move(Mapping));
  Server::ConnectionState Conn;
  QueryRequest Req;
  Req.Machine = "fig1";
  Req.Kernels = Texts;
  auto Resp = decodeQueryResponse(S.dispatchPayload(encodeQueryRequest(Req),
                                                    Conn));
  EXPECT_TRUE(Resp);
  return Resp ? Resp->Answers : std::vector<KernelAnswer>{};
}

} // namespace

TEST(ServeServer, RejectsOverflowingKernelSumRegression) {
  // Every multiplicity was finite, so these parsed; the merged ADDSS
  // multiplicity was served as Ok with IPC NaN, the infinite |K| of the
  // second kernel as Ok with IPC inf.
  std::vector<KernelAnswer> A = dispatchQuery(
      {"ADDSS^1e308 ADDSS^1e308", "ADDSS^1e308 VCVTT^1e308", "ADDSS^2"});
  ASSERT_EQ(A.size(), 3u);
  EXPECT_EQ(A[0].S, KernelAnswer::Status::ParseError);
  EXPECT_EQ(A[1].S, KernelAnswer::Status::ParseError);
  EXPECT_EQ(A[2].S, KernelAnswer::Status::Ok);
  EXPECT_TRUE(std::isfinite(A[2].Ipc));
}

TEST(ServeServer, RejectsNulInMultiplicityRegression) {
  // strtod stopped at the NUL, so the 12-byte text below was answered
  // (and cached) as ADDSS^2. It is a parse error, alone or in a batch.
  const std::string Nul("ADDSS^2\0junk", 12);
  for (unsigned Threads : {1u, 2u}) {
    std::vector<KernelAnswer> A = dispatchQuery({Nul}, Threads);
    ASSERT_EQ(A.size(), 1u);
    EXPECT_EQ(A[0].S, KernelAnswer::Status::ParseError);
    A = dispatchQuery({"ADDSS^2", Nul, "BSR"}, Threads);
    ASSERT_EQ(A.size(), 3u);
    EXPECT_EQ(A[0].S, KernelAnswer::Status::Ok);
    EXPECT_EQ(A[1].S, KernelAnswer::Status::ParseError);
    EXPECT_EQ(A[2].S, KernelAnswer::Status::Ok);
  }
}

TEST(ServeServer, DuplicateMachineNameThrows) {
  ServerConfig C;
  C.SocketPath = tempPath("dup.sock");
  Server S(C);
  MachineModel M = makeFig1Machine();
  S.addMachine("fig1", M, buildDualMapping(M));
  EXPECT_THROW(S.addMachine("fig1", M, buildDualMapping(M)),
               std::invalid_argument);
}

TEST(ServeServer, SurvivesClientClosingBeforeResponse) {
  ServerFixture F(/*Threads=*/1);
  // A client that sends a query and disconnects without reading forces
  // the server to write into a closed socket. That must surface as a
  // dropped connection (EPIPE), not a SIGPIPE killing the process.
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  ASSERT_LT(F.Socket.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, F.Socket.c_str(), F.Socket.size() + 1);
  for (int Round = 0; Round < 4; ++Round) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0);
    QueryRequest Req;
    Req.Machine = "fig1";
    // Fresh kernels each round so the server computes (not just appends
    // cached bytes), widening the window where the close wins the race.
    Req.Kernels.assign(64, "ADDSS^" + std::to_string(Round + 2) + " BSR");
    ASSERT_TRUE(writeFrame(Fd, encodeQueryRequest(Req)));
    ::close(Fd); // Gone before the response.
  }
  // The daemon is still alive and serving.
  Client C;
  ASSERT_TRUE(C.connect(F.Socket)) << C.lastError();
  auto R = C.query("fig1", {"ADDSS"});
  ASSERT_TRUE(R) << C.lastError();
  EXPECT_EQ(R->Answers[0].S, KernelAnswer::Status::Ok);
}

TEST(ServeServer, ListResponseIsByteIdenticalAcrossInsertionOrder) {
  // The list response is part of the determinism surface: two servers
  // configured with the same machines must answer `list` with identical
  // bytes regardless of the order addMachine() was called in. This is
  // what the determinism lint's unordered-iter rule guards at the code
  // level; here it is pinned at the wire level.
  MachineModel Fig1 = makeFig1Machine();
  MachineModel Skl = makeSklLike();
  ResourceMapping Fig1Map = buildDualMapping(Fig1);
  ResourceMapping SklMap = buildDualMapping(Skl);

  auto listBytes = [&](bool Fig1First) {
    ServerConfig C;
    C.SocketPath = "/unused-never-bound";
    C.NumThreads = 1;
    Server S(C);
    if (Fig1First) {
      S.addMachine("fig1", Fig1, Fig1Map);
      S.addMachine("skl", Skl, SklMap);
    } else {
      S.addMachine("skl", Skl, SklMap);
      S.addMachine("fig1", Fig1, Fig1Map);
    }
    Server::ConnectionState Conn;
    return S.dispatchPayload(encodeListRequest(), Conn);
  };

  std::string A = listBytes(/*Fig1First=*/true);
  std::string B = listBytes(/*Fig1First=*/false);
  EXPECT_EQ(A, B);
  auto L = decodeListResponse(A);
  ASSERT_TRUE(L);
  ASSERT_EQ(L->Machines.size(), 2u);
  EXPECT_EQ(L->Machines[0].Name, "fig1"); // Sorted by name, not insertion.
  EXPECT_EQ(L->Machines[1].Name, "skl");
}

TEST(ServeProtocol, QueryRequestDeclaredCountBombRegression) {
  // Found while fuzzing: a 16-byte frame can declare 2^32-1 kernel
  // records, and reserve(N) on the declared count tried to allocate
  // tens of gigabytes before the first record failed to parse. Decoders
  // now clamp reserves to what the remaining bytes could possibly hold.
  std::string Bomb = encodeQueryRequest({/*Machine=*/"fig1", {}});
  ASSERT_GE(Bomb.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    Bomb[Bomb.size() - 4 + I] = '\xff';
  EXPECT_FALSE(decodeQueryRequest(Bomb));

  QueryResponse Empty;
  std::string RespBomb = encodeQueryResponse(Empty);
  ASSERT_GE(RespBomb.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    RespBomb[RespBomb.size() - 4 + I] = '\xff';
  EXPECT_FALSE(decodeQueryResponse(RespBomb));
}

TEST(ServeMappingIO, FromTextRejectsNonFiniteValuesRegression) {
  // Found while fuzzing loadMappingAuto: the text parser accepted
  // resource throughputs and edge weights the binary loader rejects
  // (non-finite, non-positive throughput; negative/NaN edges), so a
  // hostile text mapping could smuggle values that break the
  // serialize/deserialize round-trip invariant. Both loaders now apply
  // the same rules.
  MachineModel M = makeFig1Machine();
  MappingIOError Err;
  const char *Header = "palmed-mapping v1\nresources 1\n";
  for (const char *Body : {
           "resource r0 nan\n",                      // non-finite throughput
           "resource r0 inf\n",                      //
           "resource r0 0\n",                        // non-positive
           "resource r0 -1.5\n",                     //
           "resource r0 1.5\ninstr ADDSS 0:nan\n",   // non-finite edge
           "resource r0 1.5\ninstr ADDSS 0:-2\n",    // negative edge
           "resource r0 1.5\ninstr ADDSS 99:1\n",    // out-of-range resource
           // A resource index that overflows size_t used to be UB in
           // sscanf("%zu"); it must now be a clean parse failure.
           "resource r0 1.5\ninstr ADDSS 99999999999999999999:1\n",
       }) {
    std::string Text = std::string(Header) + Body;
    EXPECT_FALSE(deserializeMappingAuto(Text, M, &Err)) << Body;
    EXPECT_EQ(Err.Status, MappingIOStatus::Malformed) << Body;
  }
  // The well-formed equivalent still loads.
  std::string Good = std::string(Header) +
                     "resource r0 1.5\ninstr ADDSS 0:0.5\n";
  EXPECT_TRUE(deserializeMappingAuto(Good, M, &Err)) << Err.Message;
}

TEST(ServeMappingIO, DeserializeAutoMatchesLoadAuto) {
  // deserializeMappingAuto is the byte-level core the fuzz_mapping_io
  // harness drives; it must accept exactly what loadMappingAuto accepts
  // from a file, for both the binary and the legacy text form.
  MachineModel M = makeFig1Machine();
  ResourceMapping Mapping = buildDualMapping(M);
  MappingIOError Err;
  auto FromBinary = deserializeMappingAuto(serializeMapping(Mapping, M), M,
                                           &Err);
  ASSERT_TRUE(FromBinary) << Err.Message;
  EXPECT_EQ(FromBinary->toText(M.isa()), Mapping.toText(M.isa()));
  auto FromText = deserializeMappingAuto(Mapping.toText(M.isa()), M, &Err);
  ASSERT_TRUE(FromText) << Err.Message;
  EXPECT_EQ(FromText->toText(M.isa()), Mapping.toText(M.isa()));
  EXPECT_FALSE(deserializeMappingAuto("neither binary nor text", M, &Err));
  EXPECT_EQ(Err.Status, MappingIOStatus::Malformed);
}

TEST(ServeServer, ZeroLatencySampleConfigIsClamped) {
  MachineModel M = makeFig1Machine();
  ServerConfig C;
  C.SocketPath = tempPath("serve_lat0_" + std::to_string(::getpid()) +
                          ".sock");
  C.NumThreads = 1;
  C.MaxLatencySamples = 0; // Must not divide by zero in the latency ring.
  Server S(C);
  S.addMachine("fig1", M, buildDualMapping(M));
  S.bind();
  std::thread Serve([&] { S.serve(); });
  {
    Client Cl;
    ASSERT_TRUE(Cl.connect(C.SocketPath)) << Cl.lastError();
    for (int I = 0; I < 3; ++I)
      ASSERT_TRUE(Cl.query("fig1", {"ADDSS"})) << Cl.lastError();
    auto Stats = Cl.stats();
    ASSERT_TRUE(Stats) << Cl.lastError();
  }
  S.requestStop();
  Serve.join();
}
