//===- serve/Server.cpp - Batched mapping prediction daemon ---------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "predict/BatchEngine.h"
#include "serve/MappingIO.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <poll.h>
#include <stdexcept>
#include <string_view>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <unordered_map>

using namespace palmed;
using namespace palmed::serve;

Server::Server(ServerConfig C)
    : Config(std::move(C)), Exec(std::max(1u, Config.NumThreads)) {
  // The latency ring indexes LatencySeen % MaxLatencySamples once full;
  // a zero size would be a division by zero on the first query.
  Config.MaxLatencySamples = std::max<size_t>(1, Config.MaxLatencySamples);
}

Server::~Server() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Config.SocketPath.c_str());
  }
}

void Server::addMachine(std::string Name, MachineModel Machine,
                        ResourceMapping Mapping) {
  for (const auto &M : Machines)
    if (M->Name == Name)
      throw std::invalid_argument("machine '" + Name +
                                  "' is already being served");
  Machines.push_back(std::make_unique<ServedMachine>(
      std::move(Name), std::move(Machine), std::move(Mapping)));
}

Server::ServedMachine *Server::findMachine(const std::string &Name) {
  for (const auto &M : Machines)
    if (M->Name == Name)
      return M.get();
  return nullptr;
}

ServerTotals Server::totals() const {
  ServerTotals T;
  T.Connections = TotalConnections.load(std::memory_order_relaxed);
  T.Requests = TotalRequests.load(std::memory_order_relaxed);
  T.Kernels = TotalKernels.load(std::memory_order_relaxed);
  T.CacheHits = TotalCacheHits.load(std::memory_order_relaxed);
  T.CacheMisses = TotalCacheMisses.load(std::memory_order_relaxed);
  return T;
}

std::vector<Prediction>
Server::predictDistinct(ServedMachine &M,
                        const std::vector<const std::string *> &Distinct) {
  const size_t N = Distinct.size();

  // Parse inline into one batch: a parse takes well under a microsecond,
  // less than waking the executor's workers to share it out. Parse
  // failures keep an invalid batch index.
  constexpr size_t NoKernel = static_cast<size_t>(-1);
  predict::KernelBatch B;
  B.reserve(N, N * 4);
  std::vector<size_t> BatchIndex(N, NoKernel);
  for (size_t I = 0; I < N; ++I)
    if (auto K = Microkernel::parse(*Distinct[I], M.Machine.isa()))
      BatchIndex[I] = B.add(*K);

  // One detailed batch pass over the compiled mapping. Eps matches
  // analyzeKernel's default co-bottleneck tie tolerance, so query answers
  // report the same bottleneck sets the analyze CLI shows.
  std::vector<predict::KernelDetail> Details(B.size());
  {
    const bool UseExec = B.size() > 1 && Exec.numWorkers() > 1;
    std::unique_lock<std::mutex> Lock;
    if (UseExec)
      Lock = std::unique_lock<std::mutex>(ExecMutex);
    predict::predictDetailedBatch(M.Compiled, B, /*Eps=*/0.05,
                                  Details.data(), UseExec ? &Exec : nullptr);
  }

  // Serial encode: pre-build each answer's wire record once; cache hits
  // later just append the bytes.
  std::vector<Prediction> Out(N);
  for (size_t I = 0; I < N; ++I) {
    Prediction &P = Out[I];
    if (BatchIndex[I] == NoKernel) {
      P.S = Prediction::Status::ParseError;
    } else if (const predict::KernelDetail &D = Details[BatchIndex[I]];
               D.Supported) {
      P.Ipc = D.Ipc;
      P.Bottlenecks = D.CoBottlenecks;
    } else {
      P.S = Prediction::Status::Unsupported;
    }
    KernelAnswer A;
    A.S = static_cast<KernelAnswer::Status>(P.S);
    A.Ipc = P.Ipc;
    A.Bottlenecks.reserve(P.Bottlenecks.size());
    for (uint32_t R : P.Bottlenecks)
      A.Bottlenecks.push_back(M.Mapping.resourceName(R));
    appendKernelAnswer(P.Wire, A);
  }
  return Out;
}

std::optional<std::string> Server::evaluateWire(const QueryRequest &Request,
                                                uint64_t *Hits,
                                                uint64_t *Misses,
                                                std::string *Error) {
  ServedMachine *M = findMachine(Request.Machine);
  if (!M) {
    if (Error) {
      std::string Names;
      for (const auto &S : Machines)
        Names += (Names.empty() ? "" : ", ") + S->Name;
      // Cap the echoed (client-supplied) name so the error message stays
      // readable and fits an ErrorResponse's 16-bit string record.
      std::string Shown = Request.Machine.substr(0, 128);
      if (Shown.size() < Request.Machine.size())
        Shown += "...";
      *Error = "unknown machine '" + Shown + "' (serving: " + Names + ")";
    }
    return std::nullopt;
  }
  size_t N = Request.Kernels.size();
  if (N > Config.MaxBatchKernels) {
    if (Error)
      *Error = "batch of " + std::to_string(N) +
               " kernels exceeds the limit of " +
               std::to_string(Config.MaxBatchKernels);
    return std::nullopt;
  }

  // Hit path: one shard probe per kernel, then a byte append below. The
  // pointers stay valid — cache entries are never erased or mutated.
  std::vector<const Prediction *> Per(N, nullptr);
  std::vector<size_t> MissPos;
  uint64_t BatchHits = 0, BatchMisses = 0;
  for (size_t I = 0; I < N; ++I) {
    Per[I] = M->Cache->lookupPtr(Request.Kernels[I]);
    if (Per[I])
      ++BatchHits;
    else
      MissPos.push_back(I);
  }

  if (!MissPos.empty()) {
    // Dedupe the missing texts; each distinct one is predicted once.
    std::unordered_map<std::string_view, size_t> DistinctOf;
    std::vector<const std::string *> Distinct;
    std::vector<size_t> MissDistinct; // Distinct index of each miss.
    for (size_t I : MissPos) {
      auto [It, Inserted] =
          DistinctOf.try_emplace(Request.Kernels[I], Distinct.size());
      if (Inserted)
        Distinct.push_back(&Request.Kernels[I]);
      MissDistinct.push_back(It->second);
    }
    std::vector<Prediction> Computed = predictDistinct(*M, Distinct);
    std::vector<const Prediction *> Entries(Distinct.size());
    for (size_t D = 0; D < Distinct.size(); ++D) {
      // First insert wins: a connection that raced us to the same kernel
      // published the same deterministic answer, and serving its entry
      // counts as a hit.
      auto [Entry, Existed] =
          M->Cache->insert(*Distinct[D], std::move(Computed[D]));
      Entries[D] = Entry;
      BatchMisses += Existed ? 0 : 1;
    }
    // Every other miss is an in-batch duplicate or a raced kernel.
    BatchHits += MissPos.size() - BatchMisses;
    for (size_t J = 0; J < MissPos.size(); ++J)
      Per[MissPos[J]] = Entries[MissDistinct[J]];
  }

  std::string Out;
  size_t Bytes = 5; // Header: type byte + u32 answer count.
  for (const Prediction *P : Per)
    Bytes += P->Wire.size();
  Out.reserve(Bytes);
  appendQueryResponseHeader(Out, static_cast<uint32_t>(N));
  for (const Prediction *P : Per)
    Out += P->Wire;

  if (Hits)
    *Hits += BatchHits;
  if (Misses)
    *Misses += BatchMisses;
  TotalRequests.fetch_add(1, std::memory_order_relaxed);
  TotalKernels.fetch_add(N, std::memory_order_relaxed);
  TotalCacheHits.fetch_add(BatchHits, std::memory_order_relaxed);
  TotalCacheMisses.fetch_add(BatchMisses, std::memory_order_relaxed);
  if (Error)
    Error->clear();
  return Out;
}

void Server::bind() {
  if (Machines.empty())
    throw std::runtime_error("refusing to serve zero machines");
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Config.SocketPath.empty() ||
      Config.SocketPath.size() >= sizeof(Addr.sun_path))
    throw std::runtime_error("socket path '" + Config.SocketPath +
                             "' is empty or too long for AF_UNIX");
  std::memcpy(Addr.sun_path, Config.SocketPath.c_str(),
              Config.SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    throw std::runtime_error(std::string("socket(): ") +
                             std::strerror(errno));
  ::unlink(Config.SocketPath.c_str()); // Stale socket from a dead server.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0 ||
      ::listen(ListenFd, 64) < 0) {
    int E = errno;
    ::close(ListenFd);
    ListenFd = -1;
    throw std::runtime_error("bind/listen on '" + Config.SocketPath +
                             "': " + std::strerror(E));
  }
}

namespace {

/// Latency percentile over an (unsorted) sample buffer, in the samples'
/// unit. Q in (0, 1]; nearest-rank definition.
double percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(Q * static_cast<double>(Samples.size()));
  size_t Idx = Rank <= 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return Samples[std::min(Idx, Samples.size() - 1)];
}

} // namespace

std::string Server::dispatchPayload(const std::string &Payload,
                                    ConnectionState &C) {
  using Clock = std::chrono::steady_clock;
  auto Type = peekType(Payload);
  if (!Type)
    return encodeErrorResponse({"unrecognized message type"});
  switch (*Type) {
  case MsgType::QueryRequest: {
    Clock::time_point T0 = Clock::now();
    auto Req = decodeQueryRequest(Payload);
    if (!Req)
      return encodeErrorResponse({"malformed query request"});
    std::string Error;
    auto Resp = evaluateWire(*Req, &C.Hits, &C.Misses, &Error);
    if (!Resp)
      return encodeErrorResponse({Error});
    ++C.Queries;
    C.Kernels += Req->Kernels.size();
    double Us =
        std::chrono::duration<double, std::micro>(Clock::now() - T0)
            .count();
    if (C.LatencyUs.size() < Config.MaxLatencySamples)
      C.LatencyUs.push_back(Us);
    else
      C.LatencyUs[C.LatencySeen % Config.MaxLatencySamples] = Us;
    ++C.LatencySeen;
    return std::move(*Resp);
  }
  case MsgType::StatsRequest: {
    double UptimeS =
        std::chrono::duration<double>(Clock::now() - C.Opened).count();
    uint64_t ConnLookups = C.Hits + C.Misses;
    ServerTotals T = totals();
    uint64_t ServerLookups = T.CacheHits + T.CacheMisses;
    StatsResponse S;
    S.Counters = {
        {"conn.requests", static_cast<double>(C.Queries)},
        {"conn.kernels", static_cast<double>(C.Kernels)},
        {"conn.cache_hits", static_cast<double>(C.Hits)},
        {"conn.cache_misses", static_cast<double>(C.Misses)},
        {"conn.cache_hit_rate",
         ConnLookups ? static_cast<double>(C.Hits) /
                           static_cast<double>(ConnLookups)
                     : 0.0},
        {"conn.qps",
         UptimeS > 0.0 ? static_cast<double>(C.Queries) / UptimeS : 0.0},
        {"conn.kernels_per_s",
         UptimeS > 0.0 ? static_cast<double>(C.Kernels) / UptimeS : 0.0},
        {"conn.p50_us", percentile(C.LatencyUs, 0.50)},
        {"conn.p99_us", percentile(C.LatencyUs, 0.99)},
        {"conn.uptime_s", UptimeS},
        {"server.machines", static_cast<double>(Machines.size())},
        {"server.threads", static_cast<double>(Exec.numWorkers())},
        {"server.connections", static_cast<double>(T.Connections)},
        {"server.requests", static_cast<double>(T.Requests)},
        {"server.kernels", static_cast<double>(T.Kernels)},
        {"server.cache_hits", static_cast<double>(T.CacheHits)},
        {"server.cache_misses", static_cast<double>(T.CacheMisses)},
        {"server.cache_hit_rate",
         ServerLookups ? static_cast<double>(T.CacheHits) /
                             static_cast<double>(ServerLookups)
                       : 0.0},
    };
    return encodeStatsResponse(S);
  }
  case MsgType::ListRequest: {
    ListResponse L;
    L.Machines.reserve(Machines.size());
    for (const auto &M : Machines) {
      MachineInfo Info;
      Info.Name = M->Name;
      Info.Digest = machineDigest(M->Machine);
      Info.NumResources = static_cast<uint32_t>(M->Mapping.numResources());
      Info.NumMapped =
          static_cast<uint32_t>(M->Mapping.numMappedInstructions());
      L.Machines.push_back(std::move(Info));
    }
    // Canonical order: two servers configured with the same machines must
    // produce byte-identical list responses regardless of the order their
    // addMachine() calls ran in (names are unique — addMachine throws on
    // duplicates).
    std::sort(L.Machines.begin(), L.Machines.end(),
              [](const MachineInfo &A, const MachineInfo &B) {
                return A.Name < B.Name;
              });
    return encodeListResponse(L);
  }
  default:
    return encodeErrorResponse({"unexpected message type"});
  }
}

void Server::handleConnection(Connection &Conn) {
  ConnectionState C;
  std::string Payload;
  while (!stopRequested() && readFrame(Conn.Fd, Payload)) {
    bool WriteOk;
    // A handler runs on a bare std::thread: any exception escaping this
    // body (bad_alloc on a huge frame/batch, a rethrow out of
    // Executor::parallelFor) would std::terminate the whole daemon. Turn
    // it into an ErrorResponse and keep serving.
    try {
      WriteOk = writeFrame(Conn.Fd, dispatchPayload(Payload, C));
    } catch (const std::exception &E) {
      try {
        WriteOk = writeFrame(
            Conn.Fd,
            encodeErrorResponse({std::string("internal error: ") +
                                 E.what()}));
      } catch (...) {
        WriteOk = false; // Even the error reply failed; drop the client.
      }
    } catch (...) {
      try {
        WriteOk =
            writeFrame(Conn.Fd, encodeErrorResponse({"internal error"}));
      } catch (...) {
        WriteOk = false;
      }
    }
    if (!WriteOk)
      break;
  }
  Conn.Finished.store(true, std::memory_order_release);
}

void Server::reapFinishedConnections() {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (auto It = Connections.begin(); It != Connections.end();) {
    Connection &C = **It;
    if (C.Finished.load(std::memory_order_acquire)) {
      C.Handler.join();
      ::close(C.Fd);
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

void Server::serve() {
  if (ListenFd < 0)
    throw std::logic_error("serve() requires a successful bind()");

  while (!stopRequested()) {
    pollfd P{};
    P.fd = ListenFd;
    P.events = POLLIN;
    int R = ::poll(&P, 1, /*timeout ms=*/100);
    if (R < 0) {
      if (errno == EINTR)
        continue; // A signal (e.g. SIGTERM) — the loop re-checks the flag.
      break;
    }
    reapFinishedConnections();
    if (R == 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      break;
    }
    TotalConnections.fetch_add(1, std::memory_order_relaxed);
    auto Conn = std::make_unique<Connection>();
    Conn->Fd = Fd;
    Connection *Raw = Conn.get();
    Conn->Handler = std::thread([this, Raw] { handleConnection(*Raw); });
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Connections.push_back(std::move(Conn));
  }

  // Graceful wind-down: stop accepting, wake every blocked reader, join.
  ::close(ListenFd);
  ListenFd = -1;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (const auto &C : Connections)
      if (!C->Finished.load(std::memory_order_acquire))
        ::shutdown(C->Fd, SHUT_RDWR);
  }
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (const auto &C : Connections) {
    C->Handler.join();
    ::close(C->Fd);
  }
  Connections.clear();
  ::unlink(Config.SocketPath.c_str());
}
