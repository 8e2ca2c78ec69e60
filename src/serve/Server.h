//===- serve/Server.h - Batched mapping prediction daemon -----*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running prediction service: loads N machine mappings, listens
/// on a local (AF_UNIX) stream socket, and answers batched
/// throughput/bottleneck queries over the length-prefixed protocol of
/// serve/Protocol.h.
///
/// Threading model: serve() runs the accept loop on the calling thread
/// and spawns one handler thread per connection. Batch evaluation runs
/// the distinct cache-missing kernels of a request through the batch
/// prediction engine (predict/BatchEngine.h) against a per-machine
/// CompiledMapping: each distinct miss is parsed inline, on the
/// connection's thread, straight into one KernelBatch, then one detailed
/// batch pass fans over a shared palmed::Executor (serialized by a mutex —
/// the executor is single-driver by contract); cache hits never touch the
/// executor. Each served machine fronts its mapping with a
/// PredictionCache; results are published with its first-insert-wins
/// insert, so a concurrent connection racing on the same kernel at worst
/// duplicates deterministic work and still observes one canonical entry.
///
/// Lifecycle: addMachine() while stopped, bind(), then serve() until
/// requestStop() — which is async-signal-safe (it only stores a flag), so
/// a SIGTERM handler may call it directly; serve() notices within its
/// poll interval, wakes every connection, joins the handlers, and removes
/// the socket file.
///
/// Per-connection counters (requests, kernels, cache hits, latency
/// percentiles, QPS) are returned by the `stats` request together with
/// server-wide totals.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_SERVE_SERVER_H
#define PALMED_SERVE_SERVER_H

#include "core/ResourceMapping.h"
#include "machine/MachineModel.h"
#include "predict/CompiledMapping.h"
#include "serve/PredictionCache.h"
#include "serve/Protocol.h"
#include "support/Executor.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace palmed {
namespace serve {

/// Server configuration.
struct ServerConfig {
  /// Filesystem path of the AF_UNIX listening socket.
  std::string SocketPath;
  /// Executor width for batch fan-out (resolved; >= 1).
  unsigned NumThreads = 1;
  /// Largest kernel batch accepted in one query request.
  size_t MaxBatchKernels = 1u << 20;
  /// Per-connection latency samples kept for the percentile counters
  /// (a ring: old samples are overwritten once full).
  size_t MaxLatencySamples = 1u << 16;
};

/// Server-wide counters (monotonic since start).
struct ServerTotals {
  uint64_t Connections = 0;
  uint64_t Requests = 0;
  uint64_t Kernels = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
};

/// The prediction daemon. Construct, addMachine() for every served
/// mapping, bind(), then serve().
class Server {
public:
  explicit Server(ServerConfig Config);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Registers a machine + its inferred mapping under \p Name (the name
  /// clients put in query requests). Must be called before serve();
  /// duplicate names throw std::invalid_argument.
  void addMachine(std::string Name, MachineModel Machine,
                  ResourceMapping Mapping);

  size_t numMachines() const { return Machines.size(); }

  /// Creates, binds, and starts listening on the configured socket path
  /// (unlinking a stale socket file first). After bind() returns, clients
  /// can connect — the backlog queues them until serve() accepts. Throws
  /// std::runtime_error on socket errors.
  void bind();

  /// Accept/dispatch loop; returns once requestStop() was called (or
  /// the listening socket died). Joins every connection handler before
  /// returning and removes the socket file.
  void serve();

  /// Requests serve() to wind down. Async-signal-safe: only stores a
  /// flag, so SIGTERM handlers may call it directly.
  void requestStop() { StopFlag.store(true, std::memory_order_relaxed); }

  bool stopRequested() const {
    return StopFlag.load(std::memory_order_relaxed);
  }

  ServerTotals totals() const;

  /// Per-connection counters threaded through dispatchPayload(). One
  /// instance lives on each handler thread's stack; it is never shared.
  struct ConnectionState {
    uint64_t Queries = 0;
    uint64_t Kernels = 0;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    /// Query-latency ring, microseconds.
    std::vector<double> LatencyUs;
    uint64_t LatencySeen = 0;
    std::chrono::steady_clock::time_point Opened =
        std::chrono::steady_clock::now();
  };

  /// The server-side request dispatch: decodes one frame payload (as
  /// received from the wire — arbitrary, untrusted bytes) and returns the
  /// encoded response payload that handleConnection writes back. Malformed
  /// or unknown input produces an ErrorResponse payload, never a throw on
  /// its own; out-of-memory or executor rethrows can still escape and are
  /// turned into ErrorResponses by the connection handler. Public because
  /// it is the exact surface the protocol fuzzer drives.
  std::string dispatchPayload(const std::string &Payload,
                              ConnectionState &Conn);

  /// Evaluates one batched query in-process (the exact code path a
  /// connection runs, minus the socket) straight to an encoded
  /// QueryResponse payload, serving every cache hit by appending its
  /// pre-encoded answer record. \p Hits / \p Misses are incremented per
  /// kernel. nullopt with *Error set on request-level failure (unknown
  /// machine, oversized batch).
  std::optional<std::string> evaluateWire(const QueryRequest &Request,
                                          uint64_t *Hits, uint64_t *Misses,
                                          std::string *Error);

private:
  struct ServedMachine {
    ServedMachine(std::string Name, MachineModel Machine,
                  ResourceMapping Mapping)
        : Name(std::move(Name)), Machine(std::move(Machine)),
          Mapping(std::move(Mapping)),
          Cache(std::make_unique<PredictionCache>()),
          // this->: the parameter of the same name was just moved from.
          Compiled(predict::CompiledMapping::compile(this->Mapping)) {}

    std::string Name;
    MachineModel Machine;
    ResourceMapping Mapping;
    /// Cache shards hold mutexes; keep the struct address-stable.
    std::unique_ptr<PredictionCache> Cache;
    /// Immutable streaming-layout compilation of Mapping; the cold-miss
    /// path predicts whole batches through it (and, being a checked API,
    /// it keeps unmapped kernels well-defined in release builds too).
    predict::CompiledMapping Compiled;
  };

  struct Connection {
    int Fd = -1;
    std::thread Handler;
    std::atomic<bool> Finished{false};
  };

  ServedMachine *findMachine(const std::string &Name);

  /// Predicts the distinct cache-missing kernel texts of one request in
  /// one batch: an inline parse of each text into the batch, one
  /// predictDetailedBatch pass over the compiled mapping (on the shared
  /// executor, under ExecMutex, when the batch holds two or more kernels),
  /// then serial wire encoding. Returns one finished Prediction per input
  /// (parse failures and unsupported kernels included).
  std::vector<Prediction>
  predictDistinct(ServedMachine &M,
                  const std::vector<const std::string *> &Distinct);

  void handleConnection(Connection &Conn);
  void reapFinishedConnections();

  ServerConfig Config;
  std::vector<std::unique_ptr<ServedMachine>> Machines;

  Executor Exec;
  /// The executor is single-driver; one batch fans out at a time.
  std::mutex ExecMutex;

  int ListenFd = -1;
  std::atomic<bool> StopFlag{false};

  std::mutex ConnMutex;
  std::vector<std::unique_ptr<Connection>> Connections;

  std::atomic<uint64_t> TotalConnections{0};
  std::atomic<uint64_t> TotalRequests{0};
  std::atomic<uint64_t> TotalKernels{0};
  std::atomic<uint64_t> TotalCacheHits{0};
  std::atomic<uint64_t> TotalCacheMisses{0};
};

} // namespace serve
} // namespace palmed

#endif // PALMED_SERVE_SERVER_H
