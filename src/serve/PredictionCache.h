//===- serve/PredictionCache.h - Sharded prediction cache ------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-memory prediction cache fronting a served mapping, 16-way
/// sharded by key hash: entries are keyed by the *kernel text* as received
/// on the wire, so a cache hit costs one string hash and one map probe —
/// no kernel parsing, no resource scan. A miss is predicted by the caller
/// and published with insert(); the first insert of a key wins. Two
/// connections that miss the same kernel together both predict it, and
/// one entry is kept (predictions are deterministic, so both computed the
/// same answer).
///
/// Parse failures and unsupported kernels are cached too: hostile or
/// sloppy clients repeating a bad kernel must not re-pay the parse on
/// every request.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_SERVE_PREDICTIONCACHE_H
#define PALMED_SERVE_PREDICTIONCACHE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace palmed {
namespace serve {

/// A cached per-kernel prediction (also caches the failure modes).
struct Prediction {
  enum class Status : uint8_t { Ok = 0, ParseError = 1, Unsupported = 2 };
  Status S = Status::Ok;
  double Ipc = 0.0;
  /// Co-bottleneck resource ids, most loaded first.
  std::vector<uint32_t> Bottlenecks;
  /// The answer pre-encoded as protocol bytes (one KernelAnswer record),
  /// so a cache hit serves a batch slot with a single append — no
  /// per-occurrence struct building or string encoding.
  std::string Wire;
};

/// Sharded cache: kernel text -> Prediction. Entry pointers stay valid
/// for the cache's lifetime: entries are never erased or mutated once
/// published, and unordered_map values are address-stable.
class PredictionCache {
public:
  /// Publishes \p P under \p KernelText unless the key already has an
  /// entry (first insert wins). Returns the key's entry and whether it
  /// existed before this call. Thread-safe.
  std::pair<const Prediction *, bool> insert(const std::string &KernelText,
                                             Prediction P);

  /// The entry of \p KernelText, or null on a miss. Thread-safe.
  const Prediction *lookupPtr(const std::string &KernelText) const;

  /// Number of entries across all shards.
  size_t size() const;

private:
  struct Shard {
    mutable std::mutex M;
    std::unordered_map<std::string, Prediction> Done;
  };
  static constexpr size_t NumShards = 16;

  Shard &shardFor(const std::string &Key);
  const Shard &shardFor(const std::string &Key) const;

  Shard Shards[NumShards];
};

} // namespace serve
} // namespace palmed

#endif // PALMED_SERVE_PREDICTIONCACHE_H
