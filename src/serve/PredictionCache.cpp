//===- serve/PredictionCache.cpp - Sharded prediction cache ---------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "serve/PredictionCache.h"

using namespace palmed;
using namespace palmed::serve;

PredictionCache::Shard &PredictionCache::shardFor(const std::string &Key) {
  return Shards[std::hash<std::string>{}(Key) % NumShards];
}

const PredictionCache::Shard &
PredictionCache::shardFor(const std::string &Key) const {
  return Shards[std::hash<std::string>{}(Key) % NumShards];
}

std::pair<const Prediction *, bool>
PredictionCache::insert(const std::string &KernelText, Prediction P) {
  Shard &S = shardFor(KernelText);
  std::lock_guard<std::mutex> Lock(S.M);
  auto [It, Inserted] = S.Done.try_emplace(KernelText, std::move(P));
  return {&It->second, !Inserted};
}

const Prediction *
PredictionCache::lookupPtr(const std::string &KernelText) const {
  const Shard &S = shardFor(KernelText);
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Done.find(KernelText);
  return It == S.Done.end() ? nullptr : &It->second;
}

size_t PredictionCache::size() const {
  size_t Total = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Total += S.Done.size();
  }
  return Total;
}
