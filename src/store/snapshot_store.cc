#include "src/store/snapshot_store.h"

#include <algorithm>
#include <map>

#include "src/common/hash.h"
#include "src/net/topology.h"

namespace symphony {

uint64_t SnapshotChunkKey(std::string_view bytes) {
  // Length is mixed in so a truncated chunk cannot alias a shorter one.
  return Mix64(Fnv1a(bytes) ^ (bytes.size() * 0x9e3779b97f4a7c15ULL));
}

SnapshotStore::SnapshotStore(SnapshotStoreOptions options)
    : options_(options) {
  if (options_.chunk_bytes == 0) {
    options_.chunk_bytes = 4096;
  }
}

SimTime SnapshotStore::Now() const {
  return options_.sim != nullptr ? options_.sim->now() : 0;
}

std::unordered_set<uint64_t>& SnapshotStore::CacheFor(size_t replica) {
  if (replica >= local_.size()) {
    local_.resize(replica + 1);
  }
  return local_[replica];
}

size_t SnapshotStore::NearestHolder(size_t replica, uint64_t chunk_key) const {
  size_t best = SIZE_MAX;
  SimDuration best_dist = 0;
  for (size_t holder = 0; holder < local_.size(); ++holder) {
    if (holder == replica || local_[holder].count(chunk_key) == 0 ||
        (holder < fenced_.size() && fenced_[holder])) {
      continue;  // A fenced replica cannot serve chunks either.
    }
    SimDuration dist = options_.topology != nullptr
                           ? options_.topology->Distance(holder, replica)
                           : 0;
    if (best == SIZE_MAX || dist < best_dist) {
      best = holder;
      best_dist = dist;
    }
  }
  return best;
}

PublishResult SnapshotStore::Publish(size_t replica,
                                     const SnapshotPayload& payload) {
  ++stats_.publishes;
  PublishResult result;

  // Chunk every stream and derive the content key. Streams hash in caller
  // order; journal checkpoints sort their thread paths so the key is stable.
  SnapshotManifest manifest;
  manifest.label = payload.label;
  manifest.model_fingerprint = payload.model_fingerprint;
  manifest.tokens = payload.tokens;
  uint64_t key = Mix64(0x5eedc0de5eedc0deULL ^ payload.model_fingerprint);
  for (const auto& [name, bytes] : payload.streams) {
    StreamManifest stream;
    stream.name = name;
    stream.bytes = bytes.size();
    key = HashCombine(key, Fnv1a(name));
    for (size_t offset = 0; offset < bytes.size();
         offset += options_.chunk_bytes) {
      size_t len = std::min<size_t>(options_.chunk_bytes,
                                    bytes.size() - offset);
      uint64_t chunk_key =
          SnapshotChunkKey(std::string_view(bytes).substr(offset, len));
      stream.chunks.push_back(chunk_key);
      key = HashCombine(key, chunk_key);
    }
    key = HashCombine(key, stream.bytes);
    manifest.bytes += stream.bytes;
    manifest.streams.push_back(std::move(stream));
  }
  manifest.key = key;
  result.key = key;

  std::unordered_set<uint64_t>& cache = CacheFor(replica);
  auto existing = manifests_.find(key);
  if (existing != manifests_.end()) {
    // Identical content already published (possibly by another replica):
    // one more reference, no new bytes. The publisher has the data locally
    // by construction, so its cache learns the chunks too.
    ++existing->second.refs;
    ++stats_.publish_dedup_hits;
    result.deduped = true;
    result.deduped_bytes = manifest.bytes;
    stats_.deduped_bytes += manifest.bytes;
    for (const StreamManifest& stream : existing->second.manifest.streams) {
      for (uint64_t chunk_key : stream.chunks) {
        cache.insert(chunk_key);
      }
    }
  } else {
    // Store chunks, reusing any shared with earlier snapshots (the prefix of
    // a grown stream, or identical content elsewhere).
    for (const auto& [name, bytes] : payload.streams) {
      for (size_t offset = 0; offset < bytes.size();
           offset += options_.chunk_bytes) {
        size_t len = std::min<size_t>(options_.chunk_bytes,
                                      bytes.size() - offset);
        std::string_view slice = std::string_view(bytes).substr(offset, len);
        uint64_t chunk_key = SnapshotChunkKey(slice);
        Chunk& chunk = chunks_[chunk_key];
        if (chunk.refs == 0) {
          chunk.bytes = std::string(slice);
          stored_bytes_ += len;
          result.new_bytes += len;
        } else {
          result.deduped_bytes += len;
        }
        ++chunk.refs;
        cache.insert(chunk_key);
      }
    }
    stats_.published_bytes += result.new_bytes;
    stats_.deduped_bytes += result.deduped_bytes;
    Stored stored;
    stored.manifest = std::move(manifest);
    stored.refs = 1;
    manifests_.emplace(key, std::move(stored));
  }

  if (options_.trace != nullptr) {
    options_.trace->Instant(
        "store",
        "publish:" + payload.label + ":" + std::to_string(result.new_bytes) +
            "B(+" + std::to_string(result.deduped_bytes) + "B dedup)",
        Now());
  }
  return result;
}

StatusOr<FetchResult> SnapshotStore::Fetch(size_t replica, uint64_t key) {
  if (replica < fenced_.size() && fenced_[replica]) {
    ++stats_.fenced_fetches;
    return FailedPreconditionError("replica " + std::to_string(replica) +
                                   " is fenced");
  }
  auto it = manifests_.find(key);
  if (it == manifests_.end()) {
    return NotFoundError("no snapshot " + std::to_string(key));
  }
  ++stats_.fetches;
  const SnapshotManifest& manifest = it->second.manifest;
  std::unordered_set<uint64_t>& cache = CacheFor(replica);

  FetchResult result;
  result.manifest = &manifest;
  // Moved bytes grouped by nearest caching replica (the simulated source);
  // SIZE_MAX groups chunks no replica cache holds (flat-charged fallback).
  // std::map: deterministic transfer order.
  std::map<size_t, uint64_t> moved_by_source;
  for (const StreamManifest& stream : manifest.streams) {
    std::string bytes;
    bytes.reserve(stream.bytes);
    for (uint64_t chunk_key : stream.chunks) {
      auto cit = chunks_.find(chunk_key);
      if (cit == chunks_.end()) {
        return InternalError("snapshot " + std::to_string(key) +
                             " references a dropped chunk");
      }
      const Chunk& chunk = cit->second;
      if (cache.count(chunk_key) > 0) {
        ++result.chunk_hits;
        stats_.local_hit_bytes += chunk.bytes.size();
        bytes.append(chunk.bytes);
        continue;
      }
      // Simulated network transfer: the moving copy may be corrupted by a
      // fault window; recomputing the content address over the received
      // bytes is the checksum. One re-read on mismatch (a fresh fault draw),
      // then give up — the caller falls back to recompute or retries later.
      bool verified = false;
      std::string moved;
      for (uint32_t attempt = 1; attempt <= 2; ++attempt) {
        moved = chunk.bytes;
        if (options_.fault_plan != nullptr) {
          options_.fault_plan->OnKvTransfer(Now(), chunk_key, attempt, &moved);
        }
        if (SnapshotChunkKey(moved) == chunk_key) {
          verified = true;
          break;
        }
        ++stats_.corrupt_chunks_detected;
      }
      if (!verified) {
        ++stats_.corrupt_fetch_failures;
        if (options_.trace != nullptr) {
          options_.trace->Instant(
              "store", "import-corrupt:" + manifest.label, Now());
        }
        return UnavailableError("kv snapshot chunk corrupted in transfer "
                                "(snapshot " + manifest.label + ")");
      }
      moved_by_source[NearestHolder(replica, chunk_key)] += moved.size();
      result.bytes_fetched += moved.size();
      ++result.chunks_fetched;
      stats_.fetched_bytes += moved.size();
      cache.insert(chunk_key);
      bytes.append(moved);
    }
    result.streams.emplace_back(stream.name, std::move(bytes));
  }
  if (result.bytes_fetched > 0) {
    // Nothing moved = nothing charged; only actual packets pay wire time.
    if (options_.topology != nullptr) {
      // One transfer per source replica, all racing in parallel over their
      // own routes (and queueing where those routes share links); the fetch
      // completes when the slowest source delivers.
      SimTime now = Now();
      SimTime arrival = now;
      uint64_t unsourced = 0;
      for (const auto& [source, moved_bytes] : moved_by_source) {
        if (source == SIZE_MAX) {
          unsourced = moved_bytes;
          continue;
        }
        arrival = std::max(
            arrival, options_.topology->Transfer(source, replica, moved_bytes,
                                                 "store:" + manifest.label));
      }
      result.transfer_time = arrival - now;
      if (unsourced > 0 && options_.cost != nullptr) {
        result.transfer_time = std::max(
            result.transfer_time, options_.cost->NetworkTime(unsourced));
      }
    } else if (options_.cost != nullptr) {
      result.transfer_time = options_.cost->NetworkTime(result.bytes_fetched);
    }
  }
  if (options_.trace != nullptr) {
    if (result.bytes_fetched > 0) {
      options_.trace->Span("store",
                           "import:" + manifest.label + ":" +
                               std::to_string(result.bytes_fetched) + "B",
                           Now(), result.transfer_time);
    } else {
      options_.trace->Instant("store", "import-hit:" + manifest.label, Now());
    }
  }
  return result;
}

Status SnapshotStore::Acquire(uint64_t key) {
  auto it = manifests_.find(key);
  if (it == manifests_.end()) {
    return NotFoundError("no snapshot " + std::to_string(key));
  }
  ++it->second.refs;
  return Status::Ok();
}

Status SnapshotStore::Release(uint64_t key) {
  auto it = manifests_.find(key);
  if (it == manifests_.end()) {
    return NotFoundError("no snapshot " + std::to_string(key));
  }
  ++stats_.releases;
  if (--it->second.refs > 0) {
    return Status::Ok();
  }
  // Last reference: drop the manifest and any chunks it alone kept alive.
  for (const StreamManifest& stream : it->second.manifest.streams) {
    for (uint64_t chunk_key : stream.chunks) {
      auto cit = chunks_.find(chunk_key);
      if (cit == chunks_.end()) {
        continue;
      }
      if (--cit->second.refs == 0) {
        stored_bytes_ -= cit->second.bytes.size();
        for (auto& cache : local_) {
          cache.erase(chunk_key);
        }
        chunks_.erase(cit);
        ++stats_.chunks_dropped;
      }
    }
  }
  manifests_.erase(it);
  ++stats_.snapshots_dropped;
  return Status::Ok();
}

void SnapshotStore::SetReplicaFenced(size_t replica, bool fenced) {
  if (replica >= fenced_.size()) {
    fenced_.resize(replica + 1, false);
  }
  fenced_[replica] = fenced;
}

void SnapshotStore::ForgetReplica(size_t replica) {
  if (replica < local_.size()) {
    local_[replica].clear();
  }
}

const SnapshotManifest* SnapshotStore::Find(uint64_t key) const {
  auto it = manifests_.find(key);
  return it == manifests_.end() ? nullptr : &it->second.manifest;
}

}  // namespace symphony
