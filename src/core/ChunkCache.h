//===----------------------------------------------------------------------===//
///
/// \file
/// An LRU cache of decompressed chunks on the read path (extension).
/// Dedup concentrates reads: one hot shared chunk (a golden-image
/// block, a common page) serves many logical blocks, so even a small
/// cache absorbs a large fraction of SSD reads and decompression
/// work. Scrubbing must bypass it — a scrub that reads cached copies
/// would certify corrupt flash as healthy.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_CHUNKCACHE_H
#define PADRE_CORE_CHUNKCACHE_H

#include "obs/MetricsRegistry.h"
#include "util/Bytes.h"

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

namespace padre {

/// Byte-capacity-bounded LRU of decompressed chunks.
class ChunkCache {
public:
  /// \p CapacityBytes bounds the cached payload bytes (metadata is not
  /// counted). Must be nonzero.
  explicit ChunkCache(std::size_t CapacityBytes);

  /// Returns a copy of the cached chunk and promotes it to
  /// most-recently-used; nullopt on miss.
  std::optional<ByteVector> get(std::uint64_t Location);

  /// Returns a copy of the cached chunk, or nullopt. Does not promote
  /// and does not count as a lookup (scrub-and-repair's copies must not
  /// skew hit rates or reorder the LRU).
  std::optional<ByteVector> peek(std::uint64_t Location) const {
    const auto It = Map.find(Location);
    if (It == Map.end())
      return std::nullopt;
    return It->second->Chunk;
  }

  /// True if \p Location is cached. Does not promote and does not
  /// count as a lookup (readahead planning must not skew hit rates).
  bool contains(std::uint64_t Location) const {
    return Map.find(Location) != Map.end();
  }

  /// Inserts (or refreshes) \p Chunk under \p Location, evicting LRU
  /// entries to fit. Chunks larger than the capacity are not cached.
  void put(std::uint64_t Location, ByteVector Chunk);

  /// Drops \p Location if cached (GC / corruption invalidation).
  void invalidate(std::uint64_t Location);

  /// Drops everything.
  void clear();

  /// Attaches metric instruments (hit/miss/eviction counters plus a
  /// cached-bytes gauge — see OBSERVABILITY.md). Instruments are
  /// registered once here and updated through cached pointers on the
  /// hot path. Null detaches; \p Metrics must outlive the cache.
  void setObs(obs::MetricsRegistry *Metrics);

  std::uint64_t hits() const { return Hits; }
  std::uint64_t misses() const { return Misses; }
  std::uint64_t evictions() const { return Evictions; }
  std::size_t cachedBytes() const { return CachedBytes; }
  std::size_t entryCount() const { return Map.size(); }

  /// Hit fraction of all lookups (0 when none).
  double hitRate() const {
    const std::uint64_t Total = Hits + Misses;
    return Total == 0 ? 0.0
                      : static_cast<double>(Hits) /
                            static_cast<double>(Total);
  }

private:
  struct Entry {
    std::uint64_t Location;
    ByteVector Chunk;
  };

  void evictToFit(std::size_t NeededBytes);

  std::size_t CapacityBytes;
  std::size_t CachedBytes = 0;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Evictions = 0;
  std::list<Entry> Lru; ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> Map;
  // Observability (null = disabled).
  obs::Counter *HitCounter = nullptr;
  obs::Counter *MissCounter = nullptr;
  obs::Counter *EvictionCounter = nullptr;
  obs::Gauge *BytesGauge = nullptr;
};

} // namespace padre

#endif // PADRE_CORE_CHUNKCACHE_H
