//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract fingerprint-index interface: the contract the dedup engine
/// programs against, extracted from the concrete bin index so the
/// multi-tenant service layer can swap in a sharded implementation
/// (index/ShardedFingerprintIndex.h) without the engine noticing. The
/// shared batch types (LookupResult, FlushEvent) and the index config
/// live here too, since every implementation trades in them.
///
/// Every implementation preserves the paper's lookup order and the
/// bin-partitioning lock-freedom: a fingerprint's bin id (its leading
/// BinBits — the digest prefix) fully determines which per-bin
/// structures it touches, so any partition of the bin space yields the
/// same functional outcomes. That invariant is what makes sharding a
/// pure layout decision (SERVICE.md, "shard map"), asserted by the
/// shard-count-invariance tests in tests/test_service.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_INDEX_FINGERPRINTINDEX_H
#define PADRE_INDEX_FINGERPRINTINDEX_H

#include "index/BinLayout.h"
#include "util/Bytes.h"
#include "util/ThreadPool.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace padre {

/// Where a lookup was satisfied (or not).
enum class LookupOutcome : std::uint8_t {
  Unique = 0,    ///< not found anywhere; inserted as a new entry
  DupBuffer = 1, ///< found in the bin buffer
  DupTree = 2,   ///< found in the bin tree
  DupGpu = 3,    ///< resolved by the GPU before the CPU path
};

/// Per-fingerprint batch result.
struct LookupResult {
  LookupOutcome Outcome = LookupOutcome::Unique;
  std::uint64_t Location = 0; ///< existing location for duplicates
  /// For DupBuffer: entries scanned newest-first before the hit
  /// (1 = the newest entry). Zero otherwise. Feeds the
  /// padre_bin_buffer_hit_depth metric — small depths confirm the
  /// paper's temporal-locality argument for probing the buffer first.
  std::uint32_t BufferDepth = 0;
};

/// A drained bin-buffer run: destined for a sequential SSD write, a
/// bin-tree merge (already performed), and a GPU bin-table update.
struct FlushEvent {
  std::uint32_t Bin = 0;
  ByteVector Suffixes;
  std::vector<std::uint64_t> Locations;
};

/// Index configuration.
struct DedupIndexConfig {
  /// log2 of the bin count; 16 = the paper's 2-byte prefix.
  unsigned BinBits = 16;
  /// Bin-buffer entries per bin before a flush.
  std::size_t BufferCapacityPerBin = 64;
  /// Bin-tree entries per bin (0 = unbounded); bounds index memory.
  std::size_t MaxEntriesPerBin = 0;
  std::uint64_t Seed = 0x5EED5EED5EEDULL;
  /// Shards the bin space into this many contiguous digest-prefix
  /// ranges, each an independent bin index (ShardedFingerprintIndex).
  /// 1 (the default) builds the plain single index. Because bins are
  /// disjoint across shards, every shard count yields bit-identical
  /// outcomes — sharding only changes the introspection granularity
  /// (per-shard stats) available to the service layer.
  unsigned Shards = 1;
};

/// Point-in-time statistics of one index shard (or of a whole unsharded
/// index, which reports itself as its only shard). Hit counters are
/// cumulative; occupancy fields are current.
struct IndexShardStats {
  std::uint64_t BufferHits = 0;
  std::uint64_t TreeHits = 0;
  std::uint64_t GpuHits = 0;
  std::uint64_t UniqueInserts = 0;
  std::uint64_t Evictions = 0;
  std::size_t TreeEntries = 0;
  std::size_t MemoryBytes = 0;
  /// First and one-past-last bin id routed to this shard.
  std::uint32_t BinBegin = 0;
  std::uint32_t BinEnd = 0;
};

/// The fingerprint-index contract (see index/DedupIndex.h for the
/// semantics of each operation; this interface adds nothing beyond
/// virtual dispatch and the shard introspection hooks).
class FingerprintIndex {
public:
  virtual ~FingerprintIndex() = default;

  /// Bin geometry. All shards of one index share a single layout.
  virtual const BinLayout &layout() const = 0;

  /// Batch probe/insert (the paper's CPU lookup order, bin-parallel).
  virtual void processBatch(std::span<const Fingerprint> Fingerprints,
                            std::span<const std::uint64_t> Locations,
                            std::span<const std::uint8_t> KnownDuplicate,
                            ThreadPool &Pool,
                            std::span<LookupResult> Results,
                            std::vector<FlushEvent> &FlushOut) = 0;

  /// Single-item lookup without insertion.
  virtual std::optional<std::uint64_t>
  lookup(const Fingerprint &Fp) const = 0;

  /// Removes an entry (GC / cache-tier demotion). True if one existed.
  virtual bool remove(const Fingerprint &Fp) = 0;

  /// Single-item insert-if-absent (restore path).
  virtual LookupResult upsert(const Fingerprint &Fp, std::uint64_t Location,
                              std::vector<FlushEvent> &FlushOut) = 0;

  /// End-of-run drain of every bin buffer.
  virtual void flushAll(std::vector<FlushEvent> &FlushOut) = 0;

  /// Cumulative per-tier hit counters (sums across shards).
  virtual std::uint64_t bufferHits() const = 0;
  virtual std::uint64_t treeHits() const = 0;
  virtual std::uint64_t gpuHits() const = 0;
  virtual std::uint64_t uniqueInserts() const = 0;
  virtual std::uint64_t evictions() const = 0;

  /// Current occupancy (sums across shards).
  virtual std::size_t treeEntries() const = 0;
  virtual std::size_t memoryBytes() const = 0;

  /// Shard introspection: an unsharded index is its own single shard.
  virtual unsigned shardCount() const { return 1; }
  virtual IndexShardStats shardStats(unsigned Shard) const = 0;
};

/// Builds the index an engine config asks for: the plain bin index when
/// Config.Shards <= 1, the prefix-sharded composite otherwise.
std::unique_ptr<FingerprintIndex>
makeFingerprintIndex(const DedupIndexConfig &Config);

} // namespace padre

#endif // PADRE_INDEX_FINGERPRINTINDEX_H
