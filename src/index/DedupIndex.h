//===----------------------------------------------------------------------===//
///
/// \file
/// The CPU-side deduplication index facade: bin buffer in front of the
/// bin tree, probed and maintained bin-parallel without locks.
///
/// A batch of fingerprints is scattered to per-bin buckets, the bin
/// space is partitioned across worker threads (each bin is owned by
/// exactly one worker for the batch — the DHT-style trick of §3.1(1)),
/// and each worker runs the paper's CPU lookup order for its bins:
/// bin buffer first (temporal locality), then bin tree, else unique →
/// insert into the bin buffer. A filling buffer drains into a flush
/// event (sequential SSD write + bin-tree merge + GPU-table update are
/// performed by the engine, §3.3).
///
/// Bins share no state, so the bin space is the only partition the
/// index needs: every tenant of the multi-tenant service shares this
/// one index (SERVICE.md §1). The shared batch types (LookupResult,
/// FlushEvent, DedupIndexConfig) live in index/FingerprintIndex.h.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_INDEX_DEDUPINDEX_H
#define PADRE_INDEX_DEDUPINDEX_H

#include "index/BinBuffer.h"
#include "index/BinLayout.h"
#include "index/CpuBinStore.h"
#include "index/FingerprintIndex.h"
#include "util/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace padre {

/// Lock-free-by-partitioning dedup index (bin buffer + bin tree).
class DedupIndex {
public:
  explicit DedupIndex(const DedupIndexConfig &Config = DedupIndexConfig());

  const BinLayout &layout() const { return Layout; }

  /// Processes a batch: for each fingerprint, runs the CPU lookup
  /// order and fills \p Results. Unique fingerprints are inserted with
  /// their \p Locations value. \p KnownDuplicate (same length, may be
  /// empty) marks items the GPU already resolved: they are recorded as
  /// DupGpu and skip the CPU path (the pipeline fills their location).
  /// Buffer drains are merged into the tree immediately and appended
  /// to \p FlushOut for the engine's SSD/GPU follow-up.
  void processBatch(std::span<const Fingerprint> Fingerprints,
                    std::span<const std::uint64_t> Locations,
                    std::span<const std::uint8_t> KnownDuplicate,
                    ThreadPool &Pool, std::span<LookupResult> Results,
                    std::vector<FlushEvent> &FlushOut);

  /// Single-item lookup without insertion (read path / tests).
  std::optional<std::uint64_t> lookup(const Fingerprint &Fp) const;

  /// Removes \p Fp from the buffer or tree (garbage collection of a
  /// dead chunk's entry). Returns true if an entry was removed.
  bool remove(const Fingerprint &Fp);

  /// Single-item insert-if-absent (restore path / tools): runs the
  /// normal lookup order and inserts \p Fp at \p Location when unique.
  /// Drains land in \p FlushOut exactly as in processBatch.
  LookupResult upsert(const Fingerprint &Fp, std::uint64_t Location,
                      std::vector<FlushEvent> &FlushOut);

  /// Drains every non-empty bin buffer into flush events (end-of-run
  /// flush), merging into the tree as in processBatch.
  void flushAll(std::vector<FlushEvent> &FlushOut);

  /// Cumulative per-stage hit counters.
  std::uint64_t bufferHits() const { return BufferHits.load(); }
  std::uint64_t treeHits() const { return TreeHits.load(); }
  std::uint64_t gpuHits() const { return GpuHits.load(); }
  std::uint64_t uniqueInserts() const { return UniqueInserts.load(); }
  std::uint64_t evictions() const { return Evictions.load(); }

  /// Entries in the tree (buffered entries excluded).
  std::size_t treeEntries() const { return Tree.totalEntries(); }

  /// Index memory: tree entry storage plus buffered entries.
  std::size_t memoryBytes() const;

private:
  /// Runs the CPU path for one fingerprint (caller owns its bin).
  LookupResult processOne(std::uint32_t Bin, const Fingerprint &Fp,
                          std::uint64_t Location,
                          std::vector<FlushEvent> &LocalFlush);

  BinLayout Layout;
  DedupIndexConfig Config;
  BinBuffer Buffer;
  CpuBinStore Tree;

  std::atomic<std::uint64_t> BufferHits{0};
  std::atomic<std::uint64_t> TreeHits{0};
  std::atomic<std::uint64_t> GpuHits{0};
  std::atomic<std::uint64_t> UniqueInserts{0};
  std::atomic<std::uint64_t> Evictions{0};
};

/// A heap-allocated index built from \p Config.
inline std::unique_ptr<DedupIndex>
makeFingerprintIndex(const DedupIndexConfig &Config) {
  return std::make_unique<DedupIndex>(Config);
}

} // namespace padre

#endif // PADRE_INDEX_DEDUPINDEX_H
