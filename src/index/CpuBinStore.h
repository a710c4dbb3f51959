//===----------------------------------------------------------------------===//
///
/// \file
/// The CPU-side bin tree (§3.3 "check the bin tree to store most of the
/// hash table entries"): the main in-memory index, one sorted entry run
/// per bin. Entries are prefix-truncated (index/BinLayout.h) and held
/// "in memory space only, not disk space" (§3.1(1)); when a bin exceeds
/// its capacity, random entries are evicted — the index may then miss
/// some duplicates, which the paper accepts for primary storage.
///
/// Inserts arrive only as sorted drained runs from the bin buffer, so
/// each bin is maintained by an O(n) merge instead of per-entry tree
/// rebalancing. No internal locking: the DedupIndex partitions bins
/// across workers.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_INDEX_CPUBINSTORE_H
#define PADRE_INDEX_CPUBINSTORE_H

#include "index/BinLayout.h"
#include "util/Bytes.h"
#include "util/Random.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace padre {

/// All CPU-resident bins of the dedup index.
class CpuBinStore {
public:
  /// \p MaxEntriesPerBin bounds each bin's memory (0 = unbounded);
  /// \p Seed drives the random-replacement eviction.
  CpuBinStore(const BinLayout &Layout, std::size_t MaxEntriesPerBin,
              std::uint64_t Seed);

  /// Binary-searches \p Bin for \p Suffix. Returns the location on hit.
  std::optional<std::uint64_t> lookup(std::uint32_t Bin,
                                      const std::uint8_t *Suffix) const;

  /// Merges a sorted drained run (\p Suffixes flat / \p Locations) into
  /// \p Bin, then evicts random entries down to the capacity bound.
  /// Returns the number of evicted entries.
  std::size_t mergeRun(std::uint32_t Bin, ByteSpan Suffixes,
                       const std::vector<std::uint64_t> &Locations);

  /// Removes one entry matching \p Suffix from \p Bin (garbage
  /// collection of a dead chunk). Returns true if found.
  bool remove(std::uint32_t Bin, const std::uint8_t *Suffix);

  /// Entries currently stored in \p Bin.
  std::size_t entryCount(std::uint32_t Bin) const;

  /// Entries across all bins.
  std::size_t totalEntries() const;

  /// Bytes of entry storage across all bins (suffixes + locations) —
  /// the quantity the prefix-removal optimization shrinks.
  std::size_t memoryBytes() const;

  const BinLayout &layout() const { return Layout; }

private:
  struct Bin {
    ByteVector Suffixes; ///< flat, sorted, SuffixBytes per entry
    std::vector<std::uint64_t> Locations;
    Random Rng;
  };

  BinLayout Layout;
  std::size_t MaxEntriesPerBin;
  unsigned SuffixBytes;
  std::vector<Bin> Bins;
};

} // namespace padre

#endif // PADRE_INDEX_CPUBINSTORE_H
