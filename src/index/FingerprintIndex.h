//===----------------------------------------------------------------------===//
///
/// \file
/// The shared batch types of the fingerprint index (LookupResult,
/// FlushEvent) and its config. The index itself is index/DedupIndex.h;
/// these types live apart so callers that only trade in batch results
/// need not pull in the bin buffer and tree.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_INDEX_FINGERPRINTINDEX_H
#define PADRE_INDEX_FINGERPRINTINDEX_H

#include "util/Bytes.h"

#include <cstddef>
#include <cstdint>
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
};

} // namespace padre

#endif // PADRE_INDEX_FINGERPRINTINDEX_H
