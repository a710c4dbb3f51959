//===----------------------------------------------------------------------===//
///
/// \file
/// The logical chunk store: what the destage stage writes and the read
/// path fetches. Maps a chunk *location* (a monotonically assigned id
/// recorded in the dedup index and in stream recipes) to the encoded
/// compressed block for that chunk. Duplicate chunks are never stored —
/// their recipes point at the original unique chunk's location.
///
/// Service time for the physical I/O is charged by the pipeline via the
/// SSD model; this class is the functional content so read-back
/// verification is possible.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_CHUNKSTORE_H
#define PADRE_CORE_CHUNKSTORE_H

#include "util/Bytes.h"

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace padre {

/// A written stream's reconstruction recipe: one chunk location per
/// logical chunk, in stream order.
struct StreamRecipe {
  std::vector<std::uint64_t> ChunkLocations;
  std::vector<std::uint32_t> ChunkSizes;

  std::uint64_t logicalBytes() const {
    std::uint64_t Total = 0;
    for (std::uint32_t Size : ChunkSizes)
      Total += Size;
    return Total;
  }
};

/// Thread-safe location -> encoded-block store.
class ChunkStore {
public:
  /// Stores \p Block (an encoded compress/Block.h block) under
  /// \p Location. Locations must be unique.
  void put(std::uint64_t Location, ByteVector Block);

  /// True if \p Location holds a chunk.
  bool contains(std::uint64_t Location) const;

  /// The encoded block at \p Location; nullopt if absent.
  std::optional<ByteSpan> encodedBlock(std::uint64_t Location) const;

  /// Removes the chunk at \p Location (garbage collection). Returns
  /// the encoded bytes freed (0 if absent).
  std::uint64_t erase(std::uint64_t Location);

  /// Number of live (unique) chunks.
  std::size_t chunkCount() const;

  /// Encoded bytes of live chunks (headers included).
  std::uint64_t storedBytes() const;

  /// Encoded bytes freed by `erase` since construction.
  std::uint64_t freedBytes() const;

  /// Visits every live chunk (persistence support). Iteration order is
  /// unspecified; the callback must not reenter the store.
  void forEach(
      const std::function<void(std::uint64_t, ByteSpan)> &Visit) const;

  /// Fault injection for tests and scrub drills: XORs one byte of the
  /// stored block at \p Location. Returns false if absent or the
  /// offset is out of range.
  bool corruptForTesting(std::uint64_t Location, std::size_t ByteOffset);

private:
  mutable std::mutex Mutex;
  std::unordered_map<std::uint64_t, ByteVector> Blocks;
  std::uint64_t TotalStoredBytes = 0;
  std::uint64_t TotalFreedBytes = 0;
};

} // namespace padre

#endif // PADRE_CORE_CHUNKSTORE_H
