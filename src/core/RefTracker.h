//===----------------------------------------------------------------------===//
///
/// \file
/// Shared chunk reference tracking. A chunk's lifetime is governed by
/// how many logical references point at it — LBA mappings and
/// snapshots, possibly from *several volumes* sharing one dedup domain
/// (service/VolumeService.h). The tracker owns the refcounts, the dead
/// list and garbage collection; volumes translate their mapping
/// changes into reference()/dereference() calls.
///
/// Single-writer semantics, like the volume layer.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_REFTRACKER_H
#define PADRE_CORE_REFTRACKER_H

#include "core/ReductionPipeline.h"

#include <unordered_map>

namespace padre {

/// Reference table for the chunks of one dedup domain.
class ChunkRefTracker {
public:
  /// A persisted chunk reference (persistence and scrub support).
  using Record = ChunkRecord;

  /// Takes one reference on \p Info's chunk. Tracks revivals: a dedup
  /// hit that lands on a chunk whose refcount had dropped to zero.
  void reference(const ChunkWriteInfo &Info);

  /// Releases one reference on \p Location; at zero the chunk joins
  /// the dead list (awaiting collectGarbage).
  void dereference(std::uint64_t Location);

  /// Purges dead chunks through \p Pipeline (index entries + stored
  /// blocks). Returns the number collected.
  std::size_t collectGarbage(ReductionPipeline &Pipeline);

  /// Current reference count of \p Location (0 if unknown/dead).
  std::uint32_t refCount(std::uint64_t Location) const;

  /// Fingerprint of \p Location, if tracked.
  std::optional<Fingerprint> fingerprintOf(std::uint64_t Location) const;

  std::uint64_t liveChunks() const;
  std::uint64_t deadChunks() const;
  std::uint64_t revivedChunks() const { return Revived; }
  std::uint64_t collectedChunks() const { return Collected; }

  /// All records, in unspecified order (persistence/scrub support).
  std::vector<Record> records() const;

  /// Replaces the table (restore path); zero-ref records land on the
  /// dead list.
  void restore(const std::vector<Record> &Records);

private:
  struct ChunkRef {
    std::uint32_t Refs = 0;
    Fingerprint Fp;
  };

  std::unordered_map<std::uint64_t, ChunkRef> Refs;
  std::vector<std::uint64_t> DeadList;
  std::uint64_t Revived = 0;
  std::uint64_t Collected = 0;
};

} // namespace padre

#endif // PADRE_CORE_REFTRACKER_H
