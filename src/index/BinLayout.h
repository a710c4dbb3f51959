//===----------------------------------------------------------------------===//
///
/// \file
/// Bin layout math for the bin-based deduplication index (§3.1(1)).
///
/// The global hash table is divided into 2^BinBits small tables (bins)
/// so that worker threads can probe and update disjoint bins without
/// locks ("a technique commonly used in existing DHT-based systems").
/// The bin id is the leading BinBits of the SHA-1 digest, so an entry
/// stored inside its bin only needs the digest *suffix* — the paper's
/// prefix-removal memory optimization: "if the prefix value is n bytes,
/// the deduplication system keeps only 20-n bytes for each hash value"
/// (a 2-byte prefix saves 1 GiB on a 4 TB / 8 KiB-chunk system).
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_INDEX_BINLAYOUT_H
#define PADRE_INDEX_BINLAYOUT_H

#include "hash/Fingerprint.h"

#include <cstdint>

namespace padre {

/// Geometry of the bin space and of truncated entries.
class BinLayout {
public:
  /// \p BinBits in [1, 32]; the default 16 matches the paper's 2-byte
  /// prefix example (65536 bins).
  explicit BinLayout(unsigned BinBits = 16);

  std::uint32_t binCount() const { return 1u << BinBits; }

  /// Bin id of \p Fp (its leading BinBits).
  std::uint32_t binOf(const Fingerprint &Fp) const {
    return Fp.binId(BinBits);
  }

  /// Digest bytes wholly determined by the bin id — these are dropped
  /// from stored entries.
  unsigned prefixBytes() const { return BinBits / 8; }

  /// Stored bytes per entry key (the digest minus the dropped prefix).
  unsigned suffixBytes() const {
    return static_cast<unsigned>(Fingerprint::Size) - prefixBytes();
  }

  /// Copies the stored suffix of \p Fp into \p Out (suffixBytes()
  /// bytes).
  void extractSuffix(const Fingerprint &Fp, std::uint8_t *Out) const;

  /// Bytes per CPU index entry: suffix + 8-byte chunk location.
  std::size_t cpuEntryBytes() const {
    return suffixBytes() + sizeof(std::uint64_t);
  }

  /// Bytes per GPU-resident entry: suffix only ("only the hash value
  /// persists in GPU memory, and other metadata … is maintained in
  /// system memory", §3.1(2)).
  std::size_t gpuEntryBytes() const { return suffixBytes(); }

private:
  unsigned BinBits;
};

} // namespace padre

#endif // PADRE_INDEX_BINLAYOUT_H
