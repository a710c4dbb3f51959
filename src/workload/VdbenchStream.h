//===----------------------------------------------------------------------===//
///
/// \file
/// A vdbench-style synthetic dataset generator (§4: "The vdbench is
/// used to generate the dataset… The deduplication and compression
/// ratio are set to 2.0, which is a common ratio for primary storage
/// systems").
///
/// Like vdbench's `dedupratio`/`compratio` knobs, the stream has two
/// independently controllable properties:
///   * dedup ratio  — logical bytes / unique bytes: each block is
///     either a fresh unique block or a byte-identical duplicate of a
///     recent unique block (a bounded window models the temporal
///     locality the bin buffer exploits);
///   * compression ratio — original / compressed: each unique block is
///     built from 64-byte cells that are either incompressible random
///     bytes or a block-local repeating filler pattern; the random-cell
///     fraction is solved from the target ratio.
///
/// Fully deterministic from the seed: block contents are regenerated on
/// demand from (seed, unique id), so duplicates are exact replays.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_WORKLOAD_VDBENCHSTREAM_H
#define PADRE_WORKLOAD_VDBENCHSTREAM_H

#include "util/Bytes.h"

#include <cstdint>
#include <vector>

namespace padre {

/// Generator knobs (vdbench-equivalent parameters in DESIGN.md §1).
struct WorkloadConfig {
  std::size_t BlockSize = 4096;
  std::uint64_t TotalBytes = 64ull << 20; ///< scaled-down default
  double DedupRatio = 2.0;                ///< logical/unique, ≥ 1
  double CompressRatio = 2.0;             ///< original/compressed, ≥ 1
  /// Duplicates reference one of the last N unique blocks (0 = any
  /// earlier unique block).
  std::size_t DedupWindowBlocks = 4096;
  std::uint64_t Seed = 42;
  /// Distinct byte values used in the incompressible cells. 256 (the
  /// default) makes them true random bytes; smaller alphabets model
  /// text-like content whose *bytes* carry fewer bits, which LZ
  /// matching does not see.
  unsigned ContentAlphabet = 256;
};

/// Deterministic synthetic block stream.
class VdbenchStream {
public:
  explicit VdbenchStream(const WorkloadConfig &Config);

  const WorkloadConfig &config() const { return Config; }

  /// Number of blocks in the stream.
  std::uint64_t blockCount() const { return SourceUnique.size(); }

  /// Total logical bytes (blockCount * BlockSize).
  std::uint64_t totalBytes() const {
    return blockCount() * Config.BlockSize;
  }

  /// Number of distinct unique blocks in the stream.
  std::uint64_t uniqueBlockCount() const { return UniqueCount; }

  /// The dedup ratio actually realized by the generated plan.
  double achievedDedupRatio() const;

  /// True if block \p Index replays an earlier unique block.
  bool isDuplicate(std::uint64_t Index) const;

  /// Fills \p Out (exactly BlockSize bytes) with block \p Index's
  /// content. Deterministic; duplicates are byte-identical replays.
  void fillBlock(std::uint64_t Index, MutableByteSpan Out) const;

  /// Convenience: materializes the whole stream.
  ByteVector generateAll() const;

  /// The random-cell fraction solved from the target compression
  /// ratio (exposed for tests).
  double randomCellFraction() const { return RandomCellFraction; }

private:
  void fillUnique(std::uint64_t UniqueId, MutableByteSpan Out) const;

  WorkloadConfig Config;
  /// Per block: the unique id whose content it carries.
  std::vector<std::uint64_t> SourceUnique;
  /// Per block: 1 if it replays an earlier unique block.
  std::vector<std::uint8_t> Duplicate;
  std::uint64_t UniqueCount = 0;
  double RandomCellFraction = 1.0;
};

} // namespace padre

#endif // PADRE_WORKLOAD_VDBENCHSTREAM_H
