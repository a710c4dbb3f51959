//===----------------------------------------------------------------------===//
///
/// \file
/// Batched LBA reads over a Volume with a restore engine of their own.
/// Volume::readBlocks already reads a whole LBA range as one location
/// batch through the pipeline's default engine; a VolumeReader runs
/// the same mapping walk through an engine built with the caller's
/// ReadConfig (batch depth, decode mode, readahead), whose report then
/// measures exactly this reader's traffic. Snapshot reads take the
/// same path through the snapshot's captured mapping.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_RESTORE_VOLUMEREADER_H
#define PADRE_RESTORE_VOLUMEREADER_H

#include "core/Volume.h"
#include "restore/ReadPipeline.h"

namespace padre {
namespace restore {

/// Batched reads against a volume's current or snapshot mapping.
/// Single-caller semantics like the volume itself; \p Vol (and its
/// pipeline) must outlive the reader.
class VolumeReader {
public:
  VolumeReader(Volume &Vol, const ReadConfig &Config = ReadConfig())
      : Vol(Vol), Pipe(Vol.pipelineForMaintenance(), Config) {}

  /// Reads \p Count blocks at \p Lba through this reader's engine.
  /// Unmapped blocks read as zeros. Returns nullopt on out-of-range or
  /// store corruption (Volume::readBlocks with this engine).
  std::optional<ByteVector> readBlocks(std::uint64_t Lba,
                                       std::uint64_t Count) {
    return Vol.readBlocks(Lba, Count, &Pipe);
  }

  /// Reads \p Count blocks at \p Lba as of snapshot \p Id. Unmapped
  /// blocks read as zeros; nullopt on bad id/range or corruption.
  std::optional<ByteVector> readSnapshotBlocks(Volume::SnapshotId Id,
                                               std::uint64_t Lba,
                                               std::uint64_t Count) {
    return Vol.readSnapshotBlocks(Id, Lba, Count, &Pipe);
  }

  ReadPipeline &pipeline() { return Pipe; }
  const ReadPipeline &pipeline() const { return Pipe; }

private:
  Volume &Vol;
  ReadPipeline Pipe;
};

} // namespace restore
} // namespace padre

#endif // PADRE_RESTORE_VOLUMEREADER_H
