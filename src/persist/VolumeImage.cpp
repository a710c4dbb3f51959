//===----------------------------------------------------------------------===//
///
/// \file
/// Volume image serialization: span-based encode, two-phase validated
/// decode, and the file-path wrappers.
///
//===----------------------------------------------------------------------===//

#include "persist/VolumeImage.h"

#include "compress/Block.h"
#include "hash/Crc32.h"

#include <cassert>
#include <cstdio>
#include <unordered_set>

using namespace padre;
using fault::ErrorCode;
using fault::Status;

namespace {

constexpr std::uint64_t ImageMagic = 0x314D494552444150ull; // "PADREIM1"
constexpr std::uint32_t ImageVersion = 3;
constexpr std::size_t SuperblockSize = 8 + 4 + 4 + 8 + 8 + 8;
constexpr std::size_t ChunkRecordHeader = 8 + 4 + 4 + Fingerprint::Size;
constexpr std::size_t MappingRecordSize = 16;

} // namespace

ImageResult ImageResult::failure(fault::Status St, std::string Why) {
  ImageResult Result;
  Result.Ok = false;
  Result.Status = St;
  if (!Why.empty()) {
    Result.Message = std::move(Why);
  } else {
    Result.Message = St.message();
    if (St.detail() != 0)
      Result.Message += " (detail " + std::to_string(St.detail()) + ")";
  }
  return Result;
}

Status padre::encodeVolumeImage(const Volume &Vol,
                                const ReductionPipeline &Pipeline,
                                ByteVector &Out) {
  const std::vector<Volume::ChunkRecord> Records = Vol.chunkRecords();
  const std::vector<std::uint64_t> &Mapping = Vol.mapping();
  std::uint64_t MappedCount = 0;
  for (std::uint64_t Location : Mapping)
    MappedCount += Location != Volume::Unmapped;

  // Snapshot tables (since format v2): id + sparse mapping each.
  const Volume::SnapshotTable Snapshots = Vol.snapshotTable();
  std::uint64_t SnapshotBytes = 8;
  for (const auto &[Id, SnapMapping] : Snapshots) {
    SnapshotBytes += 16;
    for (std::uint64_t Location : SnapMapping)
      SnapshotBytes += Location != Volume::Unmapped ? MappingRecordSize : 0;
  }

  // Encoded in place with exact capacity, so a store-sized image is
  // neither staged in a second buffer nor regrown mid-encode. The CRC
  // trailer covers everything appended by *this* call — callers may
  // embed the image after their own framing.
  const std::size_t Begin = Out.size();
  Out.reserve(Begin + SuperblockSize + Pipeline.store().storedBytes() +
              Records.size() * ChunkRecordHeader +
              MappedCount * MappingRecordSize + SnapshotBytes + 8 + 4);
  appendLe64(Out, ImageMagic);
  appendLe32(Out, ImageVersion);
  appendLe32(Out, static_cast<std::uint32_t>(Vol.blockSize()));
  appendLe64(Out, Vol.blockCount());
  appendLe64(Out, Records.size());
  appendLe64(Out, MappedCount);

  for (const Volume::ChunkRecord &Record : Records) {
    const auto Block = Pipeline.store().encodedBlock(Record.Location);
    if (!Block) {
      Out.resize(Begin);
      return Status::error(ErrorCode::ChunkMissing, Record.Location);
    }
    appendLe64(Out, Record.Location);
    appendLe32(Out, static_cast<std::uint32_t>(Block->size()));
    appendLe32(Out, Record.Refs);
    appendBytes(Out, ByteSpan(Record.Fp.bytes().data(), Fingerprint::Size));
    appendBytes(Out, *Block);
  }

  for (std::uint64_t Lba = 0; Lba < Mapping.size(); ++Lba) {
    if (Mapping[Lba] == Volume::Unmapped)
      continue;
    appendLe64(Out, Lba);
    appendLe64(Out, Mapping[Lba]);
  }

  appendLe64(Out, Snapshots.size());
  for (const auto &[Id, SnapMapping] : Snapshots) {
    appendLe64(Out, Id);
    std::uint64_t SnapMapped = 0;
    for (std::uint64_t Location : SnapMapping)
      SnapMapped += Location != Volume::Unmapped;
    appendLe64(Out, SnapMapped);
    for (std::uint64_t Lba = 0; Lba < SnapMapping.size(); ++Lba) {
      if (SnapMapping[Lba] == Volume::Unmapped)
        continue;
      appendLe64(Out, Lba);
      appendLe64(Out, SnapMapping[Lba]);
    }
  }

  // Snapshot-id counter (since format v3). Monotonic across deletes,
  // so it cannot be recomputed from the live table: losing it would
  // reissue a deleted snapshot's id and break journal replay of
  // acknowledged SnapshotCreate records.
  appendLe64(Out, Vol.nextSnapshotId());

  appendLe32(Out, crc32c(ByteSpan(Out.data() + Begin, Out.size() - Begin)));
  return {};
}

Status padre::decodeVolumeImage(ByteSpan Image, ReductionPipeline &Pipeline,
                                Volume &Vol) {
  //===------------------------------------------------------------===//
  // Phase 1 — parse and validate everything. No Pipeline/Vol mutation
  // happens in this phase, so any rejection leaves the pair untouched.
  //===------------------------------------------------------------===//
  if (Image.size() < SuperblockSize + 4)
    return Status::error(ErrorCode::ImageCorrupt);

  const std::uint32_t StoredCrc = loadLe32(Image.data() + Image.size() - 4);
  if (crc32c(Image.subspan(0, Image.size() - 4)) != StoredCrc)
    return Status::error(ErrorCode::ImageCorrupt);

  ByteReader Reader(Image.subspan(0, Image.size() - 4));
  std::uint64_t Magic, BlockCount, ChunkCount, MappedCount;
  std::uint32_t Version, ChunkSize;
  if (!Reader.readLe64(Magic) || !Reader.readLe32(Version) ||
      !Reader.readLe32(ChunkSize) || !Reader.readLe64(BlockCount) ||
      !Reader.readLe64(ChunkCount) || !Reader.readLe64(MappedCount))
    return Status::error(ErrorCode::ImageCorrupt);
  if (Magic != ImageMagic)
    return Status::error(ErrorCode::ImageCorrupt);
  if (Version != ImageVersion)
    return Status::error(ErrorCode::StateMismatch, Version);
  if (ChunkSize != Pipeline.config().ChunkSize)
    return Status::error(ErrorCode::StateMismatch, ChunkSize);
  if (BlockCount != Vol.blockCount())
    return Status::error(ErrorCode::StateMismatch, BlockCount);

  struct StagedChunk {
    Volume::ChunkRecord Record;
    ByteVector Block;
  };
  std::vector<StagedChunk> Staged;
  Staged.reserve(ChunkCount);
  std::vector<Volume::ChunkRecord> Records;
  Records.reserve(ChunkCount);
  std::unordered_set<std::uint64_t> SeenLocations;
  for (std::uint64_t I = 0; I < ChunkCount; ++I) {
    Volume::ChunkRecord Record;
    std::uint32_t EncodedSize;
    ByteSpan Digest;
    if (!Reader.readLe64(Record.Location) ||
        !Reader.readLe32(EncodedSize) || !Reader.readLe32(Record.Refs) ||
        !Reader.readBytes(Fingerprint::Size, Digest))
      return Status::error(ErrorCode::ImageCorrupt);
    Record.Fp = Fingerprint::fromBytes(Digest);
    ByteSpan Block;
    if (!Reader.readBytes(EncodedSize, Block))
      return Status::error(ErrorCode::ImageCorrupt);
    const auto View = decodeBlock(Block);
    if (!View)
      return Status::error(ErrorCode::ImageCorrupt, Record.Location);
    // A well-formed block of the retired method: the image is intact,
    // but this build can no longer decode it.
    if (View->Method == BlockMethod::Retired)
      return Status::error(ErrorCode::StateMismatch, Record.Location);
    if (!SeenLocations.insert(Record.Location).second)
      return Status::error(ErrorCode::ImageCorrupt, Record.Location);
    if (Pipeline.store().contains(Record.Location))
      return Status::error(ErrorCode::StateMismatch, Record.Location);
    Staged.push_back({Record, ByteVector(Block.begin(), Block.end())});
    Records.push_back(Record);
  }

  std::vector<std::uint64_t> Mapping(BlockCount, Volume::Unmapped);
  for (std::uint64_t I = 0; I < MappedCount; ++I) {
    std::uint64_t Lba, Location;
    if (!Reader.readLe64(Lba) || !Reader.readLe64(Location))
      return Status::error(ErrorCode::ImageCorrupt);
    if (Lba >= BlockCount)
      return Status::error(ErrorCode::ImageCorrupt, Lba);
    Mapping[Lba] = Location;
  }
  Volume::SnapshotTable Snapshots;
  std::uint64_t SnapshotCount;
  if (!Reader.readLe64(SnapshotCount))
    return Status::error(ErrorCode::ImageCorrupt);
  for (std::uint64_t S = 0; S < SnapshotCount; ++S) {
    std::uint64_t Id, SnapMapped;
    if (!Reader.readLe64(Id) || !Reader.readLe64(SnapMapped))
      return Status::error(ErrorCode::ImageCorrupt);
    std::vector<std::uint64_t> SnapMapping(BlockCount, Volume::Unmapped);
    for (std::uint64_t I = 0; I < SnapMapped; ++I) {
      std::uint64_t Lba, Location;
      if (!Reader.readLe64(Lba) || !Reader.readLe64(Location))
        return Status::error(ErrorCode::ImageCorrupt);
      if (Lba >= BlockCount)
        return Status::error(ErrorCode::ImageCorrupt, Lba);
      SnapMapping[Lba] = Location;
    }
    Snapshots.emplace_back(Id, std::move(SnapMapping));
  }
  std::uint64_t NextSnapshotId;
  if (!Reader.readLe64(NextSnapshotId))
    return Status::error(ErrorCode::ImageCorrupt);
  // The counter must be ahead of every live snapshot: a value that
  // would reissue a live id is structurally inconsistent.
  for (const auto &[Id, SnapMapping] : Snapshots)
    if (Id >= NextSnapshotId)
      return Status::error(ErrorCode::ImageCorrupt, Id);
  if (!Reader.atEnd())
    return Status::error(ErrorCode::ImageCorrupt, Reader.position());

  //===------------------------------------------------------------===//
  // Phase 2 — apply. restoreState runs first (it checks its own
  // preconditions before mutating, and a shared tracker is the one
  // failure phase 1 cannot see); the chunk placements that follow are
  // pre-validated above and cannot fail.
  //===------------------------------------------------------------===//
  if (!Vol.restoreState(std::move(Mapping), Records, std::move(Snapshots),
                        NextSnapshotId))
    return Status::error(ErrorCode::StateMismatch);
  for (StagedChunk &Chunk : Staged) {
    const bool Placed = Pipeline.restoreChunk(
        Chunk.Record.Location, std::move(Chunk.Block), Chunk.Record.Fp);
    assert(Placed && "Pre-validated chunk placement failed");
    (void)Placed;
  }
  return {};
}

ImageResult padre::saveVolumeImage(const std::string &Path,
                                   const Volume &Vol,
                                   const ReductionPipeline &Pipeline) {
  // Build the image in memory (images are store-sized, i.e. small in
  // this reproduction), then write once.
  ByteVector Image;
  if (const Status St = encodeVolumeImage(Vol, Pipeline, Image); !St)
    return ImageResult::failure(
        St, "chunk " + std::to_string(St.detail()) +
                " missing from the store");

  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return ImageResult::failure(Status::error(ErrorCode::IoError),
                                "cannot open " + Path + " for writing");
  const std::size_t Written =
      std::fwrite(Image.data(), 1, Image.size(), File);
  const bool CloseOk = std::fclose(File) == 0;
  if (Written != Image.size() || !CloseOk)
    return ImageResult::failure(Status::error(ErrorCode::IoError),
                                "short write to " + Path);
  return ImageResult::success();
}

ImageResult padre::loadVolumeImage(const std::string &Path,
                                   ReductionPipeline &Pipeline,
                                   Volume &Vol) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return ImageResult::failure(Status::error(ErrorCode::IoError),
                                "cannot open " + Path);
  std::fseek(File, 0, SEEK_END);
  const long Size = std::ftell(File);
  std::fseek(File, 0, SEEK_SET);
  if (Size < 0) {
    std::fclose(File);
    return ImageResult::failure(Status::error(ErrorCode::IoError),
                                "cannot size " + Path);
  }
  ByteVector Image(static_cast<std::size_t>(Size));
  const std::size_t Read = std::fread(Image.data(), 1, Image.size(), File);
  std::fclose(File);
  if (Read != Image.size())
    return ImageResult::failure(Status::error(ErrorCode::IoError),
                                "short read from " + Path);

  if (const Status St =
          decodeVolumeImage(ByteSpan(Image.data(), Image.size()),
                            Pipeline, Vol);
      !St)
    return ImageResult::failure(St);
  return ImageResult::success();
}
