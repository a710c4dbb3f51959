//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the LBA volume layer: overwrite remapping, TRIM,
/// reference counting across duplicates, revival of dead chunks by
/// dedup hits, garbage collection (including index purging), space
/// accounting, and a randomized model-based property test against a
/// shadow byte array.
///
//===----------------------------------------------------------------------===//

#include "core/BackgroundReducer.h"
#include "core/Volume.h"
#include "restore/VolumeReader.h"
#include "util/Random.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>

using namespace padre;

namespace {

constexpr std::size_t BlockSize = 4096;

struct VolumeFixture : ::testing::Test {
  std::unique_ptr<ReductionPipeline> Pipeline;
  std::unique_ptr<Volume> Vol;

  void SetUp() override { rebuild(PipelineMode::CpuOnly); }

  void rebuild(PipelineMode Mode, std::uint64_t Blocks = 1024) {
    PipelineConfig Config;
    Config.Mode = Mode;
    Config.Dedup.Index.BinBits = 8;
    Config.Dedup.Index.BufferCapacityPerBin = 4;
    Pipeline = std::make_unique<ReductionPipeline>(Platform::paper(),
                                                   Config);
    VolumeConfig VolConfig;
    VolConfig.BlockCount = Blocks;
    Vol = std::make_unique<Volume>(*Pipeline, VolConfig);
  }

  /// A deterministic compressible block whose content is `Tag`.
  static ByteVector blockOf(std::uint64_t Tag) {
    ByteVector Data(BlockSize);
    Random Rng(Tag * 7919 + 1);
    // Half filler, half random — compressible and tag-unique.
    std::uint8_t Filler[64];
    Rng.fillBytes(Filler, sizeof(Filler));
    for (std::size_t I = 0; I < Data.size(); I += 64) {
      if ((I / 64) % 2 == 0)
        std::copy(Filler, Filler + 64, Data.data() + I);
      else
        Rng.fillBytes(Data.data() + I, 64);
    }
    return Data;
  }
};

} // namespace

TEST_F(VolumeFixture, ReadYourWrites) {
  const ByteVector Data = blockOf(1);
  ASSERT_TRUE(Vol->writeBlocks(10, ByteSpan(Data.data(), Data.size())));
  const auto Read = Vol->readBlocks(10, 1);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Data);
}

TEST_F(VolumeFixture, UnmappedBlocksReadAsZeros) {
  const auto Read = Vol->readBlocks(5, 2);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(Read->size(), 2 * BlockSize);
  for (std::uint8_t Byte : *Read)
    EXPECT_EQ(Byte, 0);
}

TEST_F(VolumeFixture, OutOfRangeRejected) {
  const ByteVector Data = blockOf(2);
  EXPECT_FALSE(Vol->writeBlocks(Vol->blockCount(),
                                ByteSpan(Data.data(), Data.size())));
  EXPECT_FALSE(Vol->readBlocks(Vol->blockCount() - 1, 2).has_value());
  EXPECT_FALSE(Vol->trim(Vol->blockCount(), 1));
}

TEST_F(VolumeFixture, OverwriteRemapsAndReadsNewData) {
  const ByteVector First = blockOf(3);
  const ByteVector Second = blockOf(4);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(First.data(), First.size())));
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Second.data(), Second.size())));
  const auto Read = Vol->readBlocks(0, 1);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Second);
  // The first chunk is now dead, awaiting GC.
  EXPECT_EQ(Vol->stats().DeadChunks, 1u);
}

TEST_F(VolumeFixture, DuplicateBlocksShareOneChunk) {
  const ByteVector Data = blockOf(5);
  for (std::uint64_t Lba = 0; Lba < 8; ++Lba)
    ASSERT_TRUE(Vol->writeBlocks(Lba, ByteSpan(Data.data(), Data.size())));
  const VolumeStats Stats = Vol->stats();
  EXPECT_EQ(Stats.MappedBlocks, 8u);
  EXPECT_EQ(Stats.LiveChunks, 1u);
  EXPECT_LT(Stats.spaceAmplification(), 0.2); // 1 compressed chunk / 8
}

TEST_F(VolumeFixture, TrimDereferencesAndGcFrees) {
  const ByteVector Data = blockOf(6);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  const std::uint64_t StoredBefore = Pipeline->store().storedBytes();
  ASSERT_GT(StoredBefore, 0u);

  ASSERT_TRUE(Vol->trim(0, 1));
  EXPECT_EQ(Vol->stats().DeadChunks, 1u);
  // Still resident until GC.
  EXPECT_EQ(Pipeline->store().storedBytes(), StoredBefore);

  EXPECT_EQ(Vol->collectGarbage(), 1u);
  EXPECT_EQ(Pipeline->store().storedBytes(), 0u);
  EXPECT_EQ(Vol->stats().DeadChunks, 0u);
  // Trimmed block reads as zeros.
  const auto Read = Vol->readBlocks(0, 1);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ((*Read)[0], 0);
}

TEST_F(VolumeFixture, SharedChunkSurvivesPartialTrim) {
  const ByteVector Data = blockOf(7);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Vol->writeBlocks(1, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Vol->trim(0, 1));
  EXPECT_EQ(Vol->collectGarbage(), 0u); // still referenced by LBA 1
  const auto Read = Vol->readBlocks(1, 1);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Data);
}

TEST_F(VolumeFixture, DeadChunkRevivedByDedupHit) {
  const ByteVector Data = blockOf(8);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Vol->trim(0, 1));
  EXPECT_EQ(Vol->stats().DeadChunks, 1u);

  // Rewriting the same content before GC dedups against the dead
  // chunk and revives it — no new chunk is stored.
  const std::size_t ChunksBefore = Pipeline->store().chunkCount();
  ASSERT_TRUE(Vol->writeBlocks(3, ByteSpan(Data.data(), Data.size())));
  EXPECT_EQ(Pipeline->store().chunkCount(), ChunksBefore);
  EXPECT_EQ(Vol->stats().DeadChunks, 0u);
  EXPECT_EQ(Vol->stats().RevivedChunks, 1u);
  EXPECT_EQ(Vol->collectGarbage(), 0u);
  const auto Read = Vol->readBlocks(3, 1);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Data);
}

TEST_F(VolumeFixture, GcPurgesIndexSoContentIsWrittenFresh) {
  const ByteVector Data = blockOf(9);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Vol->trim(0, 1));
  ASSERT_EQ(Vol->collectGarbage(), 1u);

  // After GC the index no longer knows the content: rewriting it must
  // store a fresh chunk (and read back correctly).
  ASSERT_TRUE(Vol->writeBlocks(5, ByteSpan(Data.data(), Data.size())));
  EXPECT_EQ(Pipeline->store().chunkCount(), 1u);
  EXPECT_EQ(Vol->stats().RevivedChunks, 0u);
  const auto Read = Vol->readBlocks(5, 1);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Data);
}

TEST_F(VolumeFixture, MultiBlockWriteSpansMapping) {
  ByteVector Data;
  for (std::uint64_t Tag = 10; Tag < 14; ++Tag)
    appendBytes(Data, ByteSpan(blockOf(Tag).data(), BlockSize));
  ASSERT_TRUE(Vol->writeBlocks(100, ByteSpan(Data.data(), Data.size())));
  const auto Read = Vol->readBlocks(100, 4);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Data);
  EXPECT_EQ(Vol->stats().MappedBlocks, 4u);
}

TEST_F(VolumeFixture, RefCountsTrackSharing) {
  const ByteVector Data = blockOf(15);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Vol->writeBlocks(1, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Vol->writeBlocks(2, ByteSpan(Data.data(), Data.size())));
  // All three LBAs map to one location with refcount 3.
  const VolumeStats Stats = Vol->stats();
  EXPECT_EQ(Stats.LiveChunks, 1u);
  ASSERT_TRUE(Vol->trim(1, 1));
  EXPECT_EQ(Vol->stats().LiveChunks, 1u);
  EXPECT_EQ(Vol->collectGarbage(), 0u);
}

TEST_F(VolumeFixture, StatsSpaceAmplificationBelowOne) {
  WorkloadConfig Load;
  Load.TotalBytes = 64 * BlockSize;
  Load.DedupRatio = 2.0;
  Load.CompressRatio = 2.0;
  const ByteVector Data = VdbenchStream(Load).generateAll();
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  const VolumeStats Stats = Vol->stats();
  EXPECT_EQ(Stats.MappedBlocks, 64u);
  EXPECT_LT(Stats.spaceAmplification(), 0.5);
}

//===----------------------------------------------------------------------===//
// Background (offline) reduction — the §1 strawman implemented for real
//===----------------------------------------------------------------------===//

TEST_F(VolumeFixture, RawWritesBypassReduction) {
  const ByteVector Data = blockOf(60);
  ASSERT_TRUE(Vol->writeBlocksRaw(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Vol->writeBlocksRaw(1, ByteSpan(Data.data(), Data.size())));
  // No dedup (two identical blocks stored twice), no compression
  // (stored bytes exceed the logical size thanks to headers).
  EXPECT_EQ(Pipeline->store().chunkCount(), 2u);
  EXPECT_GE(Pipeline->store().storedBytes(), 2 * Data.size());
  // Read-back still works.
  EXPECT_EQ(*Vol->readBlocks(0, 1), Data);
}

TEST_F(VolumeFixture, BackgroundReduceShrinksAndPreservesData) {
  // Populate raw with duplicate-rich content, then sweep.
  ByteVector Image;
  for (std::uint64_t I = 0; I < 32; ++I)
    appendBytes(Image, ByteSpan(blockOf(70 + I % 8).data(), BlockSize));
  ASSERT_TRUE(Vol->writeBlocksRaw(0, ByteSpan(Image.data(), Image.size())));
  const std::uint64_t RawBytes = Vol->stats().PhysicalBytes;

  const BackgroundReduceStats Stats = backgroundReduce(*Vol);
  EXPECT_EQ(Stats.BlocksProcessed, 32u);
  EXPECT_EQ(Stats.ReadFailures, 0u);
  EXPECT_LT(Stats.BytesAfter, RawBytes / 3); // 4x dedup x ~2x compression
  EXPECT_GT(Stats.ChunksCollected, 0u);

  // Data identical after the sweep.
  const auto Read = Vol->readBlocks(0, 32);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Image);
  EXPECT_EQ(Vol->scrub().CorruptChunks, 0u);
}

TEST_F(VolumeFixture, BackgroundReduceWearsNandMoreThanInline) {
  ByteVector Image;
  for (std::uint64_t I = 0; I < 32; ++I)
    appendBytes(Image, ByteSpan(blockOf(80 + I % 8).data(), BlockSize));

  // Background scheme on this volume.
  ASSERT_TRUE(Vol->writeBlocksRaw(0, ByteSpan(Image.data(), Image.size())));
  backgroundReduce(*Vol);
  const std::uint64_t BackgroundNand =
      Pipeline->ssd().nandBytesWritten();
  const std::uint64_t BackgroundHost =
      Pipeline->ssd().hostBytesWritten();

  // Inline scheme on a fresh volume.
  rebuild(PipelineMode::CpuOnly);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Image.data(), Image.size())));
  Vol->flush();
  const std::uint64_t InlineNand = Pipeline->ssd().nandBytesWritten();

  // Host bytes were counted once in both schemes (the sweep's
  // rewrites are internal I/O)…
  EXPECT_EQ(BackgroundHost, Image.size());
  // …but the background scheme physically wrote the raw copy first:
  // strictly more NAND wear than inline, and more than no reduction.
  EXPECT_GT(BackgroundNand, InlineNand * 2);
  EXPECT_GT(BackgroundNand, Image.size());
}

TEST_F(VolumeFixture, BackgroundReduceSkipsCorruptBlocks) {
  const ByteVector Data = blockOf(90);
  ASSERT_TRUE(Vol->writeBlocksRaw(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Pipeline->corruptChunkForTesting(Vol->mapping()[0], 25));
  const BackgroundReduceStats Stats = backgroundReduce(*Vol);
  EXPECT_EQ(Stats.ReadFailures, 1u);
  EXPECT_EQ(Stats.BlocksProcessed, 0u);
  // The corrupt block stays mapped to its original (still detectable).
  EXPECT_EQ(Vol->scrub().CorruptChunks, 1u);
}

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

TEST_F(VolumeFixture, SnapshotPreservesPointInTimeData) {
  const ByteVector Before = blockOf(20);
  const ByteVector After = blockOf(21);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Before.data(), Before.size())));
  const Volume::SnapshotId Snap = Vol->createSnapshot();
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(After.data(), After.size())));

  const auto Live = Vol->readBlocks(0, 1);
  const auto Old = Vol->readSnapshotBlocks(Snap, 0, 1);
  ASSERT_TRUE(Live.has_value());
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(*Live, After);
  EXPECT_EQ(*Old, Before);
}

TEST_F(VolumeFixture, SnapshotProtectsChunksFromGc) {
  const ByteVector Data = blockOf(22);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  const Volume::SnapshotId Snap = Vol->createSnapshot();

  // Trim the live mapping: the snapshot still references the chunk.
  ASSERT_TRUE(Vol->trim(0, 1));
  EXPECT_EQ(Vol->collectGarbage(), 0u);
  const auto Old = Vol->readSnapshotBlocks(Snap, 0, 1);
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(*Old, Data);

  // Deleting the snapshot releases the last reference.
  ASSERT_TRUE(Vol->deleteSnapshot(Snap));
  EXPECT_EQ(Vol->collectGarbage(), 1u);
  EXPECT_EQ(Pipeline->store().chunkCount(), 0u);
}

TEST_F(VolumeFixture, SnapshotSpaceGrowsWithDivergenceOnly) {
  // Fill 32 blocks, snapshot, overwrite 4: physical space holds the
  // shared chunks once plus only the 4 diverged ones.
  for (std::uint64_t I = 0; I < 32; ++I) {
    const ByteVector Data = blockOf(100 + I);
    ASSERT_TRUE(Vol->writeBlocks(I, ByteSpan(Data.data(), Data.size())));
  }
  const std::size_t ChunksBefore = Pipeline->store().chunkCount();
  const Volume::SnapshotId Snap = Vol->createSnapshot();
  EXPECT_EQ(Pipeline->store().chunkCount(), ChunksBefore); // free

  for (std::uint64_t I = 0; I < 4; ++I) {
    const ByteVector Data = blockOf(200 + I);
    ASSERT_TRUE(Vol->writeBlocks(I, ByteSpan(Data.data(), Data.size())));
  }
  Vol->collectGarbage();
  EXPECT_EQ(Pipeline->store().chunkCount(), ChunksBefore + 4);
  ASSERT_TRUE(Vol->deleteSnapshot(Snap));
  Vol->collectGarbage();
  EXPECT_EQ(Pipeline->store().chunkCount(), ChunksBefore); // diverged-from 4 freed
}

TEST_F(VolumeFixture, MultipleSnapshotsAreIndependent) {
  const ByteVector A = blockOf(30), B = blockOf(31), C = blockOf(32);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(A.data(), A.size())));
  const auto SnapA = Vol->createSnapshot();
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(B.data(), B.size())));
  const auto SnapB = Vol->createSnapshot();
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(C.data(), C.size())));

  EXPECT_EQ(Vol->snapshotIds().size(), 2u);
  EXPECT_EQ(*Vol->readSnapshotBlocks(SnapA, 0, 1), A);
  EXPECT_EQ(*Vol->readSnapshotBlocks(SnapB, 0, 1), B);
  EXPECT_EQ(*Vol->readBlocks(0, 1), C);
  EXPECT_TRUE(Vol->deleteSnapshot(SnapA));
  EXPECT_FALSE(Vol->deleteSnapshot(SnapA)); // already gone
  EXPECT_EQ(*Vol->readSnapshotBlocks(SnapB, 0, 1), B);
  EXPECT_FALSE(Vol->readSnapshotBlocks(SnapA, 0, 1).has_value());
}

//===----------------------------------------------------------------------===//
// Scrubbing
//===----------------------------------------------------------------------===//

TEST_F(VolumeFixture, ScrubCleanVolumeFindsNothing) {
  for (std::uint64_t I = 0; I < 16; ++I) {
    const ByteVector Data = blockOf(300 + I % 5);
    ASSERT_TRUE(Vol->writeBlocks(I, ByteSpan(Data.data(), Data.size())));
  }
  const Volume::ScrubReport Report = Vol->scrub();
  EXPECT_GT(Report.ChunksScanned, 0u);
  EXPECT_EQ(Report.CorruptChunks, 0u);
  EXPECT_TRUE(Report.BadLocations.empty());
}

TEST_F(VolumeFixture, ScrubDetectsPayloadCorruption) {
  const ByteVector Data = blockOf(40);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  const std::uint64_t Location = Vol->mapping()[0];
  // Flip a payload byte: the block CRC rejects the chunk.
  ASSERT_TRUE(Pipeline->corruptChunkForTesting(Location, 20));
  const Volume::ScrubReport Report = Vol->scrub();
  EXPECT_EQ(Report.CorruptChunks, 1u);
  ASSERT_EQ(Report.BadLocations.size(), 1u);
  EXPECT_EQ(Report.BadLocations[0], Location);
  // The read path fails loudly too.
  EXPECT_FALSE(Vol->readBlocks(0, 1).has_value());
}

TEST_F(VolumeFixture, ScrubDetectsMisdirectedBlock) {
  // A block that decodes fine but holds the wrong content (as after a
  // misdirected write): only the fingerprint check catches it.
  const ByteVector Right = blockOf(41);
  const ByteVector Wrong = blockOf(42);
  ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Right.data(), Right.size())));
  const std::uint64_t Location = Vol->mapping()[0];
  Pipeline->eraseChunk(Location);
  // Re-insert a *valid* block with the wrong content under the old
  // location; keep the volume's fingerprint record for `Right`.
  const ByteVector WrongBlock =
      encodeBlock(BlockMethod::Raw,
                  static_cast<std::uint32_t>(Wrong.size()),
                  ByteSpan(Wrong.data(), Wrong.size()));
  ASSERT_TRUE(Pipeline->restoreChunk(
      Location, WrongBlock, Fingerprint::ofData(ByteSpan(Wrong.data(),
                                                         Wrong.size()))));
  const Volume::ScrubReport Report = Vol->scrub();
  EXPECT_EQ(Report.CorruptChunks, 1u);
}

TEST_F(VolumeFixture, ScrubChargesTheFingerprintOfEveryChunk) {
  for (std::uint64_t I = 0; I < 300; ++I) {
    const ByteVector Data = blockOf(500 + I);
    ASSERT_TRUE(Vol->writeBlocks(I, ByteSpan(Data.data(), Data.size())));
  }
  std::vector<std::uint64_t> Locations;
  for (const Volume::ChunkRecord &Record : Vol->chunkRecords())
    Locations.push_back(Record.Location);
  std::sort(Locations.begin(), Locations.end());
  const std::size_t N = Locations.size();
  ASSERT_GT(N, Pipeline->reader().config().BatchDepth);

  // The same reads scrub issues (location order, batch-depth slices,
  // cache bypassed), so the difference is what scrub adds on top.
  const ResourceLedger &Ledger = Pipeline->ledger();
  const double Before = Ledger.busyMicros(Resource::CpuPool);
  std::vector<ByteVector> Chunks;
  ASSERT_TRUE(Pipeline->reader().readLocations(Locations, Chunks, nullptr,
                                               /*BypassCache=*/true));
  const double ReadUs = Ledger.busyMicros(Resource::CpuPool) - Before;
  EXPECT_EQ(Vol->scrub().CorruptChunks, 0u);
  const double ScrubUs =
      Ledger.busyMicros(Resource::CpuPool) - Before - ReadUs;
  const double HashUs =
      static_cast<double>(N) * Platform::paper().Model.cpuHashUs(BlockSize);
  EXPECT_GE(ScrubUs - ReadUs, HashUs - 1e-6);
}

//===----------------------------------------------------------------------===//
// One read engine: Volume::readBlocks and restore::VolumeReader run the
// same mapping walk through the same batched engine, so twin volumes
// deliver the same bytes at the same modelled price either way.
//===----------------------------------------------------------------------===//

TEST(VolumeRead, VolumeAndReaderShareOneEngine) {
  for (const PipelineMode Mode :
       {PipelineMode::CpuOnly, PipelineMode::GpuCompress}) {
    SCOPED_TRACE(pipelineModeName(Mode));
    PipelineConfig Config;
    Config.Mode = Mode;
    Config.Dedup.Index.BinBits = 8;
    VolumeConfig VolConfig;
    VolConfig.BlockCount = 512;
    WorkloadConfig Stream;
    Stream.TotalBytes = 384 * BlockSize; // the tail stays unmapped
    const ByteVector Data = VdbenchStream(Stream).generateAll();

    ReductionPipeline PipeA(Platform::paper(), Config);
    ReductionPipeline PipeB(Platform::paper(), Config);
    Volume VolA(PipeA, VolConfig);
    Volume VolB(PipeB, VolConfig);
    for (Volume *Vol : {&VolA, &VolB}) {
      ASSERT_TRUE(Vol->writeBlocks(0, ByteSpan(Data.data(), Data.size())));
      Vol->flush();
    }

    std::array<double, ResourceCount> BeforeA{}, BeforeB{};
    for (unsigned R = 0; R < ResourceCount; ++R) {
      BeforeA[R] = PipeA.ledger().busyMicros(static_cast<Resource>(R));
      BeforeB[R] = PipeB.ledger().busyMicros(static_cast<Resource>(R));
    }
    const auto ViaVolume = VolA.readBlocks(0, VolConfig.BlockCount);
    restore::VolumeReader Reader(VolB);
    const auto ViaReader = Reader.readBlocks(0, VolConfig.BlockCount);
    ASSERT_TRUE(ViaVolume.has_value());
    ASSERT_TRUE(ViaReader.has_value());
    EXPECT_EQ(*ViaVolume, *ViaReader);
    EXPECT_TRUE(std::equal(Data.begin(), Data.end(), ViaVolume->begin()));
    for (unsigned R = 0; R < ResourceCount; ++R) {
      const Resource Lane = static_cast<Resource>(R);
      EXPECT_EQ(PipeA.ledger().busyMicros(Lane) - BeforeA[R],
                PipeB.ledger().busyMicros(Lane) - BeforeB[R])
          << "resource " << R;
    }
    EXPECT_GT(PipeA.ledger().busyMicros(Resource::Ssd),
              BeforeA[static_cast<unsigned>(Resource::Ssd)]);
  }
}

//===----------------------------------------------------------------------===//
// Model-based randomized property test: the volume must agree with a
// plain shadow byte array under an arbitrary interleaving of writes,
// overwrites, trims, reads and GC — in every pipeline mode.
//===----------------------------------------------------------------------===//

namespace {

class VolumeModelTest
    : public VolumeFixture,
      public ::testing::WithParamInterface<std::tuple<PipelineMode, int>> {
};

} // namespace

TEST_P(VolumeModelTest, AgreesWithShadowArray) {
  const auto Mode = std::get<0>(GetParam());
  const std::uint64_t Seed = static_cast<std::uint64_t>(
      std::get<1>(GetParam()));
  constexpr std::uint64_t Blocks = 96;
  rebuild(Mode, Blocks);

  ByteVector Shadow(Blocks * BlockSize, 0);
  Random Rng(Seed * 104729 + 11);

  for (int Op = 0; Op < 220; ++Op) {
    const std::uint64_t Lba = Rng.nextBelow(Blocks);
    const std::uint64_t Count =
        1 + Rng.nextBelow(std::min<std::uint64_t>(4, Blocks - Lba));
    switch (Rng.nextBelow(5)) {
    case 0:
    case 1: { // write (tags drawn from a small pool => duplicates)
      ByteVector Data;
      for (std::uint64_t I = 0; I < Count; ++I)
        appendBytes(Data,
                    ByteSpan(blockOf(Rng.nextBelow(24)).data(), BlockSize));
      ASSERT_TRUE(Vol->writeBlocks(Lba, ByteSpan(Data.data(), Data.size())));
      std::copy(Data.begin(), Data.end(),
                Shadow.begin() + Lba * BlockSize);
      break;
    }
    case 2: { // trim
      ASSERT_TRUE(Vol->trim(Lba, Count));
      std::fill(Shadow.begin() + Lba * BlockSize,
                Shadow.begin() + (Lba + Count) * BlockSize, 0);
      break;
    }
    case 3: { // read and compare
      const auto Read = Vol->readBlocks(Lba, Count);
      ASSERT_TRUE(Read.has_value());
      EXPECT_TRUE(std::equal(Read->begin(), Read->end(),
                             Shadow.begin() + Lba * BlockSize))
          << "op " << Op << " lba " << Lba;
      break;
    }
    default: // garbage collection at a random moment
      Vol->collectGarbage();
      break;
    }
  }

  // Final full-volume comparison.
  const auto All = Vol->readBlocks(0, Blocks);
  ASSERT_TRUE(All.has_value());
  EXPECT_EQ(*All, Shadow);

  // And the books balance: every mapped LBA's chunk is live.
  const VolumeStats Stats = Vol->stats();
  EXPECT_LE(Stats.LiveChunks, Stats.MappedBlocks);
  Vol->collectGarbage();
  EXPECT_EQ(Vol->stats().DeadChunks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, VolumeModelTest,
    ::testing::Combine(::testing::Values(PipelineMode::CpuOnly,
                                         PipelineMode::GpuCompress,
                                         PipelineMode::GpuBoth),
                       ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<VolumeModelTest::ParamType> &Info) {
      std::string Name = pipelineModeName(std::get<0>(Info.param));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_seed" + std::to_string(std::get<1>(Info.param));
    });
