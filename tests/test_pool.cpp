//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the shared dedup domain of a VolumeService's tenant
/// volumes: cross-volume dedup (golden-image clones), shared-domain
/// garbage collection, per-volume isolation of mappings, snapshots
/// inside the domain, and restore-path guarding.
///
//===----------------------------------------------------------------------===//

#include "service/VolumeService.h"
#include "workload/Trace.h"

#include <gtest/gtest.h>

using namespace padre;

namespace {

constexpr std::size_t BlockSize = 4096;

PipelineConfig pipelineConfig() {
  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.Dedup.Index.BinBits = 8;
  return Config;
}

/// A service with no budget: its tenant volumes are a plain shared
/// dedup domain.
ServiceConfig poolConfig() {
  ServiceConfig Config;
  Config.Pipeline = pipelineConfig();
  return Config;
}

/// Adds a tenant of \p Blocks blocks and returns its volume.
Volume &createVolume(VolumeService &Pool, std::uint64_t Blocks) {
  TenantConfig Config;
  Config.Blocks = Blocks;
  return Pool.tenantVolume(Pool.addTenant(
      "vol" + std::to_string(Pool.tenantCount()), Config));
}

/// Deterministic block content per tag.
ByteVector blockOf(std::uint64_t Tag) {
  ByteVector Data(BlockSize);
  fillTraceBlock(Tag, MutableByteSpan(Data.data(), Data.size()));
  return Data;
}

/// Writes `Blocks` tagged blocks starting at LBA 0.
void writeImage(Volume &Vol, std::uint64_t Blocks, std::uint64_t BaseTag) {
  ByteVector Image;
  for (std::uint64_t I = 0; I < Blocks; ++I)
    appendBytes(Image, ByteSpan(blockOf(BaseTag + I).data(), BlockSize));
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Image.data(), Image.size())));
}

} // namespace

// The suite keeps its published StoragePool name so results stay
// comparable across revisions; the domain under test is the service's
// tenant volumes.
TEST(StoragePool, GoldenImageClonesShareChunks) {
  VolumeService Pool(Platform::paper(), poolConfig());
  constexpr std::uint64_t ImageBlocks = 64;

  // Four VDI clones provisioned from the same golden image.
  for (int Clone = 0; Clone < 4; ++Clone) {
    Volume &Vol = createVolume(Pool, 128);
    writeImage(Vol, ImageBlocks, /*BaseTag=*/1000);
  }

  const PoolStats Stats = Pool.poolStats();
  EXPECT_EQ(Stats.Volumes, 4u);
  EXPECT_EQ(Stats.MappedBlocks, 4 * ImageBlocks);
  // The image is stored once: cross-volume dedup.
  EXPECT_EQ(Stats.LiveChunks, ImageBlocks);
  EXPECT_GT(Stats.reductionRatio(), 4.0); // 4x dedup x compression
}

TEST(StoragePool, SharedChunksSurviveOneClonesDeletion) {
  VolumeService Pool(Platform::paper(), poolConfig());
  Volume &A = createVolume(Pool, 128);
  Volume &B = createVolume(Pool, 128);
  writeImage(A, 32, 1);
  writeImage(B, 32, 1); // same content

  // Wipe clone A entirely; the chunks stay live via clone B.
  ASSERT_TRUE(A.trim(0, 128));
  EXPECT_EQ(A.collectGarbage(), 0u);
  const auto Read = B.readBlocks(0, 32);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ((*Read)[0], blockOf(1)[0]);

  // Wipe clone B too: now everything is collectable.
  ASSERT_TRUE(B.trim(0, 128));
  EXPECT_EQ(B.collectGarbage(), 32u);
  EXPECT_EQ(Pool.pipeline().store().chunkCount(), 0u);
}

TEST(StoragePool, VolumeMappingsAreIndependent) {
  VolumeService Pool(Platform::paper(), poolConfig());
  Volume &A = createVolume(Pool, 16);
  Volume &B = createVolume(Pool, 16);
  const ByteVector DataA = blockOf(10);
  const ByteVector DataB = blockOf(20);
  ASSERT_TRUE(A.writeBlocks(3, ByteSpan(DataA.data(), DataA.size())));
  ASSERT_TRUE(B.writeBlocks(3, ByteSpan(DataB.data(), DataB.size())));

  EXPECT_EQ(*A.readBlocks(3, 1), DataA);
  EXPECT_EQ(*B.readBlocks(3, 1), DataB);
  // A's LBA 5 is untouched by B's writes.
  const auto Empty = A.readBlocks(5, 1);
  ASSERT_TRUE(Empty.has_value());
  EXPECT_EQ((*Empty)[0], 0);
}

TEST(StoragePool, DuplicateAcrossVolumesCountsBothReferences) {
  VolumeService Pool(Platform::paper(), poolConfig());
  Volume &A = createVolume(Pool, 16);
  Volume &B = createVolume(Pool, 16);
  const ByteVector Data = blockOf(30);
  ASSERT_TRUE(A.writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(B.writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  const std::uint64_t Location = A.mapping()[0];
  EXPECT_EQ(B.mapping()[0], Location);
  EXPECT_EQ(A.tracker()->refCount(Location), 2u);
}

TEST(StoragePool, SnapshotsWorkInsidePools) {
  VolumeService Pool(Platform::paper(), poolConfig());
  Volume &Vol = createVolume(Pool, 32);
  const ByteVector Before = blockOf(40);
  const ByteVector After = blockOf(41);
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Before.data(), Before.size())));
  const Volume::SnapshotId Snap = Vol.createSnapshot();
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(After.data(), After.size())));
  Vol.collectGarbage();
  EXPECT_EQ(*Vol.readSnapshotBlocks(Snap, 0, 1), Before);
  EXPECT_EQ(*Vol.readBlocks(0, 1), After);
}

TEST(StoragePool, PoolMemberRejectsRestoreState) {
  VolumeService Pool(Platform::paper(), poolConfig());
  Volume &Vol = createVolume(Pool, 8);
  std::vector<std::uint64_t> Mapping(8, Volume::Unmapped);
  EXPECT_FALSE(Vol.restoreState(std::move(Mapping), {}));
}

TEST(StoragePool, ScrubCoversTheWholeDomain) {
  VolumeService Pool(Platform::paper(), poolConfig());
  Volume &A = createVolume(Pool, 16);
  Volume &B = createVolume(Pool, 16);
  writeImage(A, 8, 50);
  writeImage(B, 8, 60);
  // Scrubbing through either volume covers the shared domain.
  EXPECT_EQ(A.scrub().ChunksScanned, 16u);
  EXPECT_EQ(B.scrub().CorruptChunks, 0u);
}

TEST(StoragePool, CrossVolumeReductionBeatsPrivateDomains) {
  // The quantified benefit: two identical 32-block images in one
  // domain store half the chunks of two private-domain volumes.
  VolumeService Pool(Platform::paper(), poolConfig());
  writeImage(createVolume(Pool, 64), 32, 70);
  writeImage(createVolume(Pool, 64), 32, 70);
  const std::uint64_t PoolChunks = Pool.poolStats().LiveChunks;

  ReductionPipeline PipeA(Platform::paper(), pipelineConfig());
  ReductionPipeline PipeB(Platform::paper(), pipelineConfig());
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 64;
  Volume PrivateA(PipeA, VolConfig);
  Volume PrivateB(PipeB, VolConfig);
  writeImage(PrivateA, 32, 70);
  writeImage(PrivateB, 32, 70);
  const std::uint64_t PrivateChunks =
      PrivateA.stats().LiveChunks + PrivateB.stats().LiveChunks;

  EXPECT_EQ(PoolChunks * 2, PrivateChunks);
}
