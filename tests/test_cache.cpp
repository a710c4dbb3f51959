//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the chunk read cache: LRU semantics and capacity
/// accounting in isolation, plus the pipeline integration — hit/miss
/// charging, invalidation on GC, scrub bypass (a cached-clean copy
/// must never mask corrupt flash), and the dedup-concentrates-reads
/// effect on a hot-spot trace.
///
//===----------------------------------------------------------------------===//

#include "core/BackgroundReducer.h"
#include "core/ChunkCache.h"
#include "core/TraceRunner.h"
#include "util/Random.h"

#include <gtest/gtest.h>

using namespace padre;

namespace {

ByteVector bytesOfSize(std::size_t Size, std::uint8_t Fill) {
  return ByteVector(Size, Fill);
}

} // namespace

//===----------------------------------------------------------------------===//
// ChunkCache in isolation
//===----------------------------------------------------------------------===//

TEST(ChunkCache, HitAfterPut) {
  ChunkCache Cache(1024);
  EXPECT_FALSE(Cache.get(1).has_value());
  Cache.put(1, bytesOfSize(100, 0xAA));
  const auto Hit = Cache.get(1);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->size(), 100u);
  EXPECT_EQ((*Hit)[0], 0xAA);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST(ChunkCache, EvictsLeastRecentlyUsed) {
  ChunkCache Cache(300);
  Cache.put(1, bytesOfSize(100, 1));
  Cache.put(2, bytesOfSize(100, 2));
  Cache.put(3, bytesOfSize(100, 3));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(Cache.get(1).has_value());
  Cache.put(4, bytesOfSize(100, 4));
  EXPECT_TRUE(Cache.get(1).has_value());
  EXPECT_FALSE(Cache.get(2).has_value()); // evicted
  EXPECT_TRUE(Cache.get(3).has_value());
  EXPECT_TRUE(Cache.get(4).has_value());
  EXPECT_EQ(Cache.evictions(), 1u);
  EXPECT_LE(Cache.cachedBytes(), 300u);
}

TEST(ChunkCache, OversizedEntriesAreNotCached) {
  ChunkCache Cache(100);
  Cache.put(1, bytesOfSize(200, 1));
  EXPECT_FALSE(Cache.get(1).has_value());
  EXPECT_EQ(Cache.cachedBytes(), 0u);
}

TEST(ChunkCache, RefreshUpdatesContentAndSize) {
  ChunkCache Cache(1000);
  Cache.put(1, bytesOfSize(100, 1));
  Cache.put(1, bytesOfSize(400, 9));
  const auto Hit = Cache.get(1);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->size(), 400u);
  EXPECT_EQ(Cache.cachedBytes(), 400u);
  EXPECT_EQ(Cache.entryCount(), 1u);
}

TEST(ChunkCache, InvalidateAndClear) {
  ChunkCache Cache(1000);
  Cache.put(1, bytesOfSize(100, 1));
  Cache.put(2, bytesOfSize(100, 2));
  Cache.invalidate(1);
  EXPECT_FALSE(Cache.get(1).has_value());
  EXPECT_TRUE(Cache.get(2).has_value());
  Cache.clear();
  EXPECT_FALSE(Cache.get(2).has_value());
  EXPECT_EQ(Cache.cachedBytes(), 0u);
}

TEST(ChunkCache, PeekNeitherCountsNorPromotes) {
  ChunkCache Cache(300);
  Cache.put(1, bytesOfSize(100, 1));
  Cache.put(2, bytesOfSize(100, 2));
  Cache.put(3, bytesOfSize(100, 3));
  const auto Copy = Cache.peek(1);
  ASSERT_TRUE(Copy.has_value());
  EXPECT_EQ((*Copy)[0], 1);
  EXPECT_FALSE(Cache.peek(9).has_value());
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 0u);
  // 1 is still the LRU victim: the peek did not promote it.
  Cache.put(4, bytesOfSize(100, 4));
  EXPECT_FALSE(Cache.contains(1));
  EXPECT_TRUE(Cache.contains(2));
}

TEST(ChunkCache, CapacityNeverExceeded) {
  ChunkCache Cache(1000);
  Random Rng(5);
  for (int I = 0; I < 500; ++I) {
    Cache.put(Rng.nextBelow(50), bytesOfSize(1 + Rng.nextBelow(300), 7));
    EXPECT_LE(Cache.cachedBytes(), 1000u);
  }
}

//===----------------------------------------------------------------------===//
// Pipeline integration
//===----------------------------------------------------------------------===//

namespace {

constexpr std::size_t BlockSize = 4096;

struct CacheFixture : ::testing::Test {
  std::unique_ptr<ReductionPipeline> Pipeline;
  std::unique_ptr<Volume> Vol;

  void rebuild(std::size_t CacheBytes,
               obs::MetricsRegistry *Metrics = nullptr) {
    PipelineConfig Config;
    Config.Dedup.Index.BinBits = 8;
    Config.ReadCacheBytes = CacheBytes;
    Config.Metrics = Metrics;
    Pipeline = std::make_unique<ReductionPipeline>(Platform::paper(),
                                                   Config);
    VolumeConfig VolConfig;
    VolConfig.BlockCount = 256;
    Vol = std::make_unique<Volume>(*Pipeline, VolConfig);
  }

  ByteVector writeOneBlock(std::uint64_t Tag, std::uint64_t Lba) {
    ByteVector Data(BlockSize);
    fillTraceBlock(Tag, MutableByteSpan(Data.data(), Data.size()));
    [[maybe_unused]] const bool Ok =
        Vol->writeBlocks(Lba, ByteSpan(Data.data(), Data.size()));
    assert(Ok);
    return Data;
  }
};

} // namespace

TEST_F(CacheFixture, RepeatedReadsHitTheCache) {
  rebuild(1 << 20);
  const ByteVector Data = writeOneBlock(1, 0);
  const double SsdAfterWrite =
      Pipeline->ledger().busySeconds(Resource::Ssd);

  // First read misses (flash), the rest hit (DRAM).
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(*Vol->readBlocks(0, 1), Data);
  ASSERT_NE(Pipeline->readCache(), nullptr);
  EXPECT_EQ(Pipeline->readCache()->misses(), 1u);
  EXPECT_EQ(Pipeline->readCache()->hits(), 9u);
  // Only the miss charged an SSD read.
  const double SsdDelta =
      Pipeline->ledger().busySeconds(Resource::Ssd) - SsdAfterWrite;
  EXPECT_NEAR(SsdDelta, Platform::paper().Model.Ssd.RandRead4KUs * 1e-6,
              1e-9);
}

TEST_F(CacheFixture, DisabledCacheReadsFlashEveryTime) {
  rebuild(0);
  EXPECT_EQ(Pipeline->readCache(), nullptr);
  const ByteVector Data = writeOneBlock(2, 0);
  const double Before = Pipeline->ledger().busySeconds(Resource::Ssd);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(*Vol->readBlocks(0, 1), Data);
  const double Delta =
      Pipeline->ledger().busySeconds(Resource::Ssd) - Before;
  EXPECT_NEAR(Delta, 4 * Platform::paper().Model.Ssd.RandRead4KUs * 1e-6,
              1e-9);
}

TEST_F(CacheFixture, GcInvalidatesCachedChunks) {
  rebuild(1 << 20);
  writeOneBlock(3, 0);
  EXPECT_TRUE(Vol->readBlocks(0, 1).has_value()); // cache it
  ASSERT_TRUE(Vol->trim(0, 1));
  ASSERT_EQ(Vol->collectGarbage(), 1u);
  // The location is gone from store AND cache; a fresh write of new
  // content must not resurrect stale bytes.
  const ByteVector Fresh = writeOneBlock(4, 0);
  EXPECT_EQ(*Vol->readBlocks(0, 1), Fresh);
}

TEST_F(CacheFixture, ScrubBypassesCacheAndSeesFlashCorruption) {
  rebuild(1 << 20);
  writeOneBlock(5, 0);
  // Warm the cache with a clean copy, then corrupt the flash block.
  EXPECT_TRUE(Vol->readBlocks(0, 1).has_value());
  ASSERT_TRUE(Pipeline->corruptChunkForTesting(Vol->mapping()[0], 25));
  // Cached reads still serve clean data (the production hazard)…
  EXPECT_TRUE(Vol->readBlocks(0, 1).has_value());
  // …but the scrub must not be fooled.
  EXPECT_EQ(Vol->scrub().CorruptChunks, 1u);
}

TEST_F(CacheFixture, ScrubAndRepairOfAHealthyStoreLeavesCacheCountersAlone) {
  obs::MetricsRegistry Metrics;
  rebuild(1 << 20, &Metrics);
  for (std::uint64_t Lba = 0; Lba < 16; ++Lba)
    writeOneBlock(20 + Lba, Lba);
  for (int Pass = 0; Pass < 2; ++Pass) // warm: 16 misses, then 16 hits
    ASSERT_TRUE(Vol->readBlocks(0, 16).has_value());
  const ChunkCache &Cache = *Pipeline->readCache();
  const std::uint64_t Hits = Cache.hits(), Misses = Cache.misses();
  ASSERT_EQ(Misses, 16u);
  ASSERT_EQ(Hits, 16u);

  const Volume::ScrubRepairReport Report = Vol->scrubAndRepair();
  EXPECT_EQ(Report.ChunksScanned, 16u);
  EXPECT_EQ(Report.CorruptChunks, 0u);
  // The repair copies are peeks, not reads: no lookup is counted.
  EXPECT_EQ(Cache.hits(), Hits);
  EXPECT_EQ(Cache.misses(), Misses);
  EXPECT_EQ(Metrics.findCounter("padre_cache_hit_total")->value(), Hits);
  EXPECT_EQ(Metrics.findCounter("padre_cache_miss_total")->value(), Misses);
}

TEST_F(CacheFixture, DedupConcentratesReadsIntoTheCache) {
  // 64 logical blocks backed by 4 hot shared chunks: a tiny cache
  // absorbs almost all reads.
  rebuild(4 * BlockSize + 1024);
  for (std::uint64_t Lba = 0; Lba < 64; ++Lba)
    writeOneBlock(Lba % 4, Lba);
  Random Rng(9);
  for (int I = 0; I < 200; ++I)
    EXPECT_TRUE(Vol->readBlocks(Rng.nextBelow(64), 1).has_value());
  EXPECT_GT(Pipeline->readCache()->hitRate(), 0.95);
}
