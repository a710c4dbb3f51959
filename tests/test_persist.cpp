//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for volume image persistence: save/load round trips (data,
/// mapping, refcounts, dead list), dedup continuity across remounts,
/// and corruption/mismatch rejection (the retired block method 4
/// included).
///
//===----------------------------------------------------------------------===//

#include "compress/Block.h"
#include "hash/Crc32.h"
#include "persist/VolumeImage.h"
#include "util/Random.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

using namespace padre;

namespace {

constexpr std::size_t BlockSize = 4096;

struct PersistFixture : ::testing::Test {
  std::string ImagePath;

  void SetUp() override {
    ImagePath = ::testing::TempDir() + "padre_image_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".img";
  }

  void TearDown() override { std::remove(ImagePath.c_str()); }

  static std::unique_ptr<ReductionPipeline> makePipeline() {
    PipelineConfig Config;
    Config.Mode = PipelineMode::CpuOnly;
    Config.Dedup.Index.BinBits = 8;
    return std::make_unique<ReductionPipeline>(Platform::paper(), Config);
  }

  static ByteVector blockOf(std::uint64_t Tag) {
    ByteVector Data(BlockSize);
    Random Rng(Tag * 31337 + 5);
    std::uint8_t Filler[64];
    Rng.fillBytes(Filler, sizeof(Filler));
    for (std::size_t I = 0; I < Data.size(); I += 64)
      if ((I / 64) % 3 == 0)
        Rng.fillBytes(Data.data() + I, 64);
      else
        std::copy(Filler, Filler + 64, Data.data() + I);
    return Data;
  }
};

} // namespace

TEST_F(PersistFixture, SaveLoadRoundTripsDataAndMapping) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 256;
  Volume Vol(*Pipeline, VolConfig);

  for (std::uint64_t Tag = 0; Tag < 20; ++Tag) {
    const ByteVector Data = blockOf(Tag % 7); // duplicates included
    ASSERT_TRUE(Vol.writeBlocks(Tag * 3, ByteSpan(Data.data(),
                                                  Data.size())));
  }
  ASSERT_TRUE(Vol.trim(6, 1));
  const auto Before = Vol.readBlocks(0, 256);
  ASSERT_TRUE(Before.has_value());

  const ImageResult Saved = saveVolumeImage(ImagePath, Vol, *Pipeline);
  ASSERT_TRUE(Saved.Ok) << Saved.Message;

  auto Fresh = makePipeline();
  Volume Restored(*Fresh, VolConfig);
  const ImageResult Loaded = loadVolumeImage(ImagePath, *Fresh, Restored);
  ASSERT_TRUE(Loaded.Ok) << Loaded.Message;

  const auto After = Restored.readBlocks(0, 256);
  ASSERT_TRUE(After.has_value());
  EXPECT_EQ(*After, *Before);
  EXPECT_EQ(Restored.stats().MappedBlocks, Vol.stats().MappedBlocks);
  EXPECT_EQ(Restored.stats().LiveChunks, Vol.stats().LiveChunks);
  EXPECT_EQ(Restored.stats().DeadChunks, Vol.stats().DeadChunks);
}

TEST_F(PersistFixture, DedupContinuesAcrossRemount) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 64;
  Volume Vol(*Pipeline, VolConfig);
  const ByteVector Data = blockOf(99);
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);

  auto Fresh = makePipeline();
  Volume Restored(*Fresh, VolConfig);
  ASSERT_TRUE(loadVolumeImage(ImagePath, *Fresh, Restored).Ok);

  // Writing the same content after remount must dedup against the
  // restored chunk — the index was rebuilt from the image.
  const std::size_t ChunksBefore = Fresh->store().chunkCount();
  ASSERT_TRUE(Restored.writeBlocks(5, ByteSpan(Data.data(), Data.size())));
  EXPECT_EQ(Fresh->store().chunkCount(), ChunksBefore);
  EXPECT_EQ(Restored.stats().LiveChunks, 1u);
}

TEST_F(PersistFixture, DeadChunksStayCollectableAfterRemount) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 64;
  Volume Vol(*Pipeline, VolConfig);
  const ByteVector Data = blockOf(5);
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(Vol.trim(0, 1)); // dead but uncollected
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);

  auto Fresh = makePipeline();
  Volume Restored(*Fresh, VolConfig);
  ASSERT_TRUE(loadVolumeImage(ImagePath, *Fresh, Restored).Ok);
  EXPECT_EQ(Restored.stats().DeadChunks, 1u);
  EXPECT_EQ(Restored.collectGarbage(), 1u);
  EXPECT_EQ(Fresh->store().chunkCount(), 0u);
}

TEST_F(PersistFixture, EmptyVolumeImage) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 16;
  Volume Vol(*Pipeline, VolConfig);
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);
  auto Fresh = makePipeline();
  Volume Restored(*Fresh, VolConfig);
  ASSERT_TRUE(loadVolumeImage(ImagePath, *Fresh, Restored).Ok);
  EXPECT_EQ(Restored.stats().MappedBlocks, 0u);
}

TEST_F(PersistFixture, RejectsBitFlipAnywhere) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 32;
  Volume Vol(*Pipeline, VolConfig);
  const ByteVector Data = blockOf(1);
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);

  // Flip one byte at several offsets; every variant must be rejected.
  std::FILE *File = std::fopen(ImagePath.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  std::fseek(File, 0, SEEK_END);
  const long Size = std::ftell(File);
  std::fseek(File, 0, SEEK_SET);
  ByteVector Image(static_cast<std::size_t>(Size));
  ASSERT_EQ(std::fread(Image.data(), 1, Image.size(), File), Image.size());
  std::fclose(File);

  for (std::size_t Offset : {std::size_t{0}, std::size_t{9},
                             Image.size() / 2, Image.size() - 1}) {
    ByteVector Corrupt = Image;
    Corrupt[Offset] ^= 0x40;
    std::FILE *Out = std::fopen(ImagePath.c_str(), "wb");
    ASSERT_NE(Out, nullptr);
    ASSERT_EQ(std::fwrite(Corrupt.data(), 1, Corrupt.size(), Out),
              Corrupt.size());
    std::fclose(Out);

    auto Fresh = makePipeline();
    Volume Restored(*Fresh, VolConfig);
    const ImageResult Result =
        loadVolumeImage(ImagePath, *Fresh, Restored);
    EXPECT_FALSE(Result.Ok) << "offset " << Offset;
    // The trailer CRC covers the whole file, so every flip is typed as
    // image corruption (never a crash, never a partial load).
    EXPECT_EQ(Result.Status.code(), fault::ErrorCode::ImageCorrupt)
        << "offset " << Offset;
    EXPECT_EQ(Restored.stats().MappedBlocks, 0u) << "offset " << Offset;
  }
}

TEST_F(PersistFixture, SemanticCorruptionLeavesTargetUntouched) {
  // CRC-valid images exercise the two-phase decode: validation fails
  // *after* the CRC passes, and the target pair must remain untouched
  // and fully usable. Two inputs: an out-of-range mapping LBA
  // (ImageCorrupt) and a well-formed block of the retired method 4
  // (StateMismatch: the image is intact, but this build cannot decode
  // it), each naming what it rejected.
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 32;
  Volume Vol(*Pipeline, VolConfig);
  for (std::uint64_t Lba = 0; Lba < 4; ++Lba) {
    const ByteVector Data = blockOf(Lba + 1);
    ASSERT_TRUE(Vol.writeBlocks(Lba, ByteSpan(Data.data(), Data.size())));
  }
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);

  std::FILE *File = std::fopen(ImagePath.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  std::fseek(File, 0, SEEK_END);
  const long Size = std::ftell(File);
  std::fseek(File, 0, SEEK_SET);
  ByteVector Pristine(static_cast<std::size_t>(Size));
  ASSERT_EQ(std::fread(Pristine.data(), 1, Pristine.size(), File),
            Pristine.size());
  std::fclose(File);

  // With no snapshots the file tail is: ..., last 16-byte mapping
  // record, u64 snapshot count (0), u64 next snapshot id, u32 trailer
  // CRC — so the last record's LBA field sits 36 bytes from the end.
  ByteVector BadLbaImage = Pristine;
  const std::uint64_t BadLba = VolConfig.BlockCount + 999;
  storeLe64(BadLbaImage.data() + BadLbaImage.size() - 4 - 8 - 8 - 16,
            BadLba);
  // The first chunk record follows the 40-byte superblock: u64
  // location, u32 size, u32 refs, 20-byte fingerprint, then the block,
  // whose method is header byte 2. The block CRC covers only the
  // payload, so the rewritten block stays well-formed.
  constexpr std::size_t FirstRecord = 40;
  ByteVector RetiredImage = Pristine;
  RetiredImage[FirstRecord + 8 + 4 + 4 + Fingerprint::Size + 2] =
      static_cast<std::uint8_t>(BlockMethod::Retired);
  const struct {
    ByteVector Image;
    fault::ErrorCode Code;
    std::uint64_t Detail;
  } Cases[] = {
      {BadLbaImage, fault::ErrorCode::ImageCorrupt, BadLba},
      {RetiredImage, fault::ErrorCode::StateMismatch,
       loadLe64(Pristine.data() + FirstRecord)},
  };

  const auto WriteImage = [&](ByteSpan Bytes) {
    std::FILE *Out = std::fopen(ImagePath.c_str(), "wb");
    ASSERT_NE(Out, nullptr);
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), Out), Bytes.size());
    std::fclose(Out);
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE(fault::errorCodeName(Case.Code));
    // Re-seal the trailer so only semantic validation can reject it.
    ByteVector Corrupt = Case.Image;
    storeLe32(Corrupt.data() + Corrupt.size() - 4,
              crc32c(ByteSpan(Corrupt.data(), Corrupt.size() - 4)));
    WriteImage(ByteSpan(Corrupt.data(), Corrupt.size()));

    auto Fresh = makePipeline();
    Volume Restored(*Fresh, VolConfig);
    const ImageResult Result = loadVolumeImage(ImagePath, *Fresh, Restored);
    ASSERT_FALSE(Result.Ok);
    EXPECT_EQ(Result.Status.code(), Case.Code);
    EXPECT_EQ(Result.Status.detail(), Case.Detail);
    EXPECT_EQ(Restored.stats().MappedBlocks, 0u);
    EXPECT_EQ(Restored.stats().LiveChunks, 0u);

    // The very pair that saw the failed load must accept the pristine
    // image — proof no partial state leaked into pipeline or volume.
    WriteImage(ByteSpan(Pristine.data(), Pristine.size()));
    const ImageResult Retry = loadVolumeImage(ImagePath, *Fresh, Restored);
    ASSERT_TRUE(Retry.Ok) << Retry.Message;
    for (std::uint64_t Lba = 0; Lba < 4; ++Lba) {
      const auto Read = Restored.readBlocks(Lba, 1);
      ASSERT_TRUE(Read.has_value());
      EXPECT_EQ(*Read, blockOf(Lba + 1)) << "LBA " << Lba;
    }
  }
}

TEST_F(PersistFixture, RejectsGeometryMismatch) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 32;
  Volume Vol(*Pipeline, VolConfig);
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);

  auto Fresh = makePipeline();
  VolumeConfig Wrong;
  Wrong.BlockCount = 64;
  Volume Restored(*Fresh, Wrong);
  const ImageResult Result = loadVolumeImage(ImagePath, *Fresh, Restored);
  EXPECT_FALSE(Result.Ok);
  EXPECT_EQ(Result.Status.code(), fault::ErrorCode::StateMismatch);
}

TEST_F(PersistFixture, RejectsMissingFileAndGarbage) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 8;
  Volume Vol(*Pipeline, VolConfig);
  const ImageResult Missing =
      loadVolumeImage("/nonexistent/padre.img", *Pipeline, Vol);
  EXPECT_FALSE(Missing.Ok);
  EXPECT_EQ(Missing.Status.code(), fault::ErrorCode::IoError);

  std::FILE *File = std::fopen(ImagePath.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  std::fputs("this is not an image", File);
  std::fclose(File);
  const ImageResult Garbage = loadVolumeImage(ImagePath, *Pipeline, Vol);
  EXPECT_FALSE(Garbage.Ok);
  EXPECT_EQ(Garbage.Status.code(), fault::ErrorCode::ImageCorrupt);
}

TEST_F(PersistFixture, SnapshotsSurviveRemount) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 64;
  Volume Vol(*Pipeline, VolConfig);

  const ByteVector Before = blockOf(50);
  const ByteVector After = blockOf(51);
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Before.data(), Before.size())));
  // A deleted snapshot advances the id counter past what the live
  // table shows; the image must persist the counter itself.
  ASSERT_TRUE(Vol.deleteSnapshot(Vol.createSnapshot()));
  const Volume::SnapshotId Snap = Vol.createSnapshot();
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(After.data(), After.size())));
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);

  auto Fresh = makePipeline();
  Volume Restored(*Fresh, VolConfig);
  ASSERT_TRUE(loadVolumeImage(ImagePath, *Fresh, Restored).Ok);
  EXPECT_EQ(Restored.stats().Snapshots, 1u);
  EXPECT_EQ(Restored.nextSnapshotId(), Vol.nextSnapshotId());
  const auto Old = Restored.readSnapshotBlocks(Snap, 0, 1);
  ASSERT_TRUE(Old.has_value());
  EXPECT_EQ(*Old, Before);
  EXPECT_EQ(*Restored.readBlocks(0, 1), After);

  // Snapshot chunk references survived: deleting the snapshot frees
  // the old chunk.
  ASSERT_TRUE(Restored.deleteSnapshot(Snap));
  EXPECT_EQ(Restored.collectGarbage(), 1u);
}

TEST_F(PersistFixture, LoaderNeverCrashesOnRandomGarbage) {
  // Fuzz the loader: random byte soup of assorted sizes, plus soups
  // that start with the valid magic/superblock prefix. Every variant
  // must be rejected cleanly (no crash, no partial state acceptance).
  Random Rng(0xF022);
  for (int Case = 0; Case < 60; ++Case) {
    ByteVector Garbage(16 + Rng.nextBelow(4096));
    Rng.fillBytes(Garbage.data(), Garbage.size());
    if (Case % 3 == 0 && Garbage.size() > 16) {
      // Valid magic + version so parsing reaches deeper code paths.
      storeLe64(Garbage.data(), 0x314D494552444150ull);
      storeLe32(Garbage.data() + 8, 3);
      storeLe32(Garbage.data() + 12, 4096);
    }
    std::FILE *File = std::fopen(ImagePath.c_str(), "wb");
    ASSERT_NE(File, nullptr);
    ASSERT_EQ(std::fwrite(Garbage.data(), 1, Garbage.size(), File),
              Garbage.size());
    std::fclose(File);

    auto Pipeline = makePipeline();
    VolumeConfig VolConfig;
    VolConfig.BlockCount = 32;
    Volume Vol(*Pipeline, VolConfig);
    const ImageResult Result =
        loadVolumeImage(ImagePath, *Pipeline, Vol);
    EXPECT_FALSE(Result.Ok) << "case " << Case;
    EXPECT_FALSE(Result.Message.empty());
  }
}

TEST_F(PersistFixture, TruncationAtEveryBoundaryIsRejected) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 32;
  Volume Vol(*Pipeline, VolConfig);
  const ByteVector Data = blockOf(7);
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  Vol.createSnapshot();
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);

  std::FILE *File = std::fopen(ImagePath.c_str(), "rb");
  ASSERT_NE(File, nullptr);
  std::fseek(File, 0, SEEK_END);
  const long Size = std::ftell(File);
  std::fseek(File, 0, SEEK_SET);
  ByteVector Image(static_cast<std::size_t>(Size));
  ASSERT_EQ(std::fread(Image.data(), 1, Image.size(), File), Image.size());
  std::fclose(File);

  for (std::size_t Keep :
       {std::size_t{0}, std::size_t{8}, std::size_t{39},
        Image.size() / 4, Image.size() / 2, Image.size() - 5,
        Image.size() - 1}) {
    std::FILE *Out = std::fopen(ImagePath.c_str(), "wb");
    ASSERT_NE(Out, nullptr);
    ASSERT_EQ(std::fwrite(Image.data(), 1, Keep, Out), Keep);
    std::fclose(Out);
    auto Fresh = makePipeline();
    Volume Restored(*Fresh, VolConfig);
    EXPECT_FALSE(loadVolumeImage(ImagePath, *Fresh, Restored).Ok)
        << "kept " << Keep << " of " << Image.size();
  }
}

TEST_F(PersistFixture, FullCycleWithWorkloadStream) {
  auto Pipeline = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 2048;
  Volume Vol(*Pipeline, VolConfig);

  WorkloadConfig Load;
  Load.TotalBytes = 4ull << 20;
  Load.DedupRatio = 2.0;
  Load.CompressRatio = 2.0;
  const ByteVector Data = VdbenchStream(Load).generateAll();
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  ASSERT_TRUE(saveVolumeImage(ImagePath, Vol, *Pipeline).Ok);

  auto Fresh = makePipeline();
  Volume Restored(*Fresh, VolConfig);
  ASSERT_TRUE(loadVolumeImage(ImagePath, *Fresh, Restored).Ok);
  const auto Read =
      Restored.readBlocks(0, Data.size() / BlockSize);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Data);
}
