//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the vdbench-style workload generator: determinism,
/// duplicate structure, and that the dedup/compression-ratio knobs
/// actually deliver the requested ratios (the compression knob is
/// verified against the real LZ codec).
///
//===----------------------------------------------------------------------===//

#include "compress/LzCodec.h"
#include "workload/Scenario.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

using namespace padre;

namespace {

WorkloadConfig smallConfig(double Dedup, double Compress) {
  WorkloadConfig Config;
  Config.TotalBytes = 4 << 20;
  Config.DedupRatio = Dedup;
  Config.CompressRatio = Compress;
  Config.Seed = 17;
  return Config;
}

} // namespace

TEST(VdbenchStream, DeterministicAcrossInstances) {
  const VdbenchStream A(smallConfig(2.0, 2.0));
  const VdbenchStream B(smallConfig(2.0, 2.0));
  ASSERT_EQ(A.blockCount(), B.blockCount());
  ByteVector BlockA(4096), BlockB(4096);
  for (std::uint64_t I = 0; I < A.blockCount(); I += 37) {
    A.fillBlock(I, MutableByteSpan(BlockA.data(), BlockA.size()));
    B.fillBlock(I, MutableByteSpan(BlockB.data(), BlockB.size()));
    EXPECT_EQ(BlockA, BlockB) << "block " << I;
  }
}

TEST(VdbenchStream, DifferentSeedsProduceDifferentData) {
  WorkloadConfig ConfigA = smallConfig(1.0, 1.0);
  WorkloadConfig ConfigB = ConfigA;
  ConfigB.Seed = 18;
  const VdbenchStream A(ConfigA), B(ConfigB);
  ByteVector BlockA(4096), BlockB(4096);
  A.fillBlock(0, MutableByteSpan(BlockA.data(), BlockA.size()));
  B.fillBlock(0, MutableByteSpan(BlockB.data(), BlockB.size()));
  EXPECT_NE(BlockA, BlockB);
}

TEST(VdbenchStream, DuplicatesAreByteIdenticalReplays) {
  const VdbenchStream Stream(smallConfig(3.0, 2.0));
  // Map content -> first block; every duplicate must match some
  // earlier block exactly.
  std::map<std::string, std::uint64_t> Seen;
  ByteVector Block(4096);
  for (std::uint64_t I = 0; I < Stream.blockCount(); ++I) {
    Stream.fillBlock(I, MutableByteSpan(Block.data(), Block.size()));
    const std::string Key(reinterpret_cast<const char *>(Block.data()),
                          Block.size());
    const bool SeenBefore = Seen.count(Key) != 0;
    EXPECT_EQ(SeenBefore, Stream.isDuplicate(I)) << "block " << I;
    Seen.emplace(Key, I);
  }
}

TEST(VdbenchStream, FirstBlockIsNeverDuplicate) {
  const VdbenchStream Stream(smallConfig(4.0, 1.0));
  EXPECT_FALSE(Stream.isDuplicate(0));
}

TEST(VdbenchStream, TotalBytesAndBlockCount) {
  WorkloadConfig Config = smallConfig(2.0, 2.0);
  Config.TotalBytes = 1 << 20;
  Config.BlockSize = 8192;
  const VdbenchStream Stream(Config);
  EXPECT_EQ(Stream.blockCount(), (1u << 20) / 8192);
  EXPECT_EQ(Stream.totalBytes(), 1u << 20);
}

namespace {

class RatioSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

} // namespace

TEST_P(RatioSweep, AchievedDedupRatioNearTarget) {
  const auto &[Dedup, Compress] = GetParam();
  const VdbenchStream Stream(smallConfig(Dedup, Compress));
  EXPECT_NEAR(Stream.achievedDedupRatio(), Dedup, Dedup * 0.15);
}

TEST_P(RatioSweep, AchievedCompressRatioNearTarget) {
  const auto &[Dedup, Compress] = GetParam();
  const VdbenchStream Stream(smallConfig(Dedup, Compress));
  // Compress a sample of unique blocks with the reference codec.
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  ByteVector Block(4096);
  std::uint64_t Original = 0, Compressed = 0;
  for (std::uint64_t I = 0; I < Stream.blockCount(); I += 7) {
    if (Stream.isDuplicate(I))
      continue;
    Stream.fillBlock(I, MutableByteSpan(Block.data(), Block.size()));
    const CompressResult Result =
        Codec.compress(ByteSpan(Block.data(), Block.size()));
    Original += Block.size();
    // Store-raw fallback: never above original size.
    Compressed += std::min(Result.Payload.size(), Block.size());
  }
  ASSERT_GT(Original, 0u);
  const double Achieved =
      static_cast<double>(Original) / static_cast<double>(Compressed);
  EXPECT_NEAR(Achieved, Compress, Compress * 0.25);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, RatioSweep,
    ::testing::Values(std::make_tuple(1.0, 1.0), std::make_tuple(2.0, 2.0),
                      std::make_tuple(2.0, 4.0), std::make_tuple(4.0, 2.0),
                      std::make_tuple(3.0, 1.5)),
    [](const ::testing::TestParamInfo<RatioSweep::ParamType> &Info) {
      std::string Name = "d";
      Name += std::to_string(static_cast<int>(std::get<0>(Info.param) * 10));
      Name += "_c";
      Name += std::to_string(static_cast<int>(std::get<1>(Info.param) * 10));
      return Name;
    });

TEST(VdbenchStream, RatioOneMeansNoDuplicates) {
  const VdbenchStream Stream(smallConfig(1.0, 2.0));
  EXPECT_EQ(Stream.uniqueBlockCount(), Stream.blockCount());
  for (std::uint64_t I = 0; I < Stream.blockCount(); ++I)
    EXPECT_FALSE(Stream.isDuplicate(I));
}

TEST(VdbenchStream, RandomCellFractionMonotoneInRatio) {
  const VdbenchStream Low(smallConfig(1.0, 1.0));
  const VdbenchStream Mid(smallConfig(1.0, 2.0));
  const VdbenchStream High(smallConfig(1.0, 4.0));
  EXPECT_GT(Low.randomCellFraction(), Mid.randomCellFraction());
  EXPECT_GT(Mid.randomCellFraction(), High.randomCellFraction());
  EXPECT_DOUBLE_EQ(Low.randomCellFraction(), 1.0);
}

TEST(VdbenchStream, DedupWindowBoundsDuplicateDistance) {
  WorkloadConfig Config = smallConfig(2.0, 2.0);
  Config.DedupWindowBlocks = 8;
  const VdbenchStream Stream(Config);
  // With a tight window, any duplicate's source must be nearby: verify
  // by replaying content of the previous 64 blocks.
  ByteVector Block(4096), Candidate(4096);
  for (std::uint64_t I = 1; I < std::min<std::uint64_t>(
                                    Stream.blockCount(), 300);
       ++I) {
    if (!Stream.isDuplicate(I))
      continue;
    Stream.fillBlock(I, MutableByteSpan(Block.data(), Block.size()));
    bool FoundNearby = false;
    const std::uint64_t From = I > 64 ? I - 64 : 0;
    for (std::uint64_t J = From; J < I && !FoundNearby; ++J) {
      Stream.fillBlock(J, MutableByteSpan(Candidate.data(),
                                          Candidate.size()));
      FoundNearby = Block == Candidate;
    }
    EXPECT_TRUE(FoundNearby) << "duplicate " << I << " has no recent source";
  }
}

TEST(VdbenchStream, ContentAlphabetBoundsByteValues) {
  WorkloadConfig Config = smallConfig(1.0, 1.0);
  Config.ContentAlphabet = 16;
  Config.TotalBytes = 1 << 20;
  const VdbenchStream Stream(Config);
  ByteVector Block(4096);
  for (std::uint64_t I = 0; I < Stream.blockCount(); I += 13) {
    Stream.fillBlock(I, MutableByteSpan(Block.data(), Block.size()));
    for (std::uint8_t Byte : Block)
      EXPECT_LT(Byte, 16);
  }
}

TEST(VdbenchStream, SmallAlphabetKeepsLzRatioNearTarget) {
  // The alphabet shrinks byte entropy but must not hand LZ long
  // matches: the achieved LZ ratio stays near the knob.
  WorkloadConfig Config = smallConfig(1.0, 2.0);
  Config.ContentAlphabet = 16;
  const VdbenchStream Stream(Config);
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  ByteVector Block(4096);
  std::uint64_t Original = 0, Compressed = 0;
  for (std::uint64_t I = 0; I < Stream.blockCount(); I += 17) {
    Stream.fillBlock(I, MutableByteSpan(Block.data(), Block.size()));
    Original += Block.size();
    Compressed += std::min(
        Codec.compress(ByteSpan(Block.data(), Block.size()))
            .Payload.size(),
        Block.size());
  }
  const double Achieved =
      static_cast<double>(Original) / static_cast<double>(Compressed);
  EXPECT_NEAR(Achieved, 2.0, 0.7);
}

TEST(VdbenchStream, GenerateAllMatchesFillBlock) {
  WorkloadConfig Config = smallConfig(2.0, 2.0);
  Config.TotalBytes = 1 << 20;
  const VdbenchStream Stream(Config);
  const ByteVector All = Stream.generateAll();
  ASSERT_EQ(All.size(), Stream.totalBytes());
  ByteVector Block(Config.BlockSize);
  for (std::uint64_t I = 0; I < Stream.blockCount(); I += 11) {
    Stream.fillBlock(I, MutableByteSpan(Block.data(), Block.size()));
    EXPECT_EQ(0, std::memcmp(Block.data(),
                             All.data() + I * Config.BlockSize,
                             Config.BlockSize));
  }
}

//===----------------------------------------------------------------------===//
// Shaped scenario generators (workload/Scenario.h)
//===----------------------------------------------------------------------===//

namespace {

ScenarioConfig scenarioOf(ScenarioShape Shape) {
  ScenarioConfig Config;
  Config.Shape = Shape;
  Config.Operations = 2000;
  Config.VolumeBlocks = 2048;
  Config.Seed = 11;
  return Config;
}

/// Inter-arrival times of \p Log (first arrival counts from 0).
std::vector<double> interArrivals(const TraceLog &Log) {
  std::vector<double> Out;
  std::uint64_t Prev = 0;
  for (const TraceRecord &R : Log.Records) {
    Out.push_back(static_cast<double>(R.ArrivalUs - Prev));
    Prev = R.ArrivalUs;
  }
  return Out;
}

double meanOf(const std::vector<double> &Values) {
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Values.empty() ? 0.0 : Sum / static_cast<double>(Values.size());
}

} // namespace

TEST(Scenario, ShapeNamesRoundTrip) {
  for (unsigned S = 0; S < ScenarioShapeCount; ++S) {
    const ScenarioShape Shape = static_cast<ScenarioShape>(S);
    ScenarioShape Parsed;
    ASSERT_TRUE(parseScenarioShape(scenarioShapeName(Shape), Parsed));
    EXPECT_EQ(Parsed, Shape);
  }
  ScenarioShape Out;
  EXPECT_FALSE(parseScenarioShape("zipfian", Out));
}

TEST(Scenario, EveryShapeIsBoundedMonotoneAndDeterministic) {
  for (unsigned S = 0; S < ScenarioShapeCount; ++S) {
    const ScenarioShape Shape = static_cast<ScenarioShape>(S);
    SCOPED_TRACE(scenarioShapeName(Shape));
    const ScenarioConfig Config = scenarioOf(Shape);
    const TraceLog Log = synthesizeScenario(Config);
    ASSERT_EQ(Log.Records.size(), Config.Operations);
    EXPECT_TRUE(Log.validate(Config.VolumeBlocks).ok());
    std::uint64_t Prev = 0;
    for (const TraceRecord &R : Log.Records) {
      EXPECT_GE(R.ArrivalUs, Prev); // arrivals never go backwards
      Prev = R.ArrivalUs;
    }
    // Same seed, same trace; different seed, different trace.
    EXPECT_EQ(synthesizeScenario(Config).serialize(), Log.serialize());
    ScenarioConfig Reseeded = Config;
    Reseeded.Seed = Config.Seed + 1;
    EXPECT_NE(synthesizeScenario(Reseeded).serialize(), Log.serialize());
  }
}

TEST(Scenario, SequentialIsOrderedOverwritePasses) {
  const ScenarioConfig Config = scenarioOf(ScenarioShape::Sequential);
  const TraceLog Log = synthesizeScenario(Config);
  std::uint64_t Cursor = 0;
  for (const TraceRecord &R : Log.Records) {
    EXPECT_EQ(R.Op, TraceOp::Write);
    EXPECT_EQ(R.Lba, Cursor); // strict allocation order, wrapping
    Cursor = (Cursor + R.Blocks) % Config.VolumeBlocks;
  }
}

TEST(Scenario, SkewedHotConcentratesAccesses) {
  const ScenarioConfig Config = scenarioOf(ScenarioShape::SkewedHot);
  const TraceLog Log = synthesizeScenario(Config);
  const std::uint64_t HotEnd = static_cast<std::uint64_t>(
      static_cast<double>(Config.VolumeBlocks) * Config.HotFraction);
  std::size_t InHot = 0;
  for (const TraceRecord &R : Log.Records)
    if (R.Lba < HotEnd)
      ++InHot;
  // ~90% of ops target the hot 10% of the LBA space; a uniform trace
  // would put ~10% there.
  EXPECT_GT(static_cast<double>(InHot) /
                static_cast<double>(Log.Records.size()),
            0.6);
}

TEST(Scenario, BurstyArrivalsClusterBelowTheMeanRate) {
  const TraceLog Bursty =
      synthesizeScenario(scenarioOf(ScenarioShape::BurstyHot));
  const TraceLog Smooth =
      synthesizeScenario(scenarioOf(ScenarioShape::SkewedHot));
  std::vector<double> BurstGaps = interArrivals(Bursty);
  const std::vector<double> SmoothGaps = interArrivals(Smooth);
  // Within a burst the gap is mean/BurstFactor, so the median bursty
  // gap sits far below the smooth trace's; the long inter-burst gaps
  // keep the overall rate comparable.
  std::sort(BurstGaps.begin(), BurstGaps.end());
  const double BurstMedian = BurstGaps[BurstGaps.size() / 2];
  EXPECT_LT(BurstMedian, meanOf(SmoothGaps) / 3.0);
  const double RateRatio =
      meanOf(interArrivals(Bursty)) / meanOf(SmoothGaps);
  EXPECT_GT(RateRatio, 0.5);
  EXPECT_LT(RateRatio, 2.0);
}

TEST(Scenario, DayNightSlowsTheNightHalf) {
  ScenarioConfig Config = scenarioOf(ScenarioShape::DayNight);
  Config.PeriodOps = 512;
  const TraceLog Log = synthesizeScenario(Config);
  const std::vector<double> Gaps = interArrivals(Log);
  std::vector<double> Day, Night;
  for (std::size_t I = 0; I < Gaps.size(); ++I)
    ((I % Config.PeriodOps) < Config.PeriodOps / 2 ? Day : Night)
        .push_back(Gaps[I]);
  // NightFactor=6: the night half's inter-arrival mean is several
  // times the day half's.
  EXPECT_GT(meanOf(Night), meanOf(Day) * 3.0);
}

TEST(Scenario, UniqueContentModeNeverRepeatsATag) {
  ScenarioConfig Config = scenarioOf(ScenarioShape::UniformRandom);
  Config.ContentTags = 0; // unique-content mode
  const TraceLog Log = synthesizeScenario(Config);
  std::map<std::uint64_t, int> Seen;
  for (const TraceRecord &R : Log.Records) {
    if (R.Op == TraceOp::Write) {
      EXPECT_EQ(++Seen[R.ContentTag], 1) << "tag " << R.ContentTag;
    }
  }
}
