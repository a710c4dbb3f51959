//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the GPU lane-parallel compressor and its CPU refinement:
/// lane geometry, the framed block (byte-identical to compressFramed),
/// refined-block round trips through both framed decoders (the CPU
/// chunk codec and the warp kernel), raw fallback, and the ratio cost
/// of lane parallelism vs single-scan compression.
///
//===----------------------------------------------------------------------===//

#include "compress/ChunkCodec.h"
#include "compress/GpuLaneCompressor.h"
#include "compress/GpuWarpDecompressor.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

using namespace padre;

namespace {

ByteVector randomData(std::size_t Size, std::uint64_t Seed) {
  ByteVector Data(Size);
  Random Rng(Seed);
  Rng.fillBytes(Data.data(), Data.size());
  return Data;
}

ByteVector repetitiveData(std::size_t Size, std::uint64_t Seed) {
  ByteVector Data(Size);
  Random Rng(Seed);
  std::uint8_t Pattern[64];
  Rng.fillBytes(Pattern, sizeof(Pattern));
  for (std::size_t I = 0; I < Size; I += 64) {
    const std::size_t Take = std::min<std::size_t>(64, Size - I);
    if (Rng.nextBool(0.2))
      Rng.fillBytes(Data.data() + I, Take);
    else
      std::copy(Pattern, Pattern + Take, Data.data() + I);
  }
  return Data;
}

/// Refines and decodes back through the CPU chunk codec and the warp
/// kernel; asserts the chunk survives both.
void expectRefinedRoundTrip(const GpuLaneCompressor &Compressor,
                            const ByteVector &Data) {
  const LaneOutputs Outputs =
      Compressor.runLanes(ByteSpan(Data.data(), Data.size()));
  const RefinedChunk Refined = GpuLaneCompressor::refine(
      Outputs, ByteSpan(Data.data(), Data.size()));
  const auto View =
      decodeBlock(ByteSpan(Refined.Block.data(), Refined.Block.size()));
  ASSERT_TRUE(View.has_value());
  EXPECT_EQ(View->OriginalSize, Data.size());
  if (View->Method == BlockMethod::Raw) {
    EXPECT_TRUE(Refined.StoredRaw);
    EXPECT_TRUE(std::equal(View->Payload.begin(), View->Payload.end(),
                           Data.begin()));
    return;
  }
  EXPECT_FALSE(Refined.StoredRaw);
  ASSERT_EQ(View->Method, BlockMethod::LzFramed);
  ByteVector Out;
  ASSERT_TRUE(decodeChunkPayload(*View, Out));
  EXPECT_EQ(Out, Data);

  WarpSubBlock Table[MaxSubBlocks];
  auto Plan = GpuWarpDecompressor::plan(View->Payload, Data.size(), Table);
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->SubBlocks.size(), Outputs.LaneResults.size());
  ByteVector WarpOut;
  ASSERT_TRUE(GpuWarpDecompressor::runWarps(View->Payload, *Plan, WarpOut));
  EXPECT_EQ(WarpOut, Data);
}

} // namespace

TEST(GpuLaneCompressor, LaneGeometryCoversChunk) {
  GpuLaneConfig Config;
  Config.Lanes = 8;
  const GpuLaneCompressor Compressor(Config);
  const ByteVector Data = randomData(4096, 1);
  const LaneOutputs Outputs =
      Compressor.runLanes(ByteSpan(Data.data(), Data.size()));
  EXPECT_EQ(Outputs.LaneResults.size(), 8u);
  std::size_t Covered = 0;
  for (const CompressResult &Lane : Outputs.LaneResults)
    Covered += Lane.Stats.LiteralBytes + Lane.Stats.MatchBytes;
  EXPECT_EQ(Covered, Data.size());
}

TEST(GpuLaneCompressor, FewerLanesThanBytesDegradesGracefully) {
  GpuLaneConfig Config;
  Config.Lanes = 16;
  const GpuLaneCompressor Compressor(Config);
  const ByteVector Data = randomData(10, 2); // fewer bytes than lanes
  const LaneOutputs Outputs =
      Compressor.runLanes(ByteSpan(Data.data(), Data.size()));
  EXPECT_LE(Outputs.LaneResults.size(), 10u);
  expectRefinedRoundTrip(Compressor, Data);
}

TEST(GpuLaneCompressor, EmptyChunk) {
  const GpuLaneCompressor Compressor;
  const LaneOutputs Outputs = Compressor.runLanes(ByteSpan());
  EXPECT_TRUE(Outputs.LaneResults.empty());
  EXPECT_EQ(Outputs.totalPayloadBytes(), 0u);
  // No frame is smaller than nothing: an empty chunk is stored raw and
  // never reaches a GPU decoder.
  const RefinedChunk Refined = GpuLaneCompressor::refine(Outputs, ByteSpan());
  EXPECT_TRUE(Refined.StoredRaw);
  const auto View =
      decodeBlock(ByteSpan(Refined.Block.data(), Refined.Block.size()));
  ASSERT_TRUE(View.has_value());
  EXPECT_EQ(View->Method, BlockMethod::Raw);
  EXPECT_EQ(View->OriginalSize, 0u);
}

TEST(GpuLaneCompressor, BlockIsCompressFramedBlock) {
  // The lane kernel + refinement write exactly the block the CPU's
  // framed compressor writes at SubBlocks = Lanes: one stored format,
  // whichever engine produced it.
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  const ByteVector Shapes[] = {repetitiveData(4096, 12),
                               repetitiveData(4096, 13),
                               ByteVector(4096, 0x5A)};
  for (const unsigned Lanes : {1u, 2u, 4u, 8u, 16u, 32u}) {
    GpuLaneConfig Config;
    Config.Lanes = Lanes;
    const GpuLaneCompressor Compressor(Config);
    for (const ByteVector &Data : Shapes) {
      const ByteSpan Chunk(Data.data(), Data.size());
      const RefinedChunk Refined =
          GpuLaneCompressor::refine(Compressor.runLanes(Chunk), Chunk);
      const FramedCompressResult Framed = Codec.compressFramed(Chunk, Lanes);
      ASSERT_FALSE(Refined.StoredRaw) << "lanes=" << Lanes;
      EXPECT_EQ(Refined.Block,
                encodeBlock(BlockMethod::LzFramed,
                            static_cast<std::uint32_t>(Data.size()),
                            ByteSpan(Framed.Payload.data(),
                                     Framed.Payload.size())))
          << "lanes=" << Lanes;
      EXPECT_EQ(Refined.Stats.LiteralBytes, Framed.Stats.LiteralBytes);
      EXPECT_EQ(Refined.Stats.MatchBytes, Framed.Stats.MatchBytes);
    }
  }
}

namespace {

/// (lanes, history bytes, data shape). History H is a repeat placed
/// at every lane boundary: the lane's first bytes copy the bytes H
/// before them, a match only a lane whose history reached H bytes
/// into its neighbour could take (with one lane, the repeat sits in
/// the middle of the chunk and is an in-lane match). Both framed
/// decoders decode each sub-block on its own, so a block that used
/// such a match fails the round trip.
class LaneRoundTrip
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t, int>> {
};

/// Lane heads repeat up to this many bytes from H bytes back.
constexpr std::size_t RepeatBytes = 64;

} // namespace

TEST_P(LaneRoundTrip, RefinedStreamDecodes) {
  const auto &[Lanes, History, Shape] = GetParam();
  GpuLaneConfig Config;
  Config.Lanes = Lanes;
  const GpuLaneCompressor Compressor(Config);

  ByteVector Data;
  switch (Shape) {
  case 0:
    Data = randomData(4096, 3);
    break;
  case 1:
    Data = repetitiveData(4096, 4);
    break;
  case 2:
    Data = ByteVector(4096, 0x77);
    break;
  default:
    Data = repetitiveData(16384, 5);
  }
  const std::size_t Sites = std::max(Lanes, 2u);
  for (std::size_t I = 1; History != 0 && I < Sites; ++I) {
    const std::size_t Boundary = Data.size() * I / Sites;
    const std::size_t Take =
        std::min({RepeatBytes, History, Data.size() / Sites});
    if (Boundary >= History)
      std::copy_n(Data.begin() + (Boundary - History), Take,
                  Data.begin() + Boundary);
  }
  expectRefinedRoundTrip(Compressor, Data);

  // And the block is the CPU framed compressor's block for that data.
  const ByteSpan Chunk(Data.data(), Data.size());
  const RefinedChunk Refined =
      GpuLaneCompressor::refine(Compressor.runLanes(Chunk), Chunk);
  if (Refined.StoredRaw)
    return;
  const FramedCompressResult Framed =
      LzCodec(LzCodec::MatcherKind::SingleProbe).compressFramed(Chunk, Lanes);
  EXPECT_EQ(Refined.Block,
            encodeBlock(BlockMethod::LzFramed,
                        static_cast<std::uint32_t>(Data.size()),
                        ByteSpan(Framed.Payload.data(),
                                 Framed.Payload.size())));
}

namespace {

std::string laneRoundTripName(
    const ::testing::TestParamInfo<LaneRoundTrip::ParamType> &Info) {
  static const char *Shapes[] = {"random", "mixed", "constant", "big"};
  return "lanes" + std::to_string(std::get<0>(Info.param)) + "_hist" +
         std::to_string(std::get<1>(Info.param)) + "_" +
         Shapes[std::get<2>(Info.param)];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Geometry, LaneRoundTrip,
    ::testing::Combine(::testing::Values(1u, 2u, 8u, 32u),
                       ::testing::Values(std::size_t{0}, std::size_t{256},
                                         std::size_t{1024}),
                       ::testing::Range(0, 4)),
    laneRoundTripName);

TEST(GpuLaneCompressor, LaneCountClampsToFrameLimit) {
  // More lanes than a frame has sub-blocks run as MaxSubBlocks lanes,
  // the clamp compressFramed applies.
  GpuLaneConfig Config;
  Config.Lanes = 64;
  const GpuLaneCompressor Compressor(Config);
  const ByteVector Data = repetitiveData(4096, 14);
  const ByteSpan Chunk(Data.data(), Data.size());
  const LaneOutputs Outputs = Compressor.runLanes(Chunk);
  EXPECT_EQ(Outputs.LaneResults.size(), MaxSubBlocks);
  const RefinedChunk Refined = GpuLaneCompressor::refine(Outputs, Chunk);
  ASSERT_FALSE(Refined.StoredRaw);
  const FramedCompressResult Framed =
      LzCodec(LzCodec::MatcherKind::SingleProbe).compressFramed(Chunk, 64);
  EXPECT_EQ(Refined.Block,
            encodeBlock(BlockMethod::LzFramed,
                        static_cast<std::uint32_t>(Data.size()),
                        ByteSpan(Framed.Payload.data(),
                                 Framed.Payload.size())));
  expectRefinedRoundTrip(Compressor, Data);
}

TEST(GpuLaneCompressor, IncompressibleFallsBackToRaw) {
  const GpuLaneCompressor Compressor;
  const ByteVector Data = randomData(4096, 6);
  const LaneOutputs Outputs =
      Compressor.runLanes(ByteSpan(Data.data(), Data.size()));
  const RefinedChunk Refined = GpuLaneCompressor::refine(
      Outputs, ByteSpan(Data.data(), Data.size()));
  EXPECT_TRUE(Refined.StoredRaw);
  const auto View =
      decodeBlock(ByteSpan(Refined.Block.data(), Refined.Block.size()));
  ASSERT_TRUE(View.has_value());
  EXPECT_EQ(View->Method, BlockMethod::Raw);
}

TEST(GpuLaneCompressor, CompressibleBeatsRaw) {
  const GpuLaneCompressor Compressor;
  const ByteVector Data = repetitiveData(4096, 7);
  const LaneOutputs Outputs =
      Compressor.runLanes(ByteSpan(Data.data(), Data.size()));
  const RefinedChunk Refined = GpuLaneCompressor::refine(
      Outputs, ByteSpan(Data.data(), Data.size()));
  EXPECT_FALSE(Refined.StoredRaw);
  EXPECT_LT(Refined.Block.size(), Data.size());
}

TEST(GpuLaneCompressor, MoreLanesCostRatioVsSingleScan) {
  // Lane parallelism trades ratio for parallel speed: a single-lane
  // scan can never lose to a many-lane scan with the same matcher.
  const ByteVector Data = repetitiveData(8192, 9);
  GpuLaneConfig One;
  One.Lanes = 1;
  GpuLaneConfig Many;
  Many.Lanes = 16;
  const auto Single = GpuLaneCompressor(One).runLanes(
      ByteSpan(Data.data(), Data.size()));
  const auto Wide = GpuLaneCompressor(Many).runLanes(
      ByteSpan(Data.data(), Data.size()));
  EXPECT_LE(Single.totalPayloadBytes(), Wide.totalPayloadBytes());
}

TEST(GpuLaneCompressor, StatsSurviveRefinement) {
  const ByteVector Data = repetitiveData(4096, 11);
  const GpuLaneCompressor Compressor;
  const LaneOutputs Outputs =
      Compressor.runLanes(ByteSpan(Data.data(), Data.size()));
  CompressStats LaneSum;
  for (const CompressResult &Lane : Outputs.LaneResults)
    LaneSum.merge(Lane.Stats);
  const RefinedChunk Refined = GpuLaneCompressor::refine(
      Outputs, ByteSpan(Data.data(), Data.size()));
  EXPECT_EQ(Refined.Stats.LiteralBytes, LaneSum.LiteralBytes);
  EXPECT_EQ(Refined.Stats.MatchBytes, LaneSum.MatchBytes);
  EXPECT_EQ(Refined.Stats.LiteralBytes + Refined.Stats.MatchBytes,
            Data.size());
}
