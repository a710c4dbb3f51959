//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for decode v2's codec layer (`ctest -L decode`): the sub-block
/// frame format (parse geometry, header round trips, the corruption
/// sweep), compressFramed's history-reset invariant and measured ratio
/// cost, the warp-cooperative decompressor's bit-exactness against the
/// serial LzCodec::decompress oracle across sub-block counts and data
/// shapes, and the warp cost-model helper.
///
//===----------------------------------------------------------------------===//

#include "compress/ChunkCodec.h"
#include "compress/GpuWarpDecompressor.h"
#include "compress/SubBlockFrame.h"
#include "sim/CostModel.h"
#include "util/Random.h"

#include <gtest/gtest.h>

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

/// The serial oracle: LzCodec::decompress over each sub-block, exactly
/// what ChunkCodec's LzFramed branch runs.
ByteVector serialOracleDecode(const ByteVector &Framed,
                              std::size_t OriginalSize) {
  const auto Frame = parseSubBlockFrame(
      ByteSpan(Framed.data(), Framed.size()),
      static_cast<std::uint32_t>(OriginalSize));
  EXPECT_TRUE(Frame.has_value());
  ByteVector Out;
  if (!Frame)
    return Out;
  for (unsigned I = 0; I < Frame->Count; ++I)
    EXPECT_TRUE(LzCodec::decompress(Frame->tokens(I),
                                    Frame->Segs[I].OutputBytes, Out));
  return Out;
}

/// Warp plan + runWarps over a framed payload.
ByteVector warpDecode(const ByteVector &Framed, std::size_t OriginalSize,
                      bool *Ok = nullptr) {
  WarpSubBlock Table[MaxSubBlocks];
  auto Plan = GpuWarpDecompressor::plan(
      ByteSpan(Framed.data(), Framed.size()), OriginalSize,
      std::span<WarpSubBlock>(Table, MaxSubBlocks));
  ByteVector Out;
  if (!Plan) {
    if (Ok)
      *Ok = false;
    return Out;
  }
  const bool Ran = GpuWarpDecompressor::runWarps(
      ByteSpan(Framed.data(), Framed.size()), *Plan, Out);
  if (Ok)
    *Ok = Ran;
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame format
//===----------------------------------------------------------------------===//

TEST(SubBlockFrame, HeaderRoundTripsAndSegsTile) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(8192, 11);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  EXPECT_EQ(Framed.SubBlockCount, 4u);
  const auto Frame =
      parseSubBlockFrame(ByteSpan(Framed.Payload.data(),
                                  Framed.Payload.size()),
                         static_cast<std::uint32_t>(Data.size()));
  ASSERT_TRUE(Frame.has_value());
  ASSERT_EQ(Frame->Count, 4u);
  // Segments tile both the token region and the decoded output.
  std::size_t PayloadPos = subBlockHeaderSize(Frame->Count);
  std::size_t OutputPos = 0;
  for (unsigned I = 0; I < Frame->Count; ++I) {
    const SubBlockSeg &Seg = Frame->Segs[I];
    EXPECT_EQ(Seg.PayloadOffset, PayloadPos);
    EXPECT_EQ(Seg.OutputOffset, OutputPos);
    EXPECT_GT(Seg.OutputBytes, 0u);
    PayloadPos += Seg.PayloadBytes;
    OutputPos += Seg.OutputBytes;
  }
  EXPECT_EQ(PayloadPos, Framed.Payload.size());
  EXPECT_EQ(OutputPos, Data.size());
}

TEST(SubBlockFrame, TinyInputClampsSubBlockCount) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Tiny = {std::uint8_t{1}, std::uint8_t{2},
                           std::uint8_t{3}};
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Tiny.data(), Tiny.size()), 8);
  EXPECT_LE(Framed.SubBlockCount, Tiny.size());
  EXPECT_GE(Framed.SubBlockCount, 1u);
  EXPECT_EQ(serialOracleDecode(Framed.Payload, Tiny.size()), Tiny);
}

TEST(SubBlockFrame, OversizedCountClampsToMax) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 12);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 1000);
  EXPECT_EQ(Framed.SubBlockCount, MaxSubBlocks);
  EXPECT_EQ(serialOracleDecode(Framed.Payload, Data.size()), Data);
}

TEST(SubBlockFrame, RatioCostIsBoundedOnCompressibleData) {
  // The history reset + header overhead must stay a small tax: the
  // whole point of the format is trading a few percent of ratio for
  // warp parallelism (the bench gates <= 5% on the vdbench workload).
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(65536, 13);
  const std::size_t Unframed =
      Codec.compress(ByteSpan(Data.data(), Data.size())).Payload.size();
  for (const unsigned Count : {1u, 2u, 4u, 8u}) {
    const FramedCompressResult Framed =
        Codec.compressFramed(ByteSpan(Data.data(), Data.size()), Count);
    const double DeltaPct =
        100.0 *
        (static_cast<double>(Framed.Payload.size()) -
         static_cast<double>(Unframed)) /
        static_cast<double>(Unframed);
    EXPECT_LT(DeltaPct, 10.0) << "sub-blocks=" << Count;
    EXPECT_EQ(serialOracleDecode(Framed.Payload, Data.size()), Data)
        << "sub-blocks=" << Count;
  }
}

TEST(SubBlockFrame, ChunkCodecDecodesLzFramedBlocks) {
  // The block-layer integration: an LzFramed block decodes through the
  // generic chunk codec (the CPU path every framed chunk can fall back
  // to).
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(8192, 14);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  const ByteVector Block = encodeBlock(
      BlockMethod::LzFramed, static_cast<std::uint32_t>(Data.size()),
      ByteSpan(Framed.Payload.data(), Framed.Payload.size()));
  const auto View = decodeBlock(ByteSpan(Block.data(), Block.size()));
  ASSERT_TRUE(View.has_value());
  EXPECT_EQ(View->Method, BlockMethod::LzFramed);
  ByteVector Out;
  ASSERT_TRUE(decodeChunkPayload(*View, Out));
  EXPECT_EQ(Out, Data);
}

//===----------------------------------------------------------------------===//
// Warp decode vs the serial oracle
//===----------------------------------------------------------------------===//

namespace {

class WarpOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

std::string warpOracleName(
    const ::testing::TestParamInfo<WarpOracle::ParamType> &Info) {
  static const char *Shapes[] = {"random", "mixed", "constant", "big"};
  return "sub" + std::to_string(std::get<0>(Info.param)) + "_" +
         Shapes[std::get<1>(Info.param)];
}

} // namespace

TEST_P(WarpOracle, WarpDecodeMatchesSerialOracleBitExact) {
  const auto &[SubBlocks, Shape] = GetParam();
  ByteVector Data;
  switch (Shape) {
  case 0:
    Data = randomData(4096, 21);
    break;
  case 1:
    Data = repetitiveData(4096, 22);
    break;
  case 2:
    Data = ByteVector(4096, 0x77);
    break;
  default:
    Data = repetitiveData(32768, 23);
  }
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), SubBlocks);
  const ByteVector Oracle = serialOracleDecode(Framed.Payload, Data.size());
  bool Ok = false;
  const ByteVector Warp = warpDecode(Framed.Payload, Data.size(), &Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Warp, Oracle);
  EXPECT_EQ(Warp, Data);
}

INSTANTIATE_TEST_SUITE_P(
    CountsAndShapes, WarpOracle,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Range(0, 4)),
    warpOracleName);

TEST(GpuWarpDecompressor, PlanIsHeaderOnlyAndFillsTable) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(8192, 31);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 8);
  WarpSubBlock Table[MaxSubBlocks];
  auto Plan = GpuWarpDecompressor::plan(
      ByteSpan(Framed.Payload.data(), Framed.Payload.size()), Data.size(),
      std::span<WarpSubBlock>(Table, MaxSubBlocks));
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->SubBlocks.size(), 8u);
  EXPECT_EQ(Plan->OriginalSize, Data.size());
  EXPECT_EQ(Plan->PayloadSize, Framed.Payload.size());
  // Counts are filled by runWarps, not plan (the O(N) header parse
  // never walks tokens).
  for (const WarpSubBlock &Sub : Plan->SubBlocks) {
    EXPECT_EQ(Sub.Tokens, 0u);
    EXPECT_EQ(Sub.TokenSwitches, 0u);
  }
  ByteVector Out;
  ASSERT_TRUE(GpuWarpDecompressor::runWarps(
      ByteSpan(Framed.Payload.data(), Framed.Payload.size()), *Plan, Out));
  std::uint64_t Tokens = 0;
  for (const WarpSubBlock &Sub : Plan->SubBlocks) {
    EXPECT_GT(Sub.Tokens, 0u);
    EXPECT_EQ(Sub.Stats.LiteralBytes + Sub.Stats.MatchBytes,
              Sub.Seg.OutputBytes);
    Tokens += Sub.Tokens;
  }
  EXPECT_GT(Tokens, 0u);
}

TEST(GpuWarpDecompressor, TokenSwitchesTrackTokenMix) {
  // Constant data decodes as one literal run plus long matches per
  // sub-block — few token-kind switches. Mixed data flips between kinds
  // constantly. The divergence input to gpuWarpSubBlockUs must reflect
  // that ordering.
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  auto Switches = [&](const ByteVector &Data) {
    const FramedCompressResult Framed =
        Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 8);
    WarpSubBlock Table[MaxSubBlocks];
    auto Plan = GpuWarpDecompressor::plan(
        ByteSpan(Framed.Payload.data(), Framed.Payload.size()), Data.size(),
        std::span<WarpSubBlock>(Table, MaxSubBlocks));
    EXPECT_TRUE(Plan.has_value());
    ByteVector Out;
    EXPECT_TRUE(GpuWarpDecompressor::runWarps(
        ByteSpan(Framed.Payload.data(), Framed.Payload.size()), *Plan, Out));
    std::uint64_t Total = 0;
    for (const WarpSubBlock &Sub : Plan->SubBlocks) {
      EXPECT_LT(Sub.TokenSwitches, Sub.Tokens);
      Total += Sub.TokenSwitches;
    }
    return Total;
  };
  EXPECT_LT(Switches(ByteVector(8192, std::uint8_t{0x42})),
            Switches(repetitiveData(8192, 7)));
}

TEST(GpuWarpDecompressor, UndersizedTableRejected) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 32);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 8);
  WarpSubBlock Small[4];
  EXPECT_FALSE(GpuWarpDecompressor::plan(
                   ByteSpan(Framed.Payload.data(), Framed.Payload.size()),
                   Data.size(), std::span<WarpSubBlock>(Small, 4))
                   .has_value());
}

TEST(GpuWarpDecompressor, CrossSubBlockDistanceRejected) {
  // History reset is an invariant, not a convention: hand-build a frame
  // whose second sub-block reaches back across the boundary. The serial
  // oracle would happily decode it (its history spans the chunk), so
  // the warp kernel must reject it itself.
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data(512, std::uint8_t{0x42});
  // Sub-block 1: the constant run compressed standalone.
  CompressResult SubBlocks[2];
  SubBlocks[0] = Codec.compress(ByteSpan(Data.data(), Data.size()));
  // Sub-block 2: one literal + a match of length 4 whose distance (600)
  // reaches before the sub-block (600 > its own output).
  CompressResult &Evil = SubBlocks[1];
  Evil.Payload.push_back(std::uint8_t{0});    // literal run, length 1
  Evil.Payload.push_back(std::uint8_t{0xAA}); // the literal
  Evil.Payload.push_back(std::uint8_t{0x80}); // match, length 4
  Evil.Payload.push_back(std::uint8_t{88});   // distance lo: 600 = 0x258
  Evil.Payload.push_back(std::uint8_t{2});    // distance hi
  Evil.Stats.LiteralBytes = 1;
  Evil.Stats.MatchBytes = 4;
  const ByteVector Framed = frameSubBlocks(SubBlocks);

  bool Ok = true;
  const ByteVector Out = warpDecode(Framed, 517, &Ok);
  EXPECT_FALSE(Ok);
  EXPECT_TRUE(Out.empty()); // no partial output on failure
}

//===----------------------------------------------------------------------===//
// Corruption sweep: every malformed frame fails typed, never crashes.
//===----------------------------------------------------------------------===//

TEST(SubBlockFrameCorruption, HeaderFieldSweep) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 41);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  const auto Parse = [&](const ByteVector &Payload) {
    return parseSubBlockFrame(ByteSpan(Payload.data(), Payload.size()),
                              static_cast<std::uint32_t>(Data.size()));
  };
  ASSERT_TRUE(Parse(Framed.Payload).has_value());

  ByteVector Bad = Framed.Payload;
  Bad[0] = 0x5C; // wrong magic
  EXPECT_FALSE(Parse(Bad).has_value());

  Bad = Framed.Payload;
  Bad[1] = 1; // wrong version (v1 streams are never framed)
  EXPECT_FALSE(Parse(Bad).has_value());

  Bad = Framed.Payload;
  Bad[2] = 0; // zero sub-blocks
  EXPECT_FALSE(Parse(Bad).has_value());

  Bad = Framed.Payload;
  Bad[2] = MaxSubBlocks + 1; // count above the format bound
  EXPECT_FALSE(Parse(Bad).has_value());

  Bad = Framed.Payload;
  Bad[3] = 0xFF; // reserved byte must be zero
  EXPECT_FALSE(Parse(Bad).has_value());

  // Size-table damage: every byte of every length entry, flipped.
  for (std::size_t I = 4; I < subBlockHeaderSize(4); ++I) {
    Bad = Framed.Payload;
    Bad[I] ^= 0xFF;
    const auto Frame = Parse(Bad);
    if (!Frame.has_value())
      continue; // parse already rejected it
    // A flip the running sums cannot catch must still fail (or
    // round-trip bit-exactly, never crash or mis-decode) in the
    // decoders themselves.
    ByteVector Out;
    WarpSubBlock Table[MaxSubBlocks];
    auto Plan = GpuWarpDecompressor::plan(ByteSpan(Bad.data(), Bad.size()),
                                          Data.size(),
                                          std::span<WarpSubBlock>(
                                              Table, MaxSubBlocks));
    if (!Plan)
      continue;
    if (GpuWarpDecompressor::runWarps(ByteSpan(Bad.data(), Bad.size()),
                                      *Plan, Out)) {
      EXPECT_EQ(Out, Data) << "header byte " << I;
    }
  }
}

TEST(SubBlockFrameCorruption, TruncationAndSizeMismatch) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 42);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);

  // Truncated anywhere: header, table, streams.
  for (const std::size_t Keep :
       {std::size_t{0}, std::size_t{3}, subBlockHeaderSize(4) - 1,
        Framed.Payload.size() - 1}) {
    EXPECT_FALSE(parseSubBlockFrame(
                     ByteSpan(Framed.Payload.data(), Keep),
                     static_cast<std::uint32_t>(Data.size()))
                     .has_value())
        << "kept " << Keep;
  }
  // OriginalSize mismatch: the output sum no longer reconciles.
  EXPECT_FALSE(
      parseSubBlockFrame(
          ByteSpan(Framed.Payload.data(), Framed.Payload.size()),
          static_cast<std::uint32_t>(Data.size() - 1))
          .has_value());
  // Trailing garbage: payload sum no longer reconciles.
  ByteVector Longer = Framed.Payload;
  Longer.push_back(std::uint8_t{0});
  EXPECT_FALSE(parseSubBlockFrame(ByteSpan(Longer.data(), Longer.size()),
                                  static_cast<std::uint32_t>(Data.size()))
                   .has_value());
}

TEST(SubBlockFrameCorruption, TokenStreamByteSweepNeverCrashes) {
  // Flip every token byte in turn: each variant either fails typed in
  // runWarps (distances/lengths no longer reconcile) or still decodes
  // to exactly OriginalSize bytes. No partial output, no crash — the
  // CRC normally screens these, so this exercises the last line of
  // defence.
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(1024, 43);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  for (std::size_t I = subBlockHeaderSize(4); I < Framed.Payload.size();
       ++I) {
    ByteVector Bad = Framed.Payload;
    Bad[I] ^= 0x55;
    bool Ok = false;
    const ByteVector Out = warpDecode(Bad, Data.size(), &Ok);
    if (Ok)
      EXPECT_EQ(Out.size(), Data.size()) << "token byte " << I;
    else
      EXPECT_TRUE(Out.empty()) << "token byte " << I;
  }
}

//===----------------------------------------------------------------------===//
// Warp cost model
//===----------------------------------------------------------------------===//

TEST(WarpCostModel, SubBlockCostIsMonotonic) {
  const CostModel Model;
  const double Base = Model.gpuWarpSubBlockUs(64, 4096, 16, 4);
  EXPECT_GT(Base, 0.0);
  EXPECT_GT(Model.gpuWarpSubBlockUs(128, 4096, 16, 4), Base);
  EXPECT_GT(Model.gpuWarpSubBlockUs(64, 8192, 16, 4), Base);
  EXPECT_GT(Model.gpuWarpSubBlockUs(64, 4096, 64, 4), Base);
  EXPECT_GT(Model.gpuWarpSubBlockUs(64, 4096, 16, 32), Base);
}

TEST(WarpCostModel, DoorbellIsFarBelowLaunch) {
  // The doorbell is far below a full launch — the persistent kernel's
  // whole reason to exist.
  const CostModel Model;
  EXPECT_LT(Model.Gpu.WarpDoorbellUs * 10.0, Model.Gpu.LaunchUs);
}
