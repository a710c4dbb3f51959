//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the compress module: block format
/// integrity, LZ round-trips over adversarial and random inputs for
/// both matchers, token-format edge cases, malformed-payload
/// rejection, the one token decoder behind both the CPU and the warp
/// decode paths, and the per-thread matcher table (no state leaks
/// between calls, threads or table-base wraps).
///
//===----------------------------------------------------------------------===//

#include "compress/Block.h"
#include "compress/ChunkCodec.h"
#include "compress/GpuLaneCompressor.h"
#include "compress/GpuWarpDecompressor.h"
#include "compress/LzCodec.h"
#include "compress/SubBlockFrame.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

using namespace padre;

namespace {

ByteVector randomData(std::size_t Size, std::uint64_t Seed) {
  ByteVector Data(Size);
  Random Rng(Seed);
  Rng.fillBytes(Data.data(), Data.size());
  return Data;
}

ByteVector repetitiveData(std::size_t Size, std::uint64_t Seed) {
  // 75% repeated 64-byte pattern, 25% random cells.
  ByteVector Data(Size);
  Random Rng(Seed);
  std::uint8_t Pattern[64];
  Rng.fillBytes(Pattern, sizeof(Pattern));
  for (std::size_t I = 0; I < Size; I += 64) {
    const std::size_t Take = std::min<std::size_t>(64, Size - I);
    if (Rng.nextBool(0.25))
      Rng.fillBytes(Data.data() + I, Take);
    else
      std::copy(Pattern, Pattern + Take, Data.data() + I);
  }
  return Data;
}

ByteSpan bytesFour() {
  static const std::uint8_t Bytes[4] = {1, 2, 3, 4};
  return ByteSpan(Bytes, 4);
}

void expectRoundTrip(const LzCodec &Codec, const ByteVector &Data) {
  const CompressResult Result =
      Codec.compress(ByteSpan(Data.data(), Data.size()));
  EXPECT_EQ(Result.Stats.LiteralBytes + Result.Stats.MatchBytes,
            Data.size());
  ByteVector Out;
  ASSERT_TRUE(LzCodec::decompress(
      ByteSpan(Result.Payload.data(), Result.Payload.size()), Data.size(),
      Out));
  EXPECT_EQ(Out, Data);
}

} // namespace

//===----------------------------------------------------------------------===//
// Block format
//===----------------------------------------------------------------------===//

TEST(Block, EncodeDecodeRoundTrip) {
  const ByteVector Payload = randomData(100, 1);
  const ByteVector Encoded = encodeBlock(
      BlockMethod::Lz77, 4096, ByteSpan(Payload.data(), Payload.size()));
  EXPECT_EQ(Encoded.size(), BlockHeaderSize + Payload.size());
  const auto View = decodeBlock(ByteSpan(Encoded.data(), Encoded.size()));
  ASSERT_TRUE(View.has_value());
  EXPECT_EQ(View->Method, BlockMethod::Lz77);
  EXPECT_EQ(View->OriginalSize, 4096u);
  EXPECT_TRUE(std::equal(View->Payload.begin(), View->Payload.end(),
                         Payload.begin()));
}

TEST(Block, RejectsBadMagic) {
  ByteVector Encoded = encodeBlock(BlockMethod::Raw, 4, bytesFour());
  Encoded[0] ^= 0xFF;
  EXPECT_FALSE(decodeBlock(ByteSpan(Encoded.data(), Encoded.size())));
}

TEST(Block, RejectsCorruptPayload) {
  const ByteVector Payload = randomData(64, 2);
  ByteVector Encoded = encodeBlock(BlockMethod::QuickLz, 4096,
                                   ByteSpan(Payload.data(), Payload.size()));
  Encoded[BlockHeaderSize + 10] ^= 0x01;
  EXPECT_FALSE(decodeBlock(ByteSpan(Encoded.data(), Encoded.size())));
}

TEST(Block, RejectsTruncation) {
  const ByteVector Payload = randomData(64, 3);
  ByteVector Encoded = encodeBlock(BlockMethod::GpuLane, 4096,
                                   ByteSpan(Payload.data(), Payload.size()));
  Encoded.pop_back();
  EXPECT_FALSE(decodeBlock(ByteSpan(Encoded.data(), Encoded.size())));
  EXPECT_FALSE(decodeBlock(ByteSpan(Encoded.data(), 8)));
}

TEST(Block, RejectsUnknownMethodAndFlags) {
  ByteVector Encoded = encodeBlock(BlockMethod::Raw, 4, bytesFour());
  Encoded[2] = 99;
  EXPECT_FALSE(decodeBlock(ByteSpan(Encoded.data(), Encoded.size())));
  Encoded[2] = 0;
  Encoded[3] = 1; // reserved flags
  EXPECT_FALSE(decodeBlock(ByteSpan(Encoded.data(), Encoded.size())));
}

TEST(Block, RawSizeMustMatch) {
  const ByteVector Payload = randomData(10, 4);
  const ByteVector Encoded = encodeBlock(
      BlockMethod::Raw, 11, ByteSpan(Payload.data(), Payload.size()));
  EXPECT_FALSE(decodeBlock(ByteSpan(Encoded.data(), Encoded.size())));
}

TEST(Block, MethodNames) {
  EXPECT_STREQ(blockMethodName(BlockMethod::Raw), "raw");
  EXPECT_STREQ(blockMethodName(BlockMethod::Lz77), "lz77");
  EXPECT_STREQ(blockMethodName(BlockMethod::QuickLz), "quicklz");
  EXPECT_STREQ(blockMethodName(BlockMethod::GpuLane), "gpulane");
  EXPECT_STREQ(blockMethodName(BlockMethod::Retired), "retired");
  EXPECT_STREQ(blockMethodName(BlockMethod::LzFramed), "lzframed");
}

//===----------------------------------------------------------------------===//
// Method dispatch through decodeChunkPayload
//===----------------------------------------------------------------------===//

TEST(ChunkCodec, DecodeDispatchesEveryMethod) {
  const ByteVector Chunk = repetitiveData(4096, 1300);
  const LzCodec Chain(LzCodec::MatcherKind::HashChain);
  const CompressResult Lz =
      Chain.compress(ByteSpan(Chunk.data(), Chunk.size()));
  for (BlockMethod Method :
       {BlockMethod::Lz77, BlockMethod::QuickLz, BlockMethod::GpuLane}) {
    const ByteVector Block =
        encodeBlock(Method, static_cast<std::uint32_t>(Chunk.size()),
                    ByteSpan(Lz.Payload.data(), Lz.Payload.size()));
    const auto View = decodeBlock(ByteSpan(Block.data(), Block.size()));
    ASSERT_TRUE(View.has_value());
    ByteVector Out;
    ASSERT_TRUE(decodeChunkPayload(*View, Out));
    EXPECT_EQ(Out, Chunk);
  }
  const ByteVector RawBlock =
      encodeBlock(BlockMethod::Raw,
                  static_cast<std::uint32_t>(Chunk.size()),
                  ByteSpan(Chunk.data(), Chunk.size()));
  const auto RawView =
      decodeBlock(ByteSpan(RawBlock.data(), RawBlock.size()));
  ASSERT_TRUE(RawView.has_value());
  ByteVector Out;
  ASSERT_TRUE(decodeChunkPayload(*RawView, Out));
  EXPECT_EQ(Out, Chunk);
}

TEST(ChunkCodec, MethodByteSweepPinsWhatParsesAndDecodes) {
  // Every method byte over a payload of the shape its method expects
  // (raw bytes for 0, a frame for 5, an LZ token stream otherwise):
  // bytes 0-5 parse, all but the retired 4 decode to the chunk, and a
  // failed decode leaves the output untouched.
  const ByteVector Chunk = repetitiveData(4096, 1301);
  const ByteSpan Data(Chunk.data(), Chunk.size());
  const LzCodec Chain(LzCodec::MatcherKind::HashChain);
  const ByteVector Tokens = Chain.compress(Data).Payload;
  const ByteVector Framed = Chain.compressFramed(Data, 4).Payload;
  for (unsigned Byte = 0; Byte < 256; ++Byte) {
    const ByteVector &Payload = Byte == 0 ? Chunk : Byte == 5 ? Framed : Tokens;
    const ByteVector Block = encodeBlock(
        static_cast<BlockMethod>(Byte),
        static_cast<std::uint32_t>(Chunk.size()),
        ByteSpan(Payload.data(), Payload.size()));
    const auto View = decodeBlock(ByteSpan(Block.data(), Block.size()));
    ASSERT_EQ(View.has_value(), Byte <= 5) << "method byte " << Byte;
    if (!View)
      continue;
    const bool Decodes = View->Method != BlockMethod::Retired;
    ByteVector Out = {0xEE};
    EXPECT_EQ(decodeChunkPayload(*View, Out), Decodes)
        << "method byte " << Byte;
    if (Decodes)
      EXPECT_TRUE(std::equal(Out.begin() + 1, Out.end(), Chunk.begin(),
                             Chunk.end()))
          << "method byte " << Byte;
    else
      EXPECT_EQ(Out, ByteVector{0xEE}) << "method byte " << Byte;
  }
}

//===----------------------------------------------------------------------===//
// LzCodec round-trip properties (parameterized over matcher x input)
//===----------------------------------------------------------------------===//

namespace {

class LzRoundTrip
    : public ::testing::TestWithParam<std::tuple<LzCodec::MatcherKind, int>> {
protected:
  LzCodec makeCodec() const { return LzCodec(std::get<0>(GetParam())); }
  ByteVector makeInput() const {
    const int Shape = std::get<1>(GetParam());
    switch (Shape) {
    case 0:
      return ByteVector(); // empty
    case 1:
      return ByteVector(1, 0x42); // single byte
    case 2:
      return ByteVector(4096, 0x00); // constant
    case 3:
      return randomData(4096, 42); // incompressible
    case 4:
      return repetitiveData(4096, 43); // mixed
    case 5: {
      // Short period (overlapping matches).
      ByteVector Data(4096);
      for (std::size_t I = 0; I < Data.size(); ++I)
        Data[I] = static_cast<std::uint8_t>(I % 3);
      return Data;
    }
    case 6:
      return repetitiveData(65536, 44); // max format size
    case 7: {
      // Text-like.
      std::string Text;
      while (Text.size() < 4096)
        Text += "the quick brown fox jumps over the lazy dog. ";
      Text.resize(4096);
      return ByteVector(Text.begin(), Text.end());
    }
    default:
      return randomData(100, 45);
    }
  }
};

} // namespace

TEST_P(LzRoundTrip, DecompressInvertsCompress) {
  const LzCodec Codec = makeCodec();
  expectRoundTrip(Codec, makeInput());
}

namespace {

std::string
lzRoundTripName(const ::testing::TestParamInfo<LzRoundTrip::ParamType> &Info) {
  static const char *Shapes[] = {"empty",  "single",  "constant", "random",
                                 "mixed",  "period3", "max64k",   "text"};
  return std::string(std::get<0>(Info.param) == LzCodec::MatcherKind::HashChain
                         ? "chain_"
                         : "probe_") +
         Shapes[std::get<1>(Info.param)];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    MatcherAndShape, LzRoundTrip,
    ::testing::Combine(::testing::Values(LzCodec::MatcherKind::HashChain,
                                         LzCodec::MatcherKind::SingleProbe),
                       ::testing::Range(0, 8)),
    lzRoundTripName);

//===----------------------------------------------------------------------===//
// Compression quality and stats
//===----------------------------------------------------------------------===//

TEST(LzCodec, ConstantDataCompressesHard) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data(4096, 0xAA);
  const CompressResult Result =
      Codec.compress(ByteSpan(Data.data(), Data.size()));
  EXPECT_LT(Result.Payload.size(), Data.size() / 10);
  EXPECT_GT(Result.Stats.MatchBytes, 3800u);
}

TEST(LzCodec, RandomDataDoesNotExplode) {
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  const ByteVector Data = randomData(4096, 46);
  const CompressResult Result =
      Codec.compress(ByteSpan(Data.data(), Data.size()));
  // At worst ~1 control byte per 128 literals plus rare fake matches.
  EXPECT_LT(Result.Payload.size(), Data.size() + Data.size() / 16);
}

TEST(LzCodec, ChainBeatsOrMatchesProbeOnMixedData) {
  const ByteVector Data = repetitiveData(16384, 47);
  const LzCodec Chain(LzCodec::MatcherKind::HashChain);
  const LzCodec Probe(LzCodec::MatcherKind::SingleProbe);
  const auto ChainSize =
      Chain.compress(ByteSpan(Data.data(), Data.size())).Payload.size();
  const auto ProbeSize =
      Probe.compress(ByteSpan(Data.data(), Data.size())).Payload.size();
  EXPECT_LE(ChainSize, ProbeSize);
}

TEST(LzCodec, StatsPartitionInput) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(8192, 48);
  const CompressResult Result =
      Codec.compress(ByteSpan(Data.data(), Data.size()));
  EXPECT_EQ(Result.Stats.LiteralBytes + Result.Stats.MatchBytes, 8192u);
  EXPECT_GT(Result.Stats.Matches, 0u);
  EXPECT_GT(Result.Stats.LiteralRuns, 0u);
}

TEST(LzCodec, Names) {
  EXPECT_STREQ(LzCodec(LzCodec::MatcherKind::HashChain).name(),
               "lz77-chain");
  EXPECT_STREQ(LzCodec(LzCodec::MatcherKind::SingleProbe).name(),
               "lz-probe");
}

//===----------------------------------------------------------------------===//
// compressRange (the lane primitive)
//===----------------------------------------------------------------------===//

TEST(LzCodec, RangeWithHistoryConcatenatesValidly) {
  const ByteVector Data = repetitiveData(4096, 49);
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  ByteVector Combined;
  for (std::size_t Lane = 0; Lane < 4; ++Lane) {
    const CompressResult Result =
        Codec.compressRange(ByteSpan(Data.data(), Data.size()), Lane * 1024,
                            (Lane + 1) * 1024, 256);
    Combined.insert(Combined.end(), Result.Payload.begin(),
                    Result.Payload.end());
  }
  ByteVector Out;
  ASSERT_TRUE(LzCodec::decompress(
      ByteSpan(Combined.data(), Combined.size()), Data.size(), Out));
  EXPECT_EQ(Out, Data);
}

TEST(LzCodec, ZeroHistoryLaneIsSelfContained) {
  const ByteVector Data = repetitiveData(4096, 50);
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const CompressResult Result = Codec.compressRange(
      ByteSpan(Data.data(), Data.size()), 1024, 2048, 0);
  // A zero-history lane can be decoded standalone.
  ByteVector Out;
  ASSERT_TRUE(LzCodec::decompress(
      ByteSpan(Result.Payload.data(), Result.Payload.size()), 1024, Out));
  EXPECT_TRUE(std::equal(Out.begin(), Out.end(), Data.begin() + 1024));
}

//===----------------------------------------------------------------------===//
// Decoder robustness
//===----------------------------------------------------------------------===//

TEST(LzDecoder, RejectsTruncatedLiteralRun) {
  const ByteVector Payload = {0x05, 'a', 'b'}; // promises 6 literals
  ByteVector Out;
  EXPECT_FALSE(LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), 6, Out));
  EXPECT_TRUE(Out.empty());
}

TEST(LzDecoder, RejectsMatchBeforeStart) {
  // Match token with distance 5 at output position 0.
  const ByteVector Payload = {0x80, 0x05, 0x00};
  ByteVector Out;
  EXPECT_FALSE(LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), 4, Out));
}

TEST(LzDecoder, RejectsZeroDistance) {
  const ByteVector Payload = {0x00, 'x', 0x80, 0x00, 0x00};
  ByteVector Out;
  EXPECT_FALSE(LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), 5, Out));
}

TEST(LzDecoder, RejectsOverlongOutput) {
  const ByteVector Payload = {0x01, 'a', 'b'}; // 2 literals
  ByteVector Out;
  EXPECT_FALSE(LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), 1, Out));
}

TEST(LzDecoder, RejectsShortOutput) {
  const ByteVector Payload = {0x00, 'a'}; // 1 literal, claims 2
  ByteVector Out;
  EXPECT_FALSE(LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), 2, Out));
}

TEST(LzDecoder, RejectsTruncatedMatchToken) {
  const ByteVector Payload = {0x00, 'a', 0x80, 0x01}; // match missing a byte
  ByteVector Out;
  EXPECT_FALSE(LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), 5, Out));
}

TEST(LzDecoder, FailureLeavesOutputUntouched) {
  ByteVector Out = {9, 9, 9};
  const ByteVector Payload = {0x80, 0x05, 0x00};
  EXPECT_FALSE(LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), 4, Out));
  EXPECT_EQ(Out, (ByteVector{9, 9, 9}));
}

TEST(LzDecoder, OverlappingMatchReplicatesPattern) {
  // "abc" then match(distance=3, length=9) -> "abcabcabcabc".
  const ByteVector Payload = {0x02, 'a', 'b', 'c',
                              static_cast<std::uint8_t>(0x80 | (9 - 4)),
                              0x03, 0x00};
  ByteVector Out;
  ASSERT_TRUE(LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), 12, Out));
  EXPECT_EQ(std::string(Out.begin(), Out.end()), "abcabcabcabc");
}

//===----------------------------------------------------------------------===//
// Randomized property sweep: every seed round-trips on both matchers.
//===----------------------------------------------------------------------===//

class LzFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LzFuzz, RandomMixturesRoundTrip) {
  const std::uint64_t Seed = static_cast<std::uint64_t>(GetParam());
  Random Rng(Seed * 7919 + 13);
  // Random mixture of runs, repeats and noise with random total size.
  ByteVector Data;
  const std::size_t Target = 256 + Rng.nextBelow(8000);
  while (Data.size() < Target) {
    switch (Rng.nextBelow(3)) {
    case 0: { // run of one byte
      Data.insert(Data.end(), 1 + Rng.nextBelow(300),
                  static_cast<std::uint8_t>(Rng.nextU32()));
      break;
    }
    case 1: { // copy of an earlier region
      if (Data.empty())
        break;
      const std::size_t From = Rng.nextBelow(Data.size());
      const std::size_t Len =
          std::min<std::size_t>(1 + Rng.nextBelow(200), Data.size() - From);
      for (std::size_t I = 0; I < Len; ++I)
        Data.push_back(Data[From + I]);
      break;
    }
    default: { // noise
      const std::size_t Len = 1 + Rng.nextBelow(100);
      for (std::size_t I = 0; I < Len; ++I)
        Data.push_back(static_cast<std::uint8_t>(Rng.nextU32()));
    }
    }
  }
  Data.resize(std::min<std::size_t>(Data.size(), LzCodec::MaxInputSize));

  expectRoundTrip(LzCodec(LzCodec::MatcherKind::HashChain), Data);
  expectRoundTrip(LzCodec(LzCodec::MatcherKind::SingleProbe), Data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzFuzz, ::testing::Range(0, 25));

//===----------------------------------------------------------------------===//
// Decoder robustness: damaged payloads must fail typed, never crash.
//
// The fault layer (src/fault) flips bits at destage and the scrubber
// feeds suspect blocks straight back through these decoders, so the
// decode contract is load-bearing: a corrupt payload either returns
// false with Out untouched, or decodes to exactly OriginalSize bytes
// (a semantically valid but different token stream). No other outcome
// — in particular no partial output and no out-of-bounds read.
//===----------------------------------------------------------------------===//

namespace {

/// Checks the decode contract for one (possibly damaged) payload.
void expectLzDecodeContract(const ByteVector &Payload,
                            std::size_t OriginalSize) {
  ByteVector Out = {0xEE, 0xBB};
  const ByteVector Before = Out;
  const bool Ok = LzCodec::decompress(
      ByteSpan(Payload.data(), Payload.size()), OriginalSize, Out);
  if (Ok)
    EXPECT_EQ(Out.size(), Before.size() + OriginalSize);
  else
    EXPECT_EQ(Out, Before); // failure must not leave partial output
}

} // namespace

class LzCorruption : public ::testing::TestWithParam<int> {};

TEST_P(LzCorruption, TruncatedPayloadsAlwaysFail) {
  const std::uint64_t Seed = static_cast<std::uint64_t>(GetParam());
  const ByteVector Data = repetitiveData(2048 + Seed * 97, Seed + 600);
  const LzCodec Codec(Seed % 2 ? LzCodec::MatcherKind::HashChain
                               : LzCodec::MatcherKind::SingleProbe);
  const ByteVector Payload =
      Codec.compress(ByteSpan(Data.data(), Data.size())).Payload;
  Random Rng(Seed * 31 + 7);
  for (int Trial = 0; Trial < 32; ++Trial) {
    const std::size_t Keep = Rng.nextBelow(Payload.size());
    ByteVector Cut(Payload.begin(), Payload.begin() + Keep);
    ByteVector Out;
    // Fewer payload bytes can never produce all OriginalSize bytes, so
    // truncation is always detected (not merely tolerated).
    EXPECT_FALSE(LzCodec::decompress(ByteSpan(Cut.data(), Cut.size()),
                                     Data.size(), Out));
    EXPECT_TRUE(Out.empty());
  }
}

TEST_P(LzCorruption, BitFlippedPayloadsFailOrDecodeFullSize) {
  const std::uint64_t Seed = static_cast<std::uint64_t>(GetParam());
  const ByteVector Data = repetitiveData(4096, Seed + 700);
  const LzCodec Codec(Seed % 2 ? LzCodec::MatcherKind::HashChain
                               : LzCodec::MatcherKind::SingleProbe);
  const ByteVector Payload =
      Codec.compress(ByteSpan(Data.data(), Data.size())).Payload;
  Random Rng(Seed * 131 + 17);
  for (int Trial = 0; Trial < 64; ++Trial) {
    ByteVector Damaged = Payload;
    const std::size_t Flips = 1 + Rng.nextBelow(4);
    for (std::size_t I = 0; I < Flips; ++I)
      Damaged[Rng.nextBelow(Damaged.size())] ^=
          static_cast<std::uint8_t>(1u << Rng.nextBelow(8));
    expectLzDecodeContract(Damaged, Data.size());
  }
}

TEST(LzCorruption, GarbagePayloadsNeverCrash) {
  for (std::uint64_t Seed = 0; Seed < 16; ++Seed) {
    Random Rng(Seed * 53 + 29);
    const ByteVector Garbage = randomData(1 + Rng.nextBelow(4096), Seed + 800);
    expectLzDecodeContract(Garbage, 1 + Rng.nextBelow(8192));
  }
}

//===----------------------------------------------------------------------===//
// Framed (v2) payloads through the block layer. The deep frame-format
// sweep lives in test_warpdecode.cpp (`ctest -L decode`); these checks
// pin the compress-side contract: compressFramed round-trips through
// the generic chunk decode path for every supported sub-block count,
// and a damaged framed payload obeys the same fail-typed contract as
// an unframed one.
//===----------------------------------------------------------------------===//

TEST(LzFramed, CompressFramedRoundTripsThroughChunkCodec) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  for (const unsigned Count : {1u, 2u, 4u, 8u}) {
    const ByteVector Data = repetitiveData(8192, 1000 + Count);
    const FramedCompressResult Framed =
        Codec.compressFramed(ByteSpan(Data.data(), Data.size()), Count);
    EXPECT_EQ(Framed.SubBlockCount, Count);
    EXPECT_EQ(Framed.Stats.LiteralBytes + Framed.Stats.MatchBytes,
              Data.size());
    const ByteVector Block = encodeBlock(
        BlockMethod::LzFramed, static_cast<std::uint32_t>(Data.size()),
        ByteSpan(Framed.Payload.data(), Framed.Payload.size()));
    const auto View = decodeBlock(ByteSpan(Block.data(), Block.size()));
    ASSERT_TRUE(View.has_value());
    ByteVector Out;
    ASSERT_TRUE(decodeChunkPayload(*View, Out)) << "sub-blocks=" << Count;
    EXPECT_EQ(Out, Data) << "sub-blocks=" << Count;
  }
}

TEST(LzFramed, HistoryResetKeepsSubBlocksSelfContained) {
  // Each framed sub-block must decode standalone with the plain serial
  // decoder — the property the warp kernel's independence rests on.
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(16384, 1100);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 8);
  const auto Frame = parseSubBlockFrame(
      ByteSpan(Framed.Payload.data(), Framed.Payload.size()),
      static_cast<std::uint32_t>(Data.size()));
  ASSERT_TRUE(Frame.has_value());
  for (unsigned I = 0; I < Frame->Count; ++I) {
    ByteVector Piece;
    ASSERT_TRUE(LzCodec::decompress(Frame->tokens(I),
                                    Frame->Segs[I].OutputBytes, Piece))
        << "sub-block " << I;
    EXPECT_TRUE(std::equal(Piece.begin(), Piece.end(),
                           Data.begin() + Frame->Segs[I].OutputOffset))
        << "sub-block " << I;
  }
}

TEST(LzFramed, DamagedFramedPayloadsFailTypedThroughChunkCodec) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 1200);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  Random Rng(1201);
  for (int Trial = 0; Trial < 64; ++Trial) {
    ByteVector Damaged = Framed.Payload;
    const std::size_t Flips = 1 + Rng.nextBelow(4);
    for (std::size_t I = 0; I < Flips; ++I)
      Damaged[Rng.nextBelow(Damaged.size())] ^=
          static_cast<std::uint8_t>(1u << Rng.nextBelow(8));
    const ByteVector Block = encodeBlock(
        BlockMethod::LzFramed, static_cast<std::uint32_t>(Data.size()),
        ByteSpan(Damaged.data(), Damaged.size()));
    // Encoding after the damage keeps the block checksum valid, so the
    // frame/token validation inside decodeChunkPayload is what's under
    // test here — not the CRC screen above it.
    const auto View = decodeBlock(ByteSpan(Block.data(), Block.size()));
    ASSERT_TRUE(View.has_value());
    ByteVector Out = {0xEE, 0xBB};
    const ByteVector Before = Out;
    if (decodeChunkPayload(*View, Out))
      EXPECT_EQ(Out.size(), Before.size() + Data.size());
    else
      EXPECT_EQ(Out, Before); // failure must not leave partial output
  }
}

TEST(LzCorruption, WrongOriginalSizeIsRejected) {
  const ByteVector Data = repetitiveData(4096, 900);
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Payload =
      Codec.compress(ByteSpan(Data.data(), Data.size())).Payload;
  ByteVector Out;
  // Too-small claim: the stream overruns the declared size.
  EXPECT_FALSE(LzCodec::decompress(ByteSpan(Payload.data(), Payload.size()),
                                   Data.size() - 1, Out));
  EXPECT_TRUE(Out.empty());
  // Too-large claim: the stream ends short of the declared size.
  EXPECT_FALSE(LzCodec::decompress(ByteSpan(Payload.data(), Payload.size()),
                                   Data.size() + 1, Out));
  EXPECT_TRUE(Out.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzCorruption, ::testing::Range(0, 12));

//===----------------------------------------------------------------------===//
// The one token decoder: LzCodec::decompress and the warp kernel body
// (GpuWarpDecompressor::runWarps) share it, so both must expand every
// match shape exactly as the format defines it.
//===----------------------------------------------------------------------===//

namespace {

/// Reference expansion of one literal run followed by one match: the
/// format's definition, one byte at a time.
ByteVector referenceExpansion(const ByteVector &Literals,
                              std::size_t Distance, std::size_t Length) {
  ByteVector Out = Literals;
  for (std::size_t I = 0; I < Length; ++I)
    Out.push_back(Out[Out.size() - Distance]);
  return Out;
}

/// Decodes \p Tokens (covering \p Size bytes) as a one-sub-block frame
/// on the warp kernel body, returning the sub-block's counts in
/// \p Counts.
bool warpDecodeStream(const ByteVector &Tokens, const CompressStats &Stats,
                      ByteVector &Out, LzTokenCounts &Counts) {
  CompressResult Stream;
  Stream.Payload = Tokens;
  Stream.Stats = Stats;
  const ByteVector Frame = frameSubBlocks(std::span(&Stream, 1));
  WarpSubBlock Table[MaxSubBlocks];
  auto Plan = GpuWarpDecompressor::plan(
      ByteSpan(Frame.data(), Frame.size()),
      Stats.LiteralBytes + Stats.MatchBytes,
      std::span<WarpSubBlock>(Table, MaxSubBlocks));
  if (!Plan)
    return false;
  if (!GpuWarpDecompressor::runWarps(ByteSpan(Frame.data(), Frame.size()),
                                     *Plan, Out))
    return false;
  Counts = Plan->SubBlocks[0];
  return true;
}

} // namespace

TEST(LzSharedDecoder, OverlapSweepMatchesReferenceOnBothPaths) {
  // Every distance 1..16 against every encodable match length: the
  // short distances self-overlap (the byte loop), the rest take the
  // block copy, and both paths must agree with the byte-wise reference.
  for (std::size_t Distance = 1; Distance <= 16; ++Distance) {
    ByteVector Literals(Distance);
    for (std::size_t I = 0; I < Distance; ++I)
      Literals[I] = static_cast<std::uint8_t>(I * 37 + Distance);
    for (std::size_t Length = LzCodec::MinMatch; Length <= LzCodec::MaxMatch;
         ++Length) {
      ByteVector Tokens = {static_cast<std::uint8_t>(Distance - 1)};
      Tokens.insert(Tokens.end(), Literals.begin(), Literals.end());
      Tokens.push_back(
          static_cast<std::uint8_t>(0x80 | (Length - LzCodec::MinMatch)));
      Tokens.push_back(static_cast<std::uint8_t>(Distance));
      Tokens.push_back(0);
      const ByteVector Expected =
          referenceExpansion(Literals, Distance, Length);

      ByteVector Cpu = {0xEE};
      ASSERT_TRUE(LzCodec::decompress(ByteSpan(Tokens.data(), Tokens.size()),
                                      Expected.size(), Cpu))
          << "distance " << Distance << " length " << Length;
      EXPECT_EQ(ByteVector(Cpu.begin() + 1, Cpu.end()), Expected)
          << "distance " << Distance << " length " << Length;

      CompressStats Stats;
      Stats.LiteralBytes = static_cast<std::uint32_t>(Distance);
      Stats.MatchBytes = static_cast<std::uint32_t>(Length);
      Stats.LiteralRuns = 1;
      Stats.Matches = 1;
      ByteVector Warp;
      LzTokenCounts Counts;
      ASSERT_TRUE(warpDecodeStream(Tokens, Stats, Warp, Counts))
          << "distance " << Distance << " length " << Length;
      EXPECT_EQ(Warp, Expected)
          << "distance " << Distance << " length " << Length;
      EXPECT_EQ(Counts.Tokens, 2u);
      EXPECT_EQ(Counts.TokenSwitches, 1u);
      EXPECT_EQ(Counts.OverlapMatches, Distance < Length ? 1u : 0u);
      EXPECT_EQ(Counts.Stats.LiteralBytes, Distance);
      EXPECT_EQ(Counts.Stats.MatchBytes, Length);
    }
  }
}

TEST(LzSharedDecoder, CountsSinkMatchesTheEncoderStats) {
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  const ByteVector Data = repetitiveData(4096, 1300);
  const CompressResult Result =
      Codec.compress(ByteSpan(Data.data(), Data.size()));
  ByteVector Out;
  LzTokenCounts Counts;
  ASSERT_TRUE(LzCodec::decompress(
      ByteSpan(Result.Payload.data(), Result.Payload.size()), Data.size(),
      Out, &Counts));
  EXPECT_EQ(Out, Data);
  EXPECT_EQ(Counts.Stats.LiteralBytes, Result.Stats.LiteralBytes);
  EXPECT_EQ(Counts.Stats.MatchBytes, Result.Stats.MatchBytes);
  EXPECT_EQ(Counts.Stats.LiteralRuns, Result.Stats.LiteralRuns);
  EXPECT_EQ(Counts.Stats.Matches, Result.Stats.Matches);
  EXPECT_EQ(Counts.Tokens, Result.Stats.LiteralRuns + Result.Stats.Matches);
}

//===----------------------------------------------------------------------===//
// Matcher state across calls. The single-probe matcher reuses one hash
// table per thread, tagging each slot with a per-call base, so a call's
// output must never depend on what the thread compressed before: every
// result must equal the same call made on a fresh thread.
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Compress on a fresh thread (a fresh matcher table).
template <typename Fn> CompressResult onFreshThread(Fn Compress) {
  CompressResult Result;
  std::thread Worker([&] { Result = Compress(); });
  Worker.join();
  return Result;
}

void expectSameResult(const CompressResult &Got, const CompressResult &Want,
                      const std::string &What) {
  EXPECT_EQ(Got.Payload, Want.Payload) << What;
  EXPECT_EQ(Got.Stats.LiteralBytes, Want.Stats.LiteralBytes) << What;
  EXPECT_EQ(Got.Stats.MatchBytes, Want.Stats.MatchBytes) << What;
  EXPECT_EQ(Got.Stats.LiteralRuns, Want.Stats.LiteralRuns) << What;
  EXPECT_EQ(Got.Stats.Matches, Want.Stats.Matches) << What;
}

/// Chunks A and B share their 64-byte pattern, so slots A leaves in
/// the table hash the same grams B probes.
struct ChunkPair {
  ByteVector A = repetitiveData(4096, 1400);
  ByteVector B = repetitiveData(4096, 1400 + 1);

  ChunkPair() {
    // Shift B against A so a stale slot names a position whose bytes
    // differ between the chunks.
    B.erase(B.begin(), B.begin() + 5);
    B.resize(4096, 0x5A);
  }
};

} // namespace

TEST(LzMatcherState, SecondChunkOnOneThreadMatchesAFreshThread) {
  const ChunkPair Pair;
  const ByteSpan A(Pair.A.data(), Pair.A.size());
  const ByteSpan B(Pair.B.data(), Pair.B.size());
  for (const auto Kind :
       {LzCodec::MatcherKind::HashChain, LzCodec::MatcherKind::SingleProbe}) {
    const LzCodec Codec(Kind);
    const std::string Name = Codec.name();

    // Whole chunks.
    const CompressResult Fresh = onFreshThread([&] { return Codec.compress(B); });
    (void)Codec.compress(A);
    expectSameResult(Codec.compress(B), Fresh, Name + " compress");

    // A lane with history, after a lane of the other chunk.
    const CompressResult FreshLane = onFreshThread(
        [&] { return Codec.compressRange(B, 1024, 2048, 512); });
    (void)Codec.compressRange(A, 1024, 2048, 512);
    expectSameResult(Codec.compressRange(B, 1024, 2048, 512), FreshLane,
                     Name + " compressRange");
  }
}

TEST(LzMatcherState, TableBaseWrapLeavesNoStaleSlots) {
  // The per-call base steps by MaxInputSize through a u32, so 65536
  // calls wrap it. Run past the wrap on one thread, then compare a full
  // chunk against a fresh thread.
  const ChunkPair Pair;
  const ByteSpan B(Pair.B.data(), Pair.B.size());
  for (const auto Kind :
       {LzCodec::MatcherKind::HashChain, LzCodec::MatcherKind::SingleProbe}) {
    const LzCodec Codec(Kind);
    const CompressResult Fresh = onFreshThread([&] { return Codec.compress(B); });
    const CompressResult AfterWrap = onFreshThread([&] {
      const LzCodec Probe(LzCodec::MatcherKind::SingleProbe);
      ByteVector Small = randomData(24, 1500);
      for (std::uint32_t Call = 0; Call < 70000; ++Call) {
        storeLe32(Small.data(), Call);
        (void)Probe.compress(ByteSpan(Small.data(), Small.size()));
      }
      return Codec.compress(B);
    });
    expectSameResult(AfterWrap, Fresh, Codec.name());
  }
}

TEST(LzMatcherState, MatchesEndingOnTheLastByteAtEveryLengthResidue) {
  // A match that runs to the chunk's last byte makes matchLength compare
  // up to its limit: every length mod 8 exercises a different split
  // between the word loop and the byte tail. The chunk sits in an
  // exactly-sized allocation, so an over-read fails under ASan.
  std::vector<std::size_t> Lengths;
  for (std::size_t Length = LzCodec::MinMatch; Length <= 20; ++Length)
    Lengths.push_back(Length);
  for (std::size_t Length = 128; Length <= 140; ++Length)
    Lengths.push_back(Length); // around the MaxMatch split
  constexpr std::size_t Period = 96;
  for (const std::size_t Length : Lengths) {
    // A random prefix, then Length bytes repeating it: one match at
    // distance Period that ends on the last byte.
    ByteVector Data = randomData(Period + Length, 1600 + Length);
    for (std::size_t I = Period; I < Data.size(); ++I)
      Data[I] = Data[I - Period];
    for (const auto Kind : {LzCodec::MatcherKind::HashChain,
                            LzCodec::MatcherKind::SingleProbe}) {
      const LzCodec Codec(Kind);
      const CompressResult Result =
          Codec.compress(ByteSpan(Data.data(), Data.size()));
      EXPECT_EQ(Result.Stats.MatchBytes, Length)
          << Codec.name() << " length " << Length;
      ByteVector Out;
      ASSERT_TRUE(LzCodec::decompress(
          ByteSpan(Result.Payload.data(), Result.Payload.size()), Data.size(),
          Out))
          << Codec.name() << " length " << Length;
      EXPECT_EQ(Out, Data) << Codec.name() << " length " << Length;
    }
  }
}

TEST(LzMatcherState, ConcurrentThreadsMatchASerialRun) {
  // Four threads compress at once — whole chunks on both matchers and
  // the lane kernel — and every result must equal the serial run's.
  constexpr unsigned Threads = 4;
  constexpr unsigned ChunksPerThread = 64;
  const LzCodec Chain(LzCodec::MatcherKind::HashChain);
  const LzCodec Probe(LzCodec::MatcherKind::SingleProbe);
  const GpuLaneCompressor Lanes;
  std::vector<ByteVector> Chunks;
  for (unsigned I = 0; I < Threads * ChunksPerThread; ++I)
    Chunks.push_back(repetitiveData(4096, 1700 + I));

  struct Outcome {
    CompressResult Chain, Probe;
    ByteVector LaneBlock;
  };
  auto Run = [&](const ByteVector &Chunk) {
    const ByteSpan Span(Chunk.data(), Chunk.size());
    return Outcome{Chain.compress(Span), Probe.compress(Span),
                   GpuLaneCompressor::refine(Lanes.runLanes(Span), Span).Block};
  };
  std::vector<Outcome> Serial;
  for (const ByteVector &Chunk : Chunks)
    Serial.push_back(Run(Chunk));

  std::vector<Outcome> Parallel(Chunks.size());
  std::vector<std::thread> Workers;
  std::latch Start(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Start.arrive_and_wait();
      for (unsigned I = T; I < Chunks.size(); I += Threads)
        Parallel[I] = Run(Chunks[I]);
    });
  for (std::thread &Worker : Workers)
    Worker.join();

  for (std::size_t I = 0; I < Chunks.size(); ++I) {
    expectSameResult(Parallel[I].Chain, Serial[I].Chain,
                     "chain chunk " + std::to_string(I));
    expectSameResult(Parallel[I].Probe, Serial[I].Probe,
                     "probe chunk " + std::to_string(I));
    EXPECT_EQ(Parallel[I].LaneBlock, Serial[I].LaneBlock) << "chunk " << I;
  }
}
