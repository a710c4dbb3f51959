//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the bit stream, the canonical Huffman codec, and the
/// LzHuff entropy-stage wiring (ChunkCodec + CpuBackend +
/// pipeline round trips).
///
//===----------------------------------------------------------------------===//

#include "compress/BitStream.h"
#include "compress/ChunkCodec.h"
#include "compress/Huffman.h"
#include "compress/LzCodec.h"
#include "core/ReductionPipeline.h"
#include "util/Random.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <string>

using namespace padre;

namespace {

ByteVector textData(std::size_t Size) {
  std::string Text;
  while (Text.size() < Size)
    Text += "it is a truth universally acknowledged, that a single man in "
            "possession of a good fortune, must be in want of a wife. ";
  Text.resize(Size);
  return ByteVector(Text.begin(), Text.end());
}

ByteVector randomData(std::size_t Size, std::uint64_t Seed) {
  ByteVector Data(Size);
  Random Rng(Seed);
  Rng.fillBytes(Data.data(), Data.size());
  return Data;
}

} // namespace

//===----------------------------------------------------------------------===//
// BitStream
//===----------------------------------------------------------------------===//

TEST(BitStream, WriteReadRoundTrip) {
  ByteVector Buffer;
  BitWriter Writer(Buffer);
  Writer.write(0b101, 3);
  Writer.write(0b11111111, 8);
  Writer.write(0, 1);
  Writer.write(0x12345, 20);
  Writer.finish();

  BitReader Reader(ByteSpan(Buffer.data(), Buffer.size()));
  std::uint32_t Value;
  ASSERT_TRUE(Reader.read(3, Value));
  EXPECT_EQ(Value, 0b101u);
  ASSERT_TRUE(Reader.read(8, Value));
  EXPECT_EQ(Value, 0xFFu);
  ASSERT_TRUE(Reader.read(1, Value));
  EXPECT_EQ(Value, 0u);
  ASSERT_TRUE(Reader.read(20, Value));
  EXPECT_EQ(Value, 0x12345u);
}

TEST(BitStream, ReaderReportsExhaustion) {
  ByteVector Buffer = {0xAB};
  BitReader Reader(ByteSpan(Buffer.data(), Buffer.size()));
  std::uint32_t Value;
  ASSERT_TRUE(Reader.read(8, Value));
  EXPECT_FALSE(Reader.read(1, Value));
}

TEST(BitStream, ManyRandomFields) {
  Random Rng(42);
  std::vector<std::pair<std::uint32_t, unsigned>> Fields;
  ByteVector Buffer;
  BitWriter Writer(Buffer);
  for (int I = 0; I < 2000; ++I) {
    const unsigned Count = 1 + Rng.nextBelow(24);
    const std::uint32_t Value =
        static_cast<std::uint32_t>(Rng.nextU64()) &
        ((Count == 32) ? 0xFFFFFFFFu : ((1u << Count) - 1));
    Fields.push_back({Value, Count});
    Writer.write(Value, Count);
  }
  Writer.finish();
  BitReader Reader(ByteSpan(Buffer.data(), Buffer.size()));
  for (const auto &[Value, Count] : Fields) {
    std::uint32_t Read;
    ASSERT_TRUE(Reader.read(Count, Read));
    EXPECT_EQ(Read, Value);
  }
}

//===----------------------------------------------------------------------===//
// Huffman codec
//===----------------------------------------------------------------------===//

TEST(Huffman, TextRoundTripAndShrinks) {
  const ByteVector Data = textData(4096);
  const auto Encoded = huffmanEncode(ByteSpan(Data.data(), Data.size()));
  ASSERT_TRUE(Encoded.has_value());
  EXPECT_LT(Encoded->size(), Data.size());
  ByteVector Out;
  ASSERT_TRUE(huffmanDecode(ByteSpan(Encoded->data(), Encoded->size()),
                            Data.size(), Out));
  EXPECT_EQ(Out, Data);
}

TEST(Huffman, RandomDataDeclines) {
  const ByteVector Data = randomData(4096, 1);
  // Uniform bytes: entropy ~8 bits/symbol; header makes it a loss.
  EXPECT_FALSE(huffmanEncode(ByteSpan(Data.data(), Data.size())).has_value());
}

TEST(Huffman, SingleSymbolInput) {
  const ByteVector Data(4096, 'x');
  const auto Encoded = huffmanEncode(ByteSpan(Data.data(), Data.size()));
  ASSERT_TRUE(Encoded.has_value());
  // 1 bit per symbol plus the header.
  EXPECT_LT(Encoded->size(), HuffmanHeaderSize + 4096 / 8 + 8);
  ByteVector Out;
  ASSERT_TRUE(huffmanDecode(ByteSpan(Encoded->data(), Encoded->size()),
                            Data.size(), Out));
  EXPECT_EQ(Out, Data);
}

TEST(Huffman, TinyInputDeclines) {
  const ByteVector Data = textData(64); // smaller than the header
  EXPECT_FALSE(huffmanEncode(ByteSpan(Data.data(), Data.size())).has_value());
}

TEST(Huffman, SkewedDistributionRoundTrip) {
  // Exponentially skewed frequencies force deep trees and exercise the
  // length-limiting path.
  ByteVector Data;
  Random Rng(2);
  for (int Symbol = 0; Symbol < 40; ++Symbol) {
    const std::size_t Count = std::size_t{1} << std::min(Symbol, 12);
    for (std::size_t I = 0; I < Count; ++I)
      Data.push_back(static_cast<std::uint8_t>(Symbol));
  }
  // Shuffle so runs do not matter.
  for (std::size_t I = Data.size(); I > 1; --I)
    std::swap(Data[I - 1], Data[Rng.nextBelow(I)]);

  const auto Encoded = huffmanEncode(ByteSpan(Data.data(), Data.size()));
  ASSERT_TRUE(Encoded.has_value());
  ByteVector Out;
  ASSERT_TRUE(huffmanDecode(ByteSpan(Encoded->data(), Encoded->size()),
                            Data.size(), Out));
  EXPECT_EQ(Out, Data);
}

TEST(Huffman, DecodeRejectsTruncation) {
  const ByteVector Data = textData(2048);
  const auto Encoded = huffmanEncode(ByteSpan(Data.data(), Data.size()));
  ASSERT_TRUE(Encoded.has_value());
  ByteVector Out;
  EXPECT_FALSE(huffmanDecode(
      ByteSpan(Encoded->data(), Encoded->size() - 8), Data.size(), Out));
  EXPECT_FALSE(huffmanDecode(ByteSpan(Encoded->data(), 10), Data.size(),
                             Out));
  EXPECT_TRUE(Out.empty());
}

TEST(Huffman, DecodeRejectsInvalidKraftHeader) {
  // A header claiming two symbols of length 1 plus one of length 1 is
  // over-subscribed.
  ByteVector Payload(HuffmanHeaderSize + 8, 0);
  Payload[0] = 0x11; // symbols 0 and 1: length 1
  Payload[1] = 0x01; // symbol 2: length 1 -> Kraft violation
  ByteVector Out;
  EXPECT_FALSE(huffmanDecode(ByteSpan(Payload.data(), Payload.size()), 4,
                             Out));
}

TEST(Huffman, FuzzRoundTripAcrossEntropies) {
  for (std::uint64_t Seed = 0; Seed < 12; ++Seed) {
    Random Rng(Seed * 131 + 7);
    // Alphabet size sweeps from 2 to 256.
    const unsigned Alphabet = 2 + Rng.nextBelow(255);
    ByteVector Data(1024 + Rng.nextBelow(8192));
    for (std::uint8_t &Byte : Data)
      Byte = static_cast<std::uint8_t>(Rng.nextBelow(Alphabet));
    const auto Encoded = huffmanEncode(ByteSpan(Data.data(), Data.size()));
    if (!Encoded)
      continue; // declines are legal; nothing to verify
    ByteVector Out;
    ASSERT_TRUE(huffmanDecode(ByteSpan(Encoded->data(), Encoded->size()),
                              Data.size(), Out))
        << "seed " << Seed;
    EXPECT_EQ(Out, Data) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// ChunkCodec entropy wrapper + engine/pipeline integration
//===----------------------------------------------------------------------===//

TEST(ChunkCodec, EntropyTokensRoundTrip) {
  // A chunk that LZ cannot match much of but whose bytes carry only
  // 4 bits of entropy: the token stream is literal-heavy, the ideal
  // case for the entropy stage.
  ByteVector Chunk(16384);
  Random Rng(3);
  for (std::uint8_t &Byte : Chunk)
    Byte = static_cast<std::uint8_t>(Rng.nextBelow(16));
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  const CompressResult Lz =
      Codec.compress(ByteSpan(Chunk.data(), Chunk.size()));
  const auto Payload =
      entropyEncodeTokens(ByteSpan(Lz.Payload.data(), Lz.Payload.size()));
  ASSERT_TRUE(Payload.has_value());
  EXPECT_LT(Payload->size(), Lz.Payload.size());

  const ByteVector Block =
      encodeBlock(BlockMethod::LzHuff,
                  static_cast<std::uint32_t>(Chunk.size()),
                  ByteSpan(Payload->data(), Payload->size()));
  const auto View = decodeBlock(ByteSpan(Block.data(), Block.size()));
  ASSERT_TRUE(View.has_value());
  ByteVector Out;
  ASSERT_TRUE(decodeChunkPayload(*View, Out));
  EXPECT_EQ(Out, Chunk);
}

TEST(ChunkCodec, DecodeDispatchesEveryMethod) {
  const ByteVector Chunk = textData(4096);
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
  ByteVector Out;
  ASSERT_TRUE(decodeChunkPayload(*RawView, Out));
  EXPECT_EQ(Out, Chunk);
}

TEST(ChunkCodec, LzHuffRejectsShortPayload) {
  const ByteVector Block = encodeBlock(BlockMethod::LzHuff, 4096,
                                       ByteSpan());
  const auto View = decodeBlock(ByteSpan(Block.data(), Block.size()));
  ASSERT_TRUE(View.has_value());
  ByteVector Out;
  EXPECT_FALSE(decodeChunkPayload(*View, Out));
}

namespace {

class EntropyPipeline : public ::testing::TestWithParam<PipelineMode> {};

} // namespace

TEST_P(EntropyPipeline, RoundTripsAndImprovesRatio) {
  WorkloadConfig Load;
  Load.TotalBytes = 4 << 20;
  Load.DedupRatio = 1.0;
  Load.CompressRatio = 2.0;
  const ByteVector Data = VdbenchStream(Load).generateAll();

  PipelineConfig Plain;
  Plain.Mode = GetParam();
  Plain.Dedup.Index.BinBits = 8;
  PipelineConfig WithEntropy = Plain;
  WithEntropy.Compress.EntropyStage = true;

  ReductionPipeline PipelinePlain(Platform::paper(), Plain);
  PipelinePlain.write(ByteSpan(Data.data(), Data.size()));
  PipelinePlain.finish();
  ReductionPipeline PipelineEntropy(Platform::paper(), WithEntropy);
  PipelineEntropy.write(ByteSpan(Data.data(), Data.size()));
  PipelineEntropy.finish();

  EXPECT_TRUE(
      PipelineEntropy.verifyAgainst(ByteSpan(Data.data(), Data.size())));
  // Entropy stage must not hurt the stored size and should help some.
  EXPECT_LE(PipelineEntropy.report().StoredBytes,
            PipelinePlain.report().StoredBytes);
  // It costs CPU time (the trade the extension makes).
  EXPECT_GE(PipelineEntropy.report().CpuBusySec,
            PipelinePlain.report().CpuBusySec);
}

TEST_P(EntropyPipeline, TextLikeStreamReadsBackEveryChunk) {
  // 16-symbol content leaves ~4 bits/byte that LZ cannot reach but
  // Huffman can, so the entropy stage pays off on unframed chunks.
  // Framed chunks — every block gpu-compress writes — must skip it: a
  // Huffman wrap would hide the frame from every framed decoder.
  WorkloadConfig Load;
  Load.TotalBytes = 2 << 20;
  Load.DedupRatio = 1.0;
  Load.CompressRatio = 2.0;
  Load.ContentAlphabet = 16;
  const ByteVector Data = VdbenchStream(Load).generateAll();

  PipelineConfig Config;
  Config.Mode = GetParam();
  Config.Dedup.Index.BinBits = 8;
  Config.Compress.EntropyStage = true;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();

  // Read every chunk back through the block codec, in recipe order.
  ByteVector Restored;
  std::size_t Huffman = 0, Framed = 0;
  for (const std::uint64_t Loc : Pipeline.recipe().ChunkLocations) {
    const auto Block = Pipeline.store().encodedBlock(Loc);
    ASSERT_TRUE(Block.has_value()) << Loc;
    const auto View = decodeBlock(*Block);
    ASSERT_TRUE(View.has_value()) << Loc;
    ASSERT_TRUE(decodeChunkPayload(*View, Restored))
        << "location " << Loc << " method " << blockMethodName(View->Method);
    Huffman += View->Method == BlockMethod::LzHuff;
    Framed += View->Method == BlockMethod::LzFramed;
  }
  EXPECT_EQ(Restored, Data);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
  if (GetParam() == PipelineMode::CpuOnly) {
    EXPECT_GT(Huffman, 0u);
  } else {
    EXPECT_EQ(Huffman, 0u);
    EXPECT_GT(Framed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, EntropyPipeline,
                         ::testing::Values(PipelineMode::CpuOnly,
                                           PipelineMode::GpuCompress),
                         [](const auto &Info) {
                           return Info.param == PipelineMode::CpuOnly
                                      ? "cpu"
                                      : "gpu";
                         });

//===----------------------------------------------------------------------===//
// Decoder robustness under systematic damage. The destage bit-flip
// fault (src/fault) can land anywhere in a stored block, so the
// entropy decoder must uphold the same contract as the LZ and delta
// decoders: a damaged payload either fails (Out untouched) or decodes
// to exactly OriginalSize bytes — never a crash, never partial output.
//===----------------------------------------------------------------------===//

namespace {

ByteVector compressibleCorpus(std::uint64_t Seed) {
  Random Rng(Seed * 977 + 5);
  const unsigned Alphabet = 2 + Rng.nextBelow(48);
  ByteVector Data(1024 + Rng.nextBelow(4096));
  for (std::uint8_t &Byte : Data)
    Byte = static_cast<std::uint8_t>(Rng.nextBelow(Alphabet));
  return Data;
}

void expectHuffmanDecodeContract(const ByteVector &Payload,
                                 std::size_t OriginalSize) {
  ByteVector Out = {0xA5};
  const ByteVector Before = Out;
  const bool Ok = huffmanDecode(ByteSpan(Payload.data(), Payload.size()),
                                OriginalSize, Out);
  if (Ok)
    EXPECT_EQ(Out.size(), Before.size() + OriginalSize);
  else
    EXPECT_EQ(Out, Before);
}

} // namespace

class HuffmanCorruption : public ::testing::TestWithParam<int> {};

TEST_P(HuffmanCorruption, TruncationSweepFailsCleanly) {
  const std::uint64_t Seed = static_cast<std::uint64_t>(GetParam());
  const ByteVector Data = compressibleCorpus(Seed);
  const auto Encoded = huffmanEncode(ByteSpan(Data.data(), Data.size()));
  ASSERT_TRUE(Encoded.has_value());
  Random Rng(Seed * 37 + 3);
  for (int Trial = 0; Trial < 24; ++Trial) {
    const std::size_t Keep = Rng.nextBelow(Encoded->size());
    const ByteVector Cut(Encoded->begin(), Encoded->begin() + Keep);
    ByteVector Out;
    // A truncated stream can never yield all OriginalSize symbols —
    // below the header it is rejected outright, above it the bit
    // reader exhausts early.
    EXPECT_FALSE(huffmanDecode(ByteSpan(Cut.data(), Cut.size()),
                               Data.size(), Out));
    EXPECT_TRUE(Out.empty());
  }
}

TEST_P(HuffmanCorruption, BitFlipsInHeaderAndStreamFailOrDecodeFullSize) {
  const std::uint64_t Seed = static_cast<std::uint64_t>(GetParam());
  const ByteVector Data = compressibleCorpus(Seed + 100);
  const auto Encoded = huffmanEncode(ByteSpan(Data.data(), Data.size()));
  ASSERT_TRUE(Encoded.has_value());
  Random Rng(Seed * 61 + 11);
  for (int Trial = 0; Trial < 48; ++Trial) {
    ByteVector Damaged = *Encoded;
    // Half the trials target the 128-byte code-length header (corrupt
    // tables, Kraft violations), half the bit stream proper.
    const bool HitHeader = Trial % 2 == 0;
    const std::size_t Offset =
        HitHeader ? Rng.nextBelow(HuffmanHeaderSize)
                  : HuffmanHeaderSize +
                        Rng.nextBelow(Damaged.size() - HuffmanHeaderSize);
    Damaged[Offset] ^= static_cast<std::uint8_t>(1u << Rng.nextBelow(8));
    expectHuffmanDecodeContract(Damaged, Data.size());
  }
}

TEST(HuffmanCorruption, GarbagePayloadsNeverCrash) {
  for (std::uint64_t Seed = 0; Seed < 16; ++Seed) {
    Random Rng(Seed * 211 + 9);
    ByteVector Garbage(HuffmanHeaderSize + Rng.nextBelow(2048));
    Rng.fillBytes(Garbage.data(), Garbage.size());
    expectHuffmanDecodeContract(Garbage, 1 + Rng.nextBelow(8192));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanCorruption, ::testing::Range(0, 10));
