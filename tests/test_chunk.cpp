//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the chunk module. The core invariant for
/// every chunker: the produced views partition the stream exactly, and
/// sizes respect the strategy's bounds. CDC chunkers additionally must
/// be shift-resistant.
///
//===----------------------------------------------------------------------===//

#include "chunk/FastCdcChunker.h"
#include "chunk/FixedChunker.h"
#include "chunk/RabinChunker.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
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

/// Asserts that Chunks exactly tile [BaseOffset, BaseOffset + Size).
void expectPartition(const std::vector<ChunkView> &Chunks,
                     const ByteVector &Stream, std::uint64_t BaseOffset) {
  std::uint64_t Expected = BaseOffset;
  std::size_t StreamPos = 0;
  for (const ChunkView &Chunk : Chunks) {
    ASSERT_EQ(Chunk.StreamOffset, Expected);
    ASSERT_LE(StreamPos + Chunk.Data.size(), Stream.size());
    EXPECT_EQ(Chunk.Data.data(), Stream.data() + StreamPos);
    Expected += Chunk.Data.size();
    StreamPos += Chunk.Data.size();
  }
  EXPECT_EQ(StreamPos, Stream.size());
}

} // namespace

//===----------------------------------------------------------------------===//
// FixedChunker
//===----------------------------------------------------------------------===//

TEST(FixedChunker, ExactMultiple) {
  const ByteVector Data = randomData(16384, 1);
  FixedChunker Chunker(4096);
  std::vector<ChunkView> Chunks;
  Chunker.split(ByteSpan(Data.data(), Data.size()), 0, Chunks);
  ASSERT_EQ(Chunks.size(), 4u);
  for (const ChunkView &Chunk : Chunks)
    EXPECT_EQ(Chunk.Data.size(), 4096u);
  expectPartition(Chunks, Data, 0);
}

TEST(FixedChunker, TrailingPartialChunk) {
  const ByteVector Data = randomData(10000, 2);
  FixedChunker Chunker(4096);
  std::vector<ChunkView> Chunks;
  Chunker.split(ByteSpan(Data.data(), Data.size()), 100, Chunks);
  ASSERT_EQ(Chunks.size(), 3u);
  EXPECT_EQ(Chunks[2].Data.size(), 10000u - 8192u);
  expectPartition(Chunks, Data, 100);
}

TEST(FixedChunker, EmptyStream) {
  FixedChunker Chunker(4096);
  std::vector<ChunkView> Chunks;
  Chunker.split(ByteSpan(), 0, Chunks);
  EXPECT_TRUE(Chunks.empty());
}

TEST(FixedChunker, MetaData) {
  FixedChunker Chunker(8192);
  EXPECT_STREQ(Chunker.name(), "fixed");
  EXPECT_EQ(Chunker.nominalChunkSize(), 8192u);
}

//===----------------------------------------------------------------------===//
// Content-defined chunkers: shared properties, parameterized over both
// implementations and several size configurations.
//===----------------------------------------------------------------------===//

namespace {

struct CdcCase {
  const char *Name;
  std::size_t Min, Avg, Max;
};

// Without this gtest prints the raw bytes of CdcCase, Name's address
// included, into each discovered test name, so names changed per run.
void PrintTo(const CdcCase &Case, std::ostream *OS) { *OS << Case.Name; }

class CdcTest : public ::testing::TestWithParam<std::tuple<int, CdcCase>> {
protected:
  std::unique_ptr<Chunker> makeChunker() const {
    const auto &[Kind, Sizes] = GetParam();
    if (Kind == 0) {
      RabinConfig Config;
      Config.MinSize = Sizes.Min;
      Config.AvgSize = Sizes.Avg;
      Config.MaxSize = Sizes.Max;
      return std::make_unique<RabinChunker>(Config);
    }
    FastCdcConfig Config;
    Config.MinSize = Sizes.Min;
    Config.AvgSize = Sizes.Avg;
    Config.MaxSize = Sizes.Max;
    return std::make_unique<FastCdcChunker>(Config);
  }
};

} // namespace

TEST_P(CdcTest, PartitionsStreamExactly) {
  const ByteVector Data = randomData(256 * 1024, 3);
  const auto Chunker = makeChunker();
  std::vector<ChunkView> Chunks;
  Chunker->split(ByteSpan(Data.data(), Data.size()), 0, Chunks);
  expectPartition(Chunks, Data, 0);
}

TEST_P(CdcTest, RespectsSizeBounds) {
  const auto &[Kind, Sizes] = GetParam();
  const ByteVector Data = randomData(256 * 1024, 4);
  const auto Chunker = makeChunker();
  std::vector<ChunkView> Chunks;
  Chunker->split(ByteSpan(Data.data(), Data.size()), 0, Chunks);
  ASSERT_GT(Chunks.size(), 1u);
  for (std::size_t I = 0; I + 1 < Chunks.size(); ++I) {
    EXPECT_GT(Chunks[I].Data.size(), Sizes.Min);
    EXPECT_LE(Chunks[I].Data.size(), Sizes.Max);
  }
}

TEST_P(CdcTest, MeanChunkSizeNearTarget) {
  const auto &[Kind, Sizes] = GetParam();
  const ByteVector Data = randomData(1024 * 1024, 5);
  const auto Chunker = makeChunker();
  std::vector<ChunkView> Chunks;
  Chunker->split(ByteSpan(Data.data(), Data.size()), 0, Chunks);
  const double Mean =
      static_cast<double>(Data.size()) / static_cast<double>(Chunks.size());
  // Loose band: the mean must land within 2x of the target either way.
  EXPECT_GT(Mean, static_cast<double>(Sizes.Avg) * 0.5);
  EXPECT_LT(Mean, static_cast<double>(Sizes.Avg) * 2.0);
}

TEST_P(CdcTest, DeterministicAcrossRuns) {
  const ByteVector Data = randomData(128 * 1024, 6);
  const auto ChunkerA = makeChunker();
  const auto ChunkerB = makeChunker();
  std::vector<ChunkView> A, B;
  ChunkerA->split(ByteSpan(Data.data(), Data.size()), 0, A);
  ChunkerB->split(ByteSpan(Data.data(), Data.size()), 0, B);
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].Data.size(), B[I].Data.size());
}

TEST_P(CdcTest, ShiftResistance) {
  // Inserting bytes at the front must leave most downstream chunk
  // boundaries intact — the property fixed-size chunking lacks.
  const ByteVector Data = randomData(512 * 1024, 7);
  ByteVector Shifted(17 + Data.size(), 0xEE);
  std::copy(Data.begin(), Data.end(), Shifted.begin() + 17);

  const auto Chunker = makeChunker();
  std::vector<ChunkView> Original, Moved;
  Chunker->split(ByteSpan(Data.data(), Data.size()), 0, Original);
  Chunker->split(ByteSpan(Shifted.data(), Shifted.size()), 0, Moved);

  // Collect chunk content hashes and count re-found chunks.
  std::set<std::string> OriginalChunks;
  for (const ChunkView &Chunk : Original)
    OriginalChunks.insert(std::string(
        reinterpret_cast<const char *>(Chunk.Data.data()),
        Chunk.Data.size()));
  std::size_t Refound = 0;
  for (const ChunkView &Chunk : Moved)
    Refound += OriginalChunks.count(std::string(
        reinterpret_cast<const char *>(Chunk.Data.data()),
        Chunk.Data.size()));
  EXPECT_GT(Refound, Moved.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, CdcTest,
    ::testing::Combine(::testing::Values(0, 1), // 0=Rabin, 1=FastCDC
                       ::testing::Values(CdcCase{"small", 512, 2048, 8192},
                                         CdcCase{"default", 2048, 8192,
                                                 32768})),
    [](const ::testing::TestParamInfo<CdcTest::ParamType> &Info) {
      return std::string(std::get<0>(Info.param) == 0 ? "rabin_"
                                                      : "fastcdc_") +
             std::get<1>(Info.param).Name;
    });

//===----------------------------------------------------------------------===//
// Chunker-specific details
//===----------------------------------------------------------------------===//

TEST(RabinChunker, AllZerosHitsMaxSize) {
  // Constant data gives a constant rolling hash: either it always cuts
  // (immediately past MinSize) or never (MaxSize clamp) — both legal;
  // all chunks except the tail must be the same size.
  const ByteVector Data(100 * 1024, 0);
  RabinChunker Chunker;
  std::vector<ChunkView> Chunks;
  Chunker.split(ByteSpan(Data.data(), Data.size()), 0, Chunks);
  ASSERT_GT(Chunks.size(), 1u);
  for (std::size_t I = 1; I + 1 < Chunks.size(); ++I)
    EXPECT_EQ(Chunks[I].Data.size(), Chunks[0].Data.size());
}

TEST(FastCdcChunker, Names) {
  FastCdcChunker Chunker;
  EXPECT_STREQ(Chunker.name(), "fastcdc");
  RabinChunker Rabin;
  EXPECT_STREQ(Rabin.name(), "rabin");
}

TEST(RabinChunker, TinyStreamIsOneChunk) {
  const ByteVector Data = randomData(100, 8);
  RabinChunker Chunker;
  std::vector<ChunkView> Chunks;
  Chunker.split(ByteSpan(Data.data(), Data.size()), 0, Chunks);
  ASSERT_EQ(Chunks.size(), 1u);
  EXPECT_EQ(Chunks[0].Data.size(), 100u);
}
