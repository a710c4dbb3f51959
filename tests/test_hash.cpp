//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the hash module: SHA-1 against official test
/// vectors, CRC-32C check values, the hardware SHA-1 and CRC-32C paths
/// against their portable oracles, and the fingerprint bin/prefix
/// arithmetic the dedup index relies on.
///
//===----------------------------------------------------------------------===//

#include "hash/Crc32.h"
#include "hash/Fingerprint.h"
#include "hash/Sha1.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

using namespace padre;

static ByteSpan bytesOf(const char *Text) {
  return ByteSpan(reinterpret_cast<const std::uint8_t *>(Text),
                  std::strlen(Text));
}

//===----------------------------------------------------------------------===//
// SHA-1 (FIPS 180-1 and RFC 3174 vectors)
//===----------------------------------------------------------------------===//

TEST(Sha1, EmptyString) {
  EXPECT_EQ(toHex(ByteSpan(Sha1::digest(bytesOf("")).data(), 20)),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(toHex(ByteSpan(Sha1::digest(bytesOf("abc")).data(), 20)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(
      toHex(ByteSpan(
          Sha1::digest(
              bytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                      "nopq"))
              .data(),
          20)),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 Context;
  const ByteVector Block(1000, 'a');
  for (int I = 0; I < 1000; ++I)
    Context.update(ByteSpan(Block.data(), Block.size()));
  EXPECT_EQ(toHex(ByteSpan(Context.final().data(), 20)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Random Rng(1);
  ByteVector Data(10000);
  Rng.fillBytes(Data.data(), Data.size());
  const auto OneShot = Sha1::digest(ByteSpan(Data.data(), Data.size()));

  // Feed in awkward piece sizes that straddle block boundaries.
  Sha1 Context;
  std::size_t Offset = 0;
  const std::size_t Pieces[] = {1, 63, 64, 65, 127, 128, 1000, 3, 0, 9999};
  for (std::size_t Piece : Pieces) {
    const std::size_t Take = std::min(Piece, Data.size() - Offset);
    Context.update(ByteSpan(Data.data() + Offset, Take));
    Offset += Take;
  }
  Context.update(ByteSpan(Data.data() + Offset, Data.size() - Offset));
  EXPECT_EQ(Context.final(), OneShot);
}

TEST(Sha1, PaddingBoundaryLengths) {
  // Message lengths around the 55/56/64-byte padding edges must all
  // produce distinct, stable digests.
  std::vector<Sha1::Digest> Digests;
  for (std::size_t Length : {54u, 55u, 56u, 57u, 63u, 64u, 65u}) {
    const ByteVector Data(Length, 0x5A);
    Digests.push_back(Sha1::digest(ByteSpan(Data.data(), Data.size())));
  }
  for (std::size_t I = 0; I < Digests.size(); ++I)
    for (std::size_t J = I + 1; J < Digests.size(); ++J)
      EXPECT_NE(Digests[I], Digests[J]);
}

//===----------------------------------------------------------------------===//
// CRC-32C
//===----------------------------------------------------------------------===//

TEST(Crc32c, CheckValue) {
  // Standard CRC-32C check: "123456789" -> 0xE3069283.
  EXPECT_EQ(crc32c(bytesOf("123456789")), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c(bytesOf("")), 0u); }

TEST(Crc32c, SeedChaining) {
  const ByteSpan Whole = bytesOf("hello world");
  const std::uint32_t Full = crc32c(Whole);
  const std::uint32_t Partial = crc32c(Whole.subspan(5), crc32c(Whole.first(5)));
  EXPECT_EQ(Partial, Full);
}

TEST(Crc32c, DetectsBitFlip) {
  ByteVector Data(100, 0x41);
  const std::uint32_t Before = crc32c(ByteSpan(Data.data(), Data.size()));
  Data[50] ^= 0x01;
  EXPECT_NE(crc32c(ByteSpan(Data.data(), Data.size())), Before);
}

//===----------------------------------------------------------------------===//
// Hardware paths against the portable oracles
//===----------------------------------------------------------------------===//

static ByteVector randomBytes(std::size_t Size, std::uint64_t Seed) {
  Random Rng(Seed);
  ByteVector Data(Size);
  Rng.fillBytes(Data.data(), Data.size());
  return Data;
}

static Sha1::Digest scalarDigest(ByteSpan Data) {
  Sha1 Context = Sha1::scalar();
  Context.update(Data);
  return Context.final();
}

static bool sha1OnHardware() { return std::string(Sha1::path()) != "scalar"; }
static bool crc32cOnHardware() { return std::string(crc32cPath()) != "scalar"; }

TEST(HashDispatch, ReportsThePathsThisCpuTakes) {
  // Printed so a CI log shows which paths the runner exercised; on a
  // CPU without the features both read "scalar" and the oracle tests
  // below skip.
  std::cout << "sha1 path: " << Sha1::path() << "\ncrc32c path: "
            << crc32cPath() << "\n";
  RecordProperty("sha1_path", Sha1::path());
  RecordProperty("crc32c_path", crc32cPath());
  EXPECT_TRUE(std::string(Sha1::path()) == "scalar" ||
              std::string(Sha1::path()) == "sha-ni");
  EXPECT_TRUE(std::string(crc32cPath()) == "scalar" ||
              std::string(crc32cPath()) == "sse4.2");
}

TEST(Sha1Dispatch, HardwareMatchesScalarAtEveryLength) {
  if (!sha1OnHardware())
    GTEST_SKIP() << "CPU lacks SHA-NI: only the scalar path runs";
  const ByteVector Data = randomBytes(64 * 1024, 7);
  std::vector<std::size_t> Lengths;
  for (std::size_t Length = 0; Length <= 300; ++Length)
    Lengths.push_back(Length);
  Lengths.push_back(4096);
  Lengths.push_back(64 * 1024);
  for (std::size_t Length : Lengths) {
    const ByteSpan Piece(Data.data(), Length);
    EXPECT_EQ(Sha1::digest(Piece), scalarDigest(Piece)) << "length " << Length;
  }
}

TEST(Sha1Dispatch, StreamingSplitsMatchScalar) {
  if (!sha1OnHardware())
    GTEST_SKIP() << "CPU lacks SHA-NI: only the scalar path runs";
  Random Rng(11);
  for (int Round = 0; Round < 200; ++Round) {
    const std::size_t Size = Rng.nextBelow(5000);
    const ByteVector Data = randomBytes(Size, 100 + Round);
    Sha1 Hardware;
    Sha1 Scalar = Sha1::scalar();
    std::size_t Offset = 0;
    while (Offset < Size) {
      const std::size_t Take =
          std::min<std::size_t>(Size - Offset, Rng.nextBelow(200));
      Hardware.update(ByteSpan(Data.data() + Offset, Take));
      Scalar.update(ByteSpan(Data.data() + Offset, Take));
      Offset += Take;
    }
    EXPECT_EQ(Hardware.final(), Scalar.final()) << "round " << Round;
  }
}

TEST(Crc32cDispatch, HardwareMatchesScalarAtEveryLengthAndSeed) {
  if (!crc32cOnHardware())
    GTEST_SKIP() << "CPU lacks SSE4.2: only the scalar path runs";
  const ByteVector Data = randomBytes(64 * 1024, 9);
  std::vector<std::size_t> Lengths;
  for (std::size_t Length = 0; Length <= 300; ++Length)
    Lengths.push_back(Length);
  Lengths.push_back(4096);
  Lengths.push_back(64 * 1024);
  for (std::uint32_t Seed : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu})
    for (std::size_t Length : Lengths) {
      const ByteSpan Piece(Data.data(), Length);
      EXPECT_EQ(crc32c(Piece, Seed), crc32cScalar(Piece, Seed))
          << "length " << Length << " seed " << Seed;
    }
}

TEST(Crc32cDispatch, UnalignedStartsAndSeedChainingMatchScalar) {
  if (!crc32cOnHardware())
    GTEST_SKIP() << "CPU lacks SSE4.2: only the scalar path runs";
  const ByteVector Data = randomBytes(4096 + 64, 13);
  Random Rng(17);
  for (std::size_t Offset = 0; Offset < 16; ++Offset) {
    const ByteSpan Whole(Data.data() + Offset, 4096 + Offset % 8);
    const std::uint32_t Expected = crc32cScalar(Whole);
    EXPECT_EQ(crc32c(Whole), Expected) << "offset " << Offset;
    // Chain through random split points: each piece starts wherever
    // the last one ended, aligned or not.
    std::uint32_t Chained = 0;
    std::size_t Done = 0;
    while (Done < Whole.size()) {
      const std::size_t Take =
          std::min<std::size_t>(Whole.size() - Done, Rng.nextBelow(100));
      Chained = crc32c(Whole.subspan(Done, Take), Chained);
      Done += Take;
    }
    EXPECT_EQ(Chained, Expected) << "offset " << Offset;
  }
}

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

TEST(Fingerprint, BinIdUsesLeadingBits) {
  Sha1::Digest Digest{};
  Digest[0] = 0xAB;
  Digest[1] = 0xCD;
  Digest[2] = 0xEF;
  const Fingerprint Fp(Digest);
  EXPECT_EQ(Fp.binId(8), 0xABu);
  EXPECT_EQ(Fp.binId(16), 0xABCDu);
  EXPECT_EQ(Fp.binId(4), 0xAu);
  EXPECT_EQ(Fp.binId(12), 0xABCu);
  EXPECT_EQ(Fp.binId(20), 0xABCDEu);
}

TEST(Fingerprint, BinIdIsUniformish) {
  // Hash uniformity: over many fingerprints, all 16 top-4-bit bins get
  // hits.
  int Bins[16] = {0};
  for (int I = 0; I < 512; ++I) {
    std::uint8_t Data[8];
    storeLe64(Data, static_cast<std::uint64_t>(I));
    Bins[Fingerprint::ofData(ByteSpan(Data, 8)).binId(4)] += 1;
  }
  for (int Count : Bins)
    EXPECT_GT(Count, 8);
}

TEST(Fingerprint, OrderingAndEquality) {
  const auto A = Fingerprint::ofData(bytesOf("a"));
  const auto B = Fingerprint::ofData(bytesOf("b"));
  EXPECT_EQ(A, Fingerprint::ofData(bytesOf("a")));
  EXPECT_NE(A, B);
  EXPECT_TRUE(A < B || B < A);
}

TEST(Fingerprint, Key64ReadsBigEndianWithZeroPad) {
  Sha1::Digest Digest{};
  for (unsigned I = 0; I < 20; ++I)
    Digest[I] = static_cast<std::uint8_t>(I + 1);
  const Fingerprint Fp(Digest);
  EXPECT_EQ(Fp.key64(0), 0x0102030405060708ull);
  // Offset 16: only 4 digest bytes remain; the rest reads as zero.
  EXPECT_EQ(Fp.key64(16), 0x1112131400000000ull);
}

TEST(Fingerprint, HexMatchesSha1) {
  EXPECT_EQ(Fingerprint::ofData(bytesOf("abc")).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(FingerprintHash, DistinctForDistinctDigests) {
  FingerprintHash Hasher;
  EXPECT_NE(Hasher(Fingerprint::ofData(bytesOf("x"))),
            Hasher(Fingerprint::ofData(bytesOf("y"))));
}
