//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32C, table-driven and on the SSE4.2 CRC32 instruction. The table
/// is computed on first use from the reflected Castagnoli polynomial (no
/// static constructors; the lazy local static is initialized on first
/// call).
///
//===----------------------------------------------------------------------===//

#include "hash/Crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#define PADRE_CRC32C_X86 1
#endif

using namespace padre;

namespace {

std::array<std::uint32_t, 256> buildTable() {
  constexpr std::uint32_t ReflectedPoly = 0x82F63B78u; // 0x1EDC6F41 reflected
  std::array<std::uint32_t, 256> Table{};
  for (std::uint32_t I = 0; I < 256; ++I) {
    std::uint32_t Crc = I;
    for (unsigned Bit = 0; Bit < 8; ++Bit)
      Crc = (Crc & 1) ? (Crc >> 1) ^ ReflectedPoly : Crc >> 1;
    Table[I] = Crc;
  }
  return Table;
}

#ifdef PADRE_CRC32C_X86
/// The instruction computes the same reflected CRC-32C, eight bytes
/// (little-endian, so in stream order) per step, then byte steps for
/// the tail.
__attribute__((target("sse4.2"))) std::uint32_t crc32cSse42(ByteSpan Data,
                                                             std::uint32_t Seed) {
  const std::uint8_t *Ptr = Data.data();
  std::size_t Remaining = Data.size();
  std::uint64_t Crc = ~Seed;
  for (; Remaining >= 8; Ptr += 8, Remaining -= 8) {
    std::uint64_t Word;
    std::memcpy(&Word, Ptr, 8);
    Crc = _mm_crc32_u64(Crc, Word);
  }
  auto Crc32 = static_cast<std::uint32_t>(Crc);
  for (; Remaining != 0; ++Ptr, --Remaining)
    Crc32 = _mm_crc32_u8(Crc32, *Ptr);
  return ~Crc32;
}
#endif

using Crc32cFn = std::uint32_t (*)(ByteSpan, std::uint32_t);

Crc32cFn chosenCrc32c() {
#ifdef PADRE_CRC32C_X86
  static const Crc32cFn Chosen =
      __builtin_cpu_supports("sse4.2") ? crc32cSse42 : crc32cScalar;
  return Chosen;
#else
  return crc32cScalar;
#endif
}

} // namespace

std::uint32_t padre::crc32cScalar(ByteSpan Data, std::uint32_t Seed) {
  static const std::array<std::uint32_t, 256> Table = buildTable();
  std::uint32_t Crc = ~Seed;
  for (std::uint8_t Byte : Data)
    Crc = Table[(Crc ^ Byte) & 0xFF] ^ (Crc >> 8);
  return ~Crc;
}

std::uint32_t padre::crc32c(ByteSpan Data, std::uint32_t Seed) {
  return chosenCrc32c()(Data, Seed);
}

const char *padre::crc32cPath() {
  return chosenCrc32c() == crc32cScalar ? "scalar" : "sse4.2";
}
