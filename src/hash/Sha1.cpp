//===----------------------------------------------------------------------===//
///
/// \file
/// SHA-1 per FIPS 180-1: the straightforward 80-round block function,
/// and the same rounds on the x86 SHA extensions, chosen once per
/// process by a CPU feature check.
///
//===----------------------------------------------------------------------===//

#include "hash/Sha1.h"

#include <cassert>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#define PADRE_SHA1_X86 1
#endif

using namespace padre;

static std::uint32_t rotl32(std::uint32_t X, int K) {
  return (X << K) | (X >> (32 - K));
}

/// The portable FIPS 180-1 rounds, one block at a time.
static void sha1BlocksScalar(std::uint32_t *State, const std::uint8_t *Data,
                             std::size_t Blocks) {
  for (; Blocks != 0; --Blocks, Data += 64) {
    std::uint32_t W[80];
    for (unsigned I = 0; I < 16; ++I)
      W[I] = (static_cast<std::uint32_t>(Data[I * 4]) << 24) |
             (static_cast<std::uint32_t>(Data[I * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(Data[I * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(Data[I * 4 + 3]);
    for (unsigned I = 16; I < 80; ++I)
      W[I] = rotl32(W[I - 3] ^ W[I - 8] ^ W[I - 14] ^ W[I - 16], 1);

    std::uint32_t A = State[0], B = State[1], C = State[2], D = State[3],
                  E = State[4];
    for (unsigned I = 0; I < 80; ++I) {
      std::uint32_t F, K;
      if (I < 20) {
        F = (B & C) | (~B & D);
        K = 0x5A827999u;
      } else if (I < 40) {
        F = B ^ C ^ D;
        K = 0x6ED9EBA1u;
      } else if (I < 60) {
        F = (B & C) | (B & D) | (C & D);
        K = 0x8F1BBCDCu;
      } else {
        F = B ^ C ^ D;
        K = 0xCA62C1D6u;
      }
      const std::uint32_t Temp = rotl32(A, 5) + F + E + K + W[I];
      E = D;
      D = C;
      C = rotl32(B, 30);
      B = A;
      A = Temp;
    }
    State[0] += A;
    State[1] += B;
    State[2] += C;
    State[3] += D;
    State[4] += E;
  }
}

#ifdef PADRE_SHA1_X86

#define PADRE_SHA_TARGET __attribute__((target("sha,sse4.1")))

/// Rounds 4G..4G+3. Msg[G % 4] holds W[4G..4G+3] (W[4G] in the top
/// lane); the E chain alternates between E[0] and E[1]. Each group also
/// advances the schedule for later groups — msg1 for group G+3, the
/// W[t-8] xor for G+2 and msg2 for G+1 — which is why the msg1 step
/// runs through group 16: group 19's words need it.
template <int G>
PADRE_SHA_TARGET __attribute__((always_inline)) inline void
sha1Group(__m128i &Abcd, __m128i (&E)[2], __m128i (&Msg)[4],
          const std::uint8_t *Data) {
  constexpr int Cur = G % 4;
  if constexpr (G < 4) {
    const __m128i ByteSwap =
        _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
    Msg[Cur] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Data + 16 * G)),
        ByteSwap);
  }
  __m128i &In = E[G % 2];
  if constexpr (G == 0)
    In = _mm_add_epi32(In, Msg[0]);
  else
    In = _mm_sha1nexte_epu32(In, Msg[Cur]);
  E[(G + 1) % 2] = Abcd;
  Abcd = _mm_sha1rnds4_epu32(Abcd, In, G / 5);
  if constexpr (G >= 1 && G <= 16)
    Msg[(G + 3) % 4] = _mm_sha1msg1_epu32(Msg[(G + 3) % 4], Msg[Cur]);
  if constexpr (G >= 2 && G <= 17)
    Msg[(G + 2) % 4] = _mm_xor_si128(Msg[(G + 2) % 4], Msg[Cur]);
  if constexpr (G >= 3 && G <= 18)
    Msg[(G + 1) % 4] = _mm_sha1msg2_epu32(Msg[(G + 1) % 4], Msg[Cur]);
}

template <int... G>
PADRE_SHA_TARGET __attribute__((always_inline)) inline void
sha1Rounds(std::integer_sequence<int, G...>, __m128i &Abcd, __m128i (&E)[2],
           __m128i (&Msg)[4], const std::uint8_t *Data) {
  (sha1Group<G>(Abcd, E, Msg, Data), ...);
}

/// The same rounds on the SHA extensions, state held in registers
/// across the blocks.
PADRE_SHA_TARGET static void sha1BlocksShaNi(std::uint32_t *State,
                                             const std::uint8_t *Data,
                                             std::size_t Blocks) {
  // SHA-NI wants A (and E) in the top lane.
  __m128i Abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(State)), 0x1B);
  __m128i E0 = _mm_set_epi32(static_cast<int>(State[4]), 0, 0, 0);
  for (; Blocks != 0; --Blocks, Data += 64) {
    const __m128i AbcdSave = Abcd, ESave = E0;
    __m128i E[2] = {E0, E0};
    __m128i Msg[4];
    sha1Rounds(std::make_integer_sequence<int, 20>(), Abcd, E, Msg, Data);
    E0 = _mm_sha1nexte_epu32(E[0], ESave);
    Abcd = _mm_add_epi32(Abcd, AbcdSave);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i *>(State),
                   _mm_shuffle_epi32(Abcd, 0x1B));
  State[4] = static_cast<std::uint32_t>(_mm_extract_epi32(E0, 3));
}

#endif // PADRE_SHA1_X86

static Sha1::BlockFn chosenBlockFn() {
#ifdef PADRE_SHA1_X86
  static const Sha1::BlockFn Chosen =
      __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
          ? sha1BlocksShaNi
          : sha1BlocksScalar;
  return Chosen;
#else
  return sha1BlocksScalar;
#endif
}

Sha1::Sha1() : Sha1(chosenBlockFn()) {}

Sha1 Sha1::scalar() { return Sha1(sha1BlocksScalar); }

const char *Sha1::path() {
  return chosenBlockFn() == sha1BlocksScalar ? "scalar" : "sha-ni";
}

void Sha1::reset() {
  State[0] = 0x67452301u;
  State[1] = 0xEFCDAB89u;
  State[2] = 0x98BADCFEu;
  State[3] = 0x10325476u;
  State[4] = 0xC3D2E1F0u;
  TotalBits = 0;
  BufferedBytes = 0;
}

void Sha1::update(ByteSpan Data) {
  TotalBits += static_cast<std::uint64_t>(Data.size()) * 8;
  const std::uint8_t *Ptr = Data.data();
  std::size_t Remaining = Data.size();

  if (BufferedBytes != 0) {
    const std::size_t Take = std::min(Remaining, 64 - BufferedBytes);
    std::memcpy(Buffer + BufferedBytes, Ptr, Take);
    BufferedBytes += Take;
    Ptr += Take;
    Remaining -= Take;
    if (BufferedBytes == 64) {
      Blocks(State, Buffer, 1);
      BufferedBytes = 0;
    }
  }
  if (Remaining >= 64) {
    Blocks(State, Ptr, Remaining / 64);
    Ptr += Remaining & ~std::size_t{63};
    Remaining &= 63;
  }
  if (Remaining != 0) {
    std::memcpy(Buffer, Ptr, Remaining);
    BufferedBytes = Remaining;
  }
}

Sha1::Digest Sha1::final() {
  // Append the 0x80 terminator, zero padding, and the 64-bit big-endian
  // message length so the total is a multiple of 64 bytes.
  const std::uint64_t MessageBits = TotalBits;
  std::uint8_t Pad[72] = {0x80};
  const std::size_t PadLength =
      (BufferedBytes < 56) ? (56 - BufferedBytes) : (120 - BufferedBytes);
  update(ByteSpan(Pad, PadLength));
  std::uint8_t Length[8];
  for (unsigned I = 0; I < 8; ++I)
    Length[I] = static_cast<std::uint8_t>(MessageBits >> (56 - 8 * I));
  // `update` also advanced TotalBits for the padding; that is harmless
  // because MessageBits was captured first.
  update(ByteSpan(Length, 8));
  assert(BufferedBytes == 0 && "Padding must align to a full block");

  Digest Result;
  for (unsigned I = 0; I < 5; ++I)
    for (unsigned J = 0; J < 4; ++J)
      Result[I * 4 + J] = static_cast<std::uint8_t>(State[I] >> (24 - 8 * J));
  return Result;
}

Sha1::Digest Sha1::digest(ByteSpan Data) {
  Sha1 Context;
  Context.update(Data);
  return Context.final();
}
