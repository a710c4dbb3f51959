//===----------------------------------------------------------------------===//
///
/// \file
/// SHA-1 implemented from the FIPS 180-1 specification. The paper uses
/// SHA-1 (20-byte digests) as the chunk identifier for deduplication
/// (§2: "the hash size (SHA1, 20 bytes)"); collisions are treated as
/// identity, the standard assumption in deduplication systems.
///
/// The block function is chosen once per process: the x86 SHA
/// extensions (SHA-NI) when the CPU has them, else the portable FIPS
/// rounds. The portable rounds stay as the fallback and as the oracle
/// the hardware path is tested against (`Sha1::scalar`).
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_HASH_SHA1_H
#define PADRE_HASH_SHA1_H

#include "util/Bytes.h"

#include <array>
#include <cstddef>
#include <cstdint>

namespace padre {

/// Streaming SHA-1 context. Supports incremental `update` calls followed
/// by a single `final`; `Sha1::digest` is the one-shot convenience form.
class Sha1 {
public:
  static constexpr std::size_t DigestSize = 20;
  using Digest = std::array<std::uint8_t, DigestSize>;

  /// A context on this process's block function (see `path`).
  Sha1();

  /// A context pinned to the portable FIPS rounds, whatever the CPU.
  static Sha1 scalar();

  /// The block function new contexts use on this CPU: "sha-ni" or
  /// "scalar".
  static const char *path();

  /// Reinitializes the context to the standard initial state.
  void reset();

  /// Absorbs \p Data into the running hash.
  void update(ByteSpan Data);

  /// Finishes the hash and returns the 20-byte digest. The context must
  /// be `reset` before further use.
  Digest final();

  /// One-shot convenience: digest of \p Data.
  static Digest digest(ByteSpan Data);

  /// Compresses \p Blocks consecutive 64-byte blocks into \p State.
  using BlockFn = void (*)(std::uint32_t *State, const std::uint8_t *Data,
                           std::size_t Blocks);

private:
  explicit Sha1(BlockFn Blocks) : Blocks(Blocks) { reset(); }

  BlockFn Blocks;
  std::uint32_t State[5];
  std::uint64_t TotalBits;
  std::uint8_t Buffer[64];
  std::size_t BufferedBytes;
};

} // namespace padre

#endif // PADRE_HASH_SHA1_H
