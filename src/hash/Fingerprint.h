//===----------------------------------------------------------------------===//
///
/// \file
/// The chunk identity type: a 20-byte SHA-1 digest plus the prefix/bin
/// arithmetic the bin-based index is built on. The bin id is taken from
/// the leading bits of the digest, so storing an entry inside bin B can
/// drop those leading bits without losing information — the paper's
/// "prefix removal" memory optimization (§3.1(1)).
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_HASH_FINGERPRINT_H
#define PADRE_HASH_FINGERPRINT_H

#include "hash/Sha1.h"
#include "util/Bytes.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <compare>
#include <cstdint>
#include <string>

namespace padre {

/// A chunk fingerprint (SHA-1 digest) with helpers for bin-based
/// indexing. Value type; totally ordered bytewise.
class Fingerprint {
public:
  static constexpr std::size_t Size = Sha1::DigestSize;

  Fingerprint() : Bytes{} {}
  explicit Fingerprint(const Sha1::Digest &Digest) : Bytes(Digest) {}

  /// Fingerprint of \p Data (SHA-1).
  static Fingerprint ofData(ByteSpan Data) {
    return Fingerprint(Sha1::digest(Data));
  }

  /// The fingerprint whose raw digest is \p Digest (Size bytes).
  static Fingerprint fromBytes(ByteSpan Digest) {
    assert(Digest.size() == Size && "Digest size mismatch");
    Sha1::Digest Raw;
    std::copy(Digest.begin(), Digest.end(), Raw.begin());
    return Fingerprint(Raw);
  }

  /// Raw digest bytes.
  const std::array<std::uint8_t, Size> &bytes() const { return Bytes; }

  /// Bin id formed from the leading \p BinBits bits of the digest
  /// (big-endian bit order). \p BinBits must be in [1, 32].
  std::uint32_t binId(unsigned BinBits) const;

  /// A 64-bit key read from the digest starting at byte \p Offset
  /// (big-endian). Used as the primary sort/compare key for truncated
  /// entries; bytes past the digest end read as zero.
  std::uint64_t key64(unsigned Offset) const;

  /// Lowercase hex rendering of the digest.
  std::string hex() const;

  friend bool operator==(const Fingerprint &A, const Fingerprint &B) {
    return A.Bytes == B.Bytes;
  }
  friend std::strong_ordering operator<=>(const Fingerprint &A,
                                          const Fingerprint &B) {
    return A.Bytes <=> B.Bytes;
  }

private:
  std::array<std::uint8_t, Size> Bytes;
};

/// std::hash-compatible functor (uses the digest's own leading bytes —
/// SHA-1 output is already uniform).
struct FingerprintHash {
  std::size_t operator()(const Fingerprint &Fp) const {
    std::size_t Value = 0;
    for (unsigned I = 0; I < sizeof(std::size_t); ++I)
      Value = (Value << 8) | Fp.bytes()[I];
    return Value;
  }
};

} // namespace padre

#endif // PADRE_HASH_FINGERPRINT_H
