//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level helpers shared across padre: byte span aliases,
/// little-endian load/store/append, the bounds-checked reader the
/// on-disk formats decode with, hex formatting, and human-readable
/// size / throughput formatting used by the benchmark harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_UTIL_BYTES_H
#define PADRE_UTIL_BYTES_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace padre {

/// Immutable view over raw bytes.
using ByteSpan = std::span<const std::uint8_t>;
/// Mutable view over raw bytes.
using MutableByteSpan = std::span<std::uint8_t>;
/// Owning byte buffer.
using ByteVector = std::vector<std::uint8_t>;

// The little-endian helpers are inline: the frame and block headers on
// the read path load a dozen or more fields per chunk, and the compiler
// folds each byte-wise expression into one unaligned load or store.

/// Reads a little-endian 16/32/64-bit value from \p Data.
inline std::uint16_t loadLe16(const std::uint8_t *Data) {
  return static_cast<std::uint16_t>(Data[0] | (Data[1] << 8));
}
inline std::uint32_t loadLe32(const std::uint8_t *Data) {
  return static_cast<std::uint32_t>(Data[0]) |
         (static_cast<std::uint32_t>(Data[1]) << 8) |
         (static_cast<std::uint32_t>(Data[2]) << 16) |
         (static_cast<std::uint32_t>(Data[3]) << 24);
}
inline std::uint64_t loadLe64(const std::uint8_t *Data) {
  return static_cast<std::uint64_t>(loadLe32(Data)) |
         (static_cast<std::uint64_t>(loadLe32(Data + 4)) << 32);
}

/// Writes a little-endian 16/32/64-bit value to \p Data.
inline void storeLe16(std::uint8_t *Data, std::uint16_t Value) {
  Data[0] = static_cast<std::uint8_t>(Value);
  Data[1] = static_cast<std::uint8_t>(Value >> 8);
}
inline void storeLe32(std::uint8_t *Data, std::uint32_t Value) {
  for (unsigned I = 0; I < 4; ++I)
    Data[I] = static_cast<std::uint8_t>(Value >> (8 * I));
}
inline void storeLe64(std::uint8_t *Data, std::uint64_t Value) {
  for (unsigned I = 0; I < 8; ++I)
    Data[I] = static_cast<std::uint8_t>(Value >> (8 * I));
}

/// Lowercase hex rendering of \p Bytes ("deadbeef…").
std::string toHex(ByteSpan Bytes);

/// "4.00 KiB", "1.50 GiB", … (binary units, two decimals).
std::string formatSize(std::uint64_t Bytes);

/// "123.4 MB/s" from bytes and seconds; "inf" guarded.
std::string formatThroughput(double Bytes, double Seconds);

/// Appends \p Suffix bytes to \p Out.
void appendBytes(ByteVector &Out, ByteSpan Suffix);

/// Appends \p Value to \p Out, little-endian.
void appendLe32(ByteVector &Out, std::uint32_t Value);
void appendLe64(ByteVector &Out, std::uint64_t Value);

/// Bounds-checked sequential reader over a byte span — the decode side
/// of the on-disk formats (volume images, journals, checkpoints). Every
/// accessor reports success, so malformed input can never read out of
/// bounds; a failed read leaves the position unchanged.
class ByteReader {
public:
  explicit ByteReader(ByteSpan Data) : Data(Data) {}

  std::size_t position() const { return Pos; }
  std::size_t remaining() const { return Data.size() - Pos; }
  bool atEnd() const { return Pos == Data.size(); }

  bool readU8(std::uint8_t &Out);
  bool readLe32(std::uint32_t &Out);
  bool readLe64(std::uint64_t &Out);
  /// Views the next \p Count bytes (no copy).
  bool readBytes(std::size_t Count, ByteSpan &Out);

private:
  ByteSpan Data;
  std::size_t Pos = 0;
};

} // namespace padre

#endif // PADRE_UTIL_BYTES_H
