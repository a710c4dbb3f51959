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

/// Reads a little-endian 16/32/64-bit value from \p Data.
std::uint16_t loadLe16(const std::uint8_t *Data);
std::uint32_t loadLe32(const std::uint8_t *Data);
std::uint64_t loadLe64(const std::uint8_t *Data);

/// Writes a little-endian 16/32/64-bit value to \p Data.
void storeLe16(std::uint8_t *Data, std::uint16_t Value);
void storeLe32(std::uint8_t *Data, std::uint32_t Value);
void storeLe64(std::uint8_t *Data, std::uint64_t Value);

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
