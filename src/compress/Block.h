//===----------------------------------------------------------------------===//
///
/// \file
/// The self-describing compressed block format all padre codecs emit.
///
/// Layout (little-endian):
///   offset 0  u16  magic 0x4450 ("PD")
///   offset 2  u8   method (BlockMethod)
///   offset 3  u8   flags (reserved, zero)
///   offset 4  u32  original (uncompressed) size
///   offset 8  u32  payload size
///   offset 12 u32  CRC-32C of the payload
///   offset 16 …    payload
///
/// `Raw` blocks carry the input verbatim (the incompressible-data
/// fallback); every LZ method shares one token-stream payload format
/// (see compress/LzCodec.h) so a single decoder handles all of them.
/// Method 4 is reserved (BlockMethod::Retired): it still parses, so a
/// block holding it fails as a decode error rather than as corruption.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_COMPRESS_BLOCK_H
#define PADRE_COMPRESS_BLOCK_H

#include "util/Bytes.h"

#include <cstdint>
#include <optional>

namespace padre {

/// How a block's payload encodes the original data.
enum class BlockMethod : std::uint8_t {
  Raw = 0,     ///< payload is the original bytes
  Lz77 = 1,    ///< token stream from the hash-chain matcher
  QuickLz = 2, ///< token stream from the single-probe matcher
  GpuLane = 3, ///< legacy: unframed token stream from older GPU lanes
  /// Reserved: the retired Huffman-coded LZ method. Never emitted;
  /// decodeChunkPayload fails on it and a volume image holding one is
  /// refused (StateMismatch). Kept so the other numbers stay stable.
  Retired = 4,
  LzFramed = 5, ///< v2 sub-block frame (see compress/SubBlockFrame.h)
};

/// Returns "raw", "lz77", "quicklz", "gpulane", "retired" or "lzframed".
const char *blockMethodName(BlockMethod Method);

/// Size of the fixed block header in bytes.
inline constexpr std::size_t BlockHeaderSize = 16;

/// A decoded block header plus a view of its payload (aliasing the
/// encoded buffer).
struct BlockView {
  BlockMethod Method;
  std::uint32_t OriginalSize;
  ByteSpan Payload;
};

/// Encodes a block: header + \p Payload, with \p OriginalSize recorded
/// and the payload CRC computed.
ByteVector encodeBlock(BlockMethod Method, std::uint32_t OriginalSize,
                       ByteSpan Payload);

/// Parses and validates \p Encoded (magic, sizes, CRC). Returns nullopt
/// on any corruption.
std::optional<BlockView> decodeBlock(ByteSpan Encoded);

} // namespace padre

#endif // PADRE_COMPRESS_BLOCK_H
