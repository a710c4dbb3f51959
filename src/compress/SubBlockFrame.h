//===----------------------------------------------------------------------===//
///
/// \file
/// The v2 framed payload layout (BlockMethod::LzFramed): Gompresso-style
/// two-level parallelism. A chunk's token stream is split into N
/// independently-decodable sub-blocks — the compressor resets the match
/// history at every sub-block boundary, so each sub-block's distances
/// stay local and a GPU warp can decode it without waiting on its
/// neighbours.
///
/// Frame layout (payload of BlockMethod::LzFramed, little-endian):
///   offset 0  u8   magic 0x5B
///   offset 1  u8   version (2)
///   offset 2  u8   sub-block count N (1..32)
///   offset 3  u8   reserved (zero)
///   offset 4  N x (u16 sub-block payload bytes [1..65535],
///                  u16 sub-block output bytes minus one)
///   offset 4+4N …  N concatenated LZ token streams (LzCodec format)
///
/// The frame header is deliberately small: it is what lets a decode
/// plan be built in O(N) instead of the O(payload) serial token walk
/// an unframed stream needs. Entries are u16, not u32, because the
/// header is pure ratio tax — at N=8 a u32 table would cost 68 bytes
/// per chunk, ~1.5% of a typical compressed 4 KiB chunk on its own.
/// Output bytes are stored minus one so the full [1, MaxInputSize]
/// range fits; payload bytes fit u16 directly for every split of two
/// or more (worst-case LZ expansion of a 32 KiB half is ~33 KB), and
/// compressFramed splits finer on the one corner case (single
/// sub-block over an incompressible ~64 KiB chunk) where they would
/// not.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_COMPRESS_SUBBLOCKFRAME_H
#define PADRE_COMPRESS_SUBBLOCKFRAME_H

#include "util/Bytes.h"

#include <cstdint>
#include <optional>
#include <span>

namespace padre {

struct CompressResult;

inline constexpr std::uint8_t SubBlockFrameMagic = 0x5B;
inline constexpr std::uint8_t SubBlockFrameVersion = 2;
inline constexpr unsigned MaxSubBlocks = 32;

/// Size in bytes of a frame header carrying \p Count sub-blocks.
inline constexpr std::size_t subBlockHeaderSize(unsigned Count) {
  return 4 + 4 * static_cast<std::size_t>(Count);
}

/// Largest token-stream length one header entry can describe.
inline constexpr std::size_t MaxSubBlockPayload = 0xFFFF;

/// One sub-block's extents, both in the framed payload (token bytes)
/// and in the decoded chunk (output bytes). Offsets are derived from
/// the header's running sums during parse.
struct SubBlockSeg {
  std::uint32_t PayloadOffset = 0; ///< first token byte within the frame
  std::uint32_t PayloadBytes = 0;  ///< token-stream length
  std::uint32_t OutputOffset = 0;  ///< first decoded byte within the chunk
  std::uint32_t OutputBytes = 0;   ///< decoded length
};

/// A validated frame header: the sub-block table plus a view of the
/// payload it indexes (aliasing the encoded buffer).
struct SubBlockFrameView {
  ByteSpan Payload; ///< the whole framed payload (header + streams)
  unsigned Count = 0;
  SubBlockSeg Segs[MaxSubBlocks];

  /// Token bytes of sub-block \p I (aliases Payload).
  ByteSpan tokens(unsigned I) const {
    return Payload.subspan(Segs[I].PayloadOffset, Segs[I].PayloadBytes);
  }
};

/// Parses and validates a framed payload against the block header's
/// \p OriginalSize: magic/version/count, reserved byte, per-sub-block
/// sizes, sum-of-outputs == OriginalSize and header + sum-of-payloads
/// == payload size. Returns nullopt on any corruption — the typed
/// failure the decode paths turn into a DecodeError.
std::optional<SubBlockFrameView> parseSubBlockFrame(ByteSpan Payload,
                                                    std::uint32_t OriginalSize);

/// Frames \p SubBlocks — one LZ token stream per sub-block, in chunk
/// order — as a framed payload: the header, then the streams. Each
/// sub-block's output size is the bytes its tokens cover (literal +
/// match bytes). The one writer of the format: LzCodec::compressFramed
/// and the GPU lane refinement both frame through it.
ByteVector frameSubBlocks(std::span<const CompressResult> SubBlocks);

} // namespace padre

#endif // PADRE_COMPRESS_SUBBLOCKFRAME_H
