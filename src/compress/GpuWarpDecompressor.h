//===----------------------------------------------------------------------===//
///
/// \file
/// The warp-cooperative decode kernel for v2 framed payloads — padre's
/// one GPU decoder. Every block the GPU lane compressor writes is
/// framed (one lane per sub-block), as is every CPU-compressed chunk
/// at SubBlocks > 1; unframed methods decode on the CPU pool.
///
/// A lane-per-chunk decoder over an unframed stream has two structural
/// costs the CODAG and Gompresso papers attack (see PAPERS.md): the CPU
/// must pre-parse the *whole* token stream to find lane boundaries
/// (O(payload) serial work per chunk), and lanes run in one lockstep
/// wavefront, so every literal/match branch divergence is paid by all
/// lanes. The framed format (compress/SubBlockFrame.h) kills the first
/// cost — sub-block boundaries are in the header, so planning is O(N) —
/// and the reader-warp design kills most of the second: one warp owns one
/// sub-block, a reader sub-warp streams tokens while the decoder lanes
/// expand them in parallel, and warps proceed independently (no
/// cross-warp lockstep).
///
/// `plan` is the O(N) header parse; `runWarps` is the functional kernel
/// body: it runs the one LZ decoder, LzCodec::decompress, per
/// sub-block with the sub-block as its counts sink, so each sub-block's
/// token/divergence/overlap counts are filled as it decodes — the
/// charge inputs are known only after the functional pass, the same
/// idiom as the write-side kernels — and the restore engine then
/// charges sum over sub-blocks of CostModel::gpuWarpSubBlockUs.
///
/// History reset at sub-block boundaries makes every back-reference
/// intra-sub-block by construction; one decoder call per sub-block
/// enforces that (a distance reaching before the sub-block's own
/// output is a malformed payload, never a data dependency).
/// Self-overlapping matches (distance < length) are counted per
/// sub-block: Gompresso resolves them with bit-parallel log-step
/// replication, modelled by GpuCosts::WarpOverlapPerMatchNs.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_COMPRESS_GPUWARPDECOMPRESSOR_H
#define PADRE_COMPRESS_GPUWARPDECOMPRESSOR_H

#include "compress/LzCodec.h"
#include "compress/SubBlockFrame.h"

#include <optional>
#include <span>

namespace padre {

/// One warp's share of a framed chunk decode: the sub-block's extents
/// (from the frame header) plus the token counts runWarps fills (the
/// LzTokenCounts base) — the inputs to CostModel::gpuWarpSubBlockUs.
struct WarpSubBlock : LzTokenCounts {
  SubBlockSeg Seg;
};

/// The O(N) plan for one framed chunk. SubBlocks views caller-owned
/// storage (the restore engine hands in arena-backed tables).
struct GpuWarpPlan {
  std::span<WarpSubBlock> SubBlocks;
  std::size_t OriginalSize = 0;
  std::size_t PayloadSize = 0;
};

/// Warp-cooperative decompressor for BlockMethod::LzFramed payloads
/// (header planning + kernel body). Stateless; safe to share between
/// threads.
class GpuWarpDecompressor {
public:
  /// The CPU pre-parse: validates the frame header of \p Payload
  /// against \p OriginalSize and fills \p Table (capacity >=
  /// MaxSubBlocks) with the sub-block extents — no token walk, which
  /// is the point (CostModel::FramePlanUs, flat per chunk). Returns
  /// nullopt on any malformed header; token-stream damage is caught by
  /// runWarps.
  static std::optional<GpuWarpPlan> plan(ByteSpan Payload,
                                         std::size_t OriginalSize,
                                         std::span<WarpSubBlock> Table);

  /// The kernel body: each warp decodes its sub-block of \p Payload
  /// independently, appending exactly Plan.OriginalSize bytes to
  /// \p Out, and fills the per-sub-block counts in Plan.SubBlocks.
  /// Every back-distance must stay inside the sub-block's own output
  /// (history reset at the boundary); any violation or malformed token
  /// fails with no partial output appended. Runs LzCodec::decompress
  /// per sub-block, so it is bit-identical to the CPU decode.
  static bool runWarps(ByteSpan Payload, GpuWarpPlan &Plan, ByteVector &Out);
};

} // namespace padre

#endif // PADRE_COMPRESS_GPUWARPDECOMPRESSOR_H
