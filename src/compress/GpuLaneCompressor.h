//===----------------------------------------------------------------------===//
///
/// \file
/// The GPU compression kernel and its CPU post-processing (§3.2(2)).
///
/// Ozsoy et al.'s GPU LZ assumes large inputs; a 4 KiB chunk cannot
/// occupy a GPU by itself, so the paper's design assigns *multiple
/// device threads per chunk*: the chunk is split into lanes, every lane
/// runs an LZ scan over its own segment, and many chunks are batched
/// per kernel. The device output is "not refined in GPU due to
/// performance issues" — the CPU post-processes it (§3.2(2): "It is
/// called as post-processing").
///
/// Here `runLanes` is the functional kernel body (branch-light
/// single-probe matcher, one token stream per lane, match history reset
/// at every lane boundary) and `refine` is the CPU step: frame the lane
/// streams as the v2 sub-block format (compress/SubBlockFrame.h), one
/// lane per sub-block, and fall back to store-raw when compression does
/// not pay. The paper lets a lane's history overlap its neighbour's
/// region; padre resets it instead, so every block the lanes write is
/// independently decodable per sub-block — by the warp kernel
/// (compress/GpuWarpDecompressor.h) or the CPU pool — at the measured
/// ratio cost EXPERIMENTS.md A5 reports.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_COMPRESS_GPULANECOMPRESSOR_H
#define PADRE_COMPRESS_GPULANECOMPRESSOR_H

#include "compress/Block.h"
#include "compress/LzCodec.h"

#include <vector>

namespace padre {

/// Kernel geometry.
struct GpuLaneConfig {
  /// Device threads assigned per chunk, one frame sub-block each
  /// (at least 1; counts above MaxSubBlocks run MaxSubBlocks lanes).
  unsigned Lanes = 8;
};

/// The unrefined device output for one chunk: one token stream per
/// lane, in lane order.
struct LaneOutputs {
  std::vector<CompressResult> LaneResults;
  std::size_t ChunkSize = 0;

  /// Total payload bytes across lanes (what the device DMAs back).
  std::size_t totalPayloadBytes() const;
};

/// The refined (CPU post-processed) result for one chunk.
struct RefinedChunk {
  /// Encoded block (LzFramed method, or Raw on fallback).
  ByteVector Block;
  /// Merged functional stats across lanes.
  CompressStats Stats;
  /// True if compression did not pay and the block stores raw bytes.
  bool StoredRaw = false;
};

/// Lane-parallel LZ compressor (kernel body + post-processing).
/// Stateless; safe to share between threads. Whenever the frame beats
/// raw storage, `refine(runLanes(Chunk), Chunk).Block` is the block
/// `LzCodec(SingleProbe).compressFramed(Chunk, Lanes)` frames.
class GpuLaneCompressor {
public:
  explicit GpuLaneCompressor(GpuLaneConfig Config = GpuLaneConfig());

  /// The kernel body: compresses every lane of \p Chunk functionally —
  /// LzCodec::compressSubBlocks, the split compressFramed uses.
  /// \p Chunk must be at most LzCodec::MaxInputSize bytes.
  LaneOutputs runLanes(ByteSpan Chunk) const;

  /// CPU post-processing: frames \p Outputs into one LzFramed block
  /// (frameSubBlocks, the writer compressFramed uses).
  /// \p Chunk is the original data (needed for the store-raw fallback).
  static RefinedChunk refine(const LaneOutputs &Outputs, ByteSpan Chunk);

  const GpuLaneConfig &config() const { return Config; }

private:
  GpuLaneConfig Config;
  LzCodec LaneCodec;
};

} // namespace padre

#endif // PADRE_COMPRESS_GPULANECOMPRESSOR_H
