//===----------------------------------------------------------------------===//
///
/// \file
/// Lane-parallel compressor implementation.
///
//===----------------------------------------------------------------------===//

#include "compress/GpuLaneCompressor.h"

#include "compress/SubBlockFrame.h"

#include <cassert>

using namespace padre;

std::size_t LaneOutputs::totalPayloadBytes() const {
  std::size_t Total = 0;
  for (const CompressResult &Lane : LaneResults)
    Total += Lane.Payload.size();
  return Total;
}

GpuLaneCompressor::GpuLaneCompressor(GpuLaneConfig Config)
    : Config(Config), LaneCodec(LzCodec::MatcherKind::SingleProbe) {
  assert(Config.Lanes >= 1 && "Need at least one lane");
}

LaneOutputs GpuLaneCompressor::runLanes(ByteSpan Chunk) const {
  assert(Chunk.size() <= LzCodec::MaxInputSize &&
         "Chunk exceeds codec format limit");
  LaneOutputs Outputs;
  Outputs.ChunkSize = Chunk.size();
  Outputs.LaneResults = LaneCodec.compressSubBlocks(Chunk, Config.Lanes);
  return Outputs;
}

RefinedChunk GpuLaneCompressor::refine(const LaneOutputs &Outputs,
                                       ByteSpan Chunk) {
  assert(Outputs.ChunkSize == Chunk.size() &&
         "Lane outputs do not belong to this chunk");
  RefinedChunk Refined;
  const auto Count = static_cast<unsigned>(Outputs.LaneResults.size());
  for (const CompressResult &Lane : Outputs.LaneResults)
    Refined.Stats.merge(Lane.Stats);

  // Fallback decision: the frame must beat raw storage. A lane stream
  // too long for its u16 header entry implies a frame of at least a
  // full-size chunk, so it always lands here.
  const std::size_t FrameBytes =
      subBlockHeaderSize(Count) + Outputs.totalPayloadBytes();
  if (FrameBytes >= Chunk.size()) {
    Refined.StoredRaw = true;
    Refined.Block = encodeBlock(BlockMethod::Raw,
                                static_cast<std::uint32_t>(Chunk.size()),
                                Chunk);
    return Refined;
  }
  const ByteVector Frame = frameSubBlocks(Outputs.LaneResults);
  Refined.Block = encodeBlock(BlockMethod::LzFramed,
                              static_cast<std::uint32_t>(Chunk.size()),
                              ByteSpan(Frame.data(), Frame.size()));
  return Refined;
}
