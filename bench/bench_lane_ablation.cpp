//===----------------------------------------------------------------------===//
///
/// \file
/// A5 — ablation of the GPU compression kernel geometry (§3.2(2)):
/// lanes per chunk. More lanes = more device parallelism per 4 KiB
/// chunk (the paper's answer to Ozsoy et al.'s large-input assumption)
/// but a worse compression ratio. Each lane is one sub-block of the v2
/// frame, with its match history reset at the lane boundary; the
/// framing cost row prices that against the paper's layout (256 B of
/// history overlap into the previous lane, one unframed stream). Also
/// reports the CPU post-processing share.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "compress/GpuLaneCompressor.h"

#include <cstdio>

using namespace padre;
using namespace padre::bench;

namespace {

struct LaneOutcome {
  double Ratio = 0.0;       ///< chunk bytes / stored block bytes
  double RawFraction = 0.0; ///< store-raw fallbacks
};

/// Stores every third block of \p Stream through \p Compress, which
/// returns a block's stored size and whether it fell back to raw.
template <typename CompressFn>
LaneOutcome measure(const VdbenchStream &Stream, CompressFn Compress) {
  std::uint64_t Original = 0, Stored = 0, Raw = 0, Chunks = 0;
  ByteVector Block(Stream.config().BlockSize);
  for (std::uint64_t I = 0; I < Stream.blockCount(); I += 3) {
    Stream.fillBlock(I, MutableByteSpan(Block.data(), Block.size()));
    const auto [Size, StoredRaw] =
        Compress(ByteSpan(Block.data(), Block.size()));
    Original += Block.size();
    Stored += Size;
    Raw += StoredRaw;
    ++Chunks;
  }
  LaneOutcome Outcome;
  Outcome.Ratio =
      static_cast<double>(Original) / static_cast<double>(Stored);
  Outcome.RawFraction =
      static_cast<double>(Raw) / static_cast<double>(Chunks);
  return Outcome;
}

/// The framed lane block padre writes.
LaneOutcome measureFramed(unsigned Lanes, const VdbenchStream &Stream) {
  GpuLaneConfig Config;
  Config.Lanes = Lanes;
  const GpuLaneCompressor Compressor(Config);
  return measure(Stream, [&](ByteSpan Chunk) {
    const RefinedChunk Refined =
        GpuLaneCompressor::refine(Compressor.runLanes(Chunk), Chunk);
    return std::pair(Refined.Block.size(), Refined.StoredRaw);
  });
}

/// The paper's layout: lanes with \p History bytes of overlap into the
/// previous lane, concatenated into one unframed stream.
LaneOutcome measureOverlap(unsigned Lanes, std::size_t History,
                           const VdbenchStream &Stream) {
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  return measure(Stream, [&](ByteSpan Chunk) {
    const std::size_t PerLane = (Chunk.size() + Lanes - 1) / Lanes;
    std::size_t Tokens = 0;
    for (std::size_t Begin = 0; Begin < Chunk.size(); Begin += PerLane)
      Tokens += Codec
                    .compressRange(Chunk, Begin,
                                   std::min(Chunk.size(), Begin + PerLane),
                                   History)
                    .Payload.size();
    const bool StoredRaw = Tokens >= Chunk.size();
    return std::pair(BlockHeaderSize + (StoredRaw ? Chunk.size() : Tokens),
                     StoredRaw);
  });
}

} // namespace

int main() {
  banner("A5", "ablation: GPU compression lanes per chunk and the cost "
               "of framing them (paper §3.2(2))");

  WorkloadConfig Load;
  Load.TotalBytes = 8ull << 20;
  Load.DedupRatio = 1.0;
  Load.CompressRatio = 2.0;
  Load.Seed = 7;
  const VdbenchStream Stream(Load);

  std::printf("lane sweep (one frame sub-block per lane):\n");
  std::printf("%8s %16s %14s\n", "lanes", "compress ratio", "raw fallback");
  for (unsigned Lanes : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const LaneOutcome Outcome = measureFramed(Lanes, Stream);
    std::printf("%8u %15.2fx %13.1f%%\n", Lanes, Outcome.Ratio,
                Outcome.RawFraction * 100.0);
  }

  const LaneOutcome Framed = measureFramed(8, Stream);
  const LaneOutcome Overlap = measureOverlap(8, 256, Stream);
  const double FramingCostPct = 100.0 * (1.0 - Framed.Ratio / Overlap.Ratio);
  std::printf("\nframing cost (8 lanes): framed %.2fx vs unframed 256 B "
              "overlap %.2fx -> %.1f%%\n",
              Framed.Ratio, Overlap.Ratio, FramingCostPct);

  // Pipeline-level: post-processing share of CPU time in GpuCompress.
  RunSpec Spec;
  Spec.DedupEnabled = false;
  Spec.Mode = PipelineMode::GpuCompress;
  const PipelineReport Report = runSpec(Platform::paper(), Spec);
  std::printf("\npipeline (GpuCompress, comp 2.0): %.1fK IOPS; CPU busy "
              "%.3fs (refinement+request), GPU busy %.3fs\n",
              Report.ThroughputIops / 1e3, Report.CpuBusySec,
              Report.GpuBusySec);

  char Measured[64];
  std::snprintf(Measured, sizeof(Measured),
                "ratio falls as lanes grow; framing %.1f%%", FramingCostPct);
  paperRow("ratio cost of lane parallelism", "accepted trade (§3.2(2))",
           Measured);
  return FramingCostPct <= 5.0 ? 0 : 1;
}
