//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration and result types of the compress stage (src/backend)
/// — a plain-data header so PipelineConfig can embed them without
/// pulling the backend layer's engine dependencies into every core
/// include.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_BACKENDCONFIG_H
#define PADRE_BACKEND_BACKENDCONFIG_H

#include "compress/GpuLaneCompressor.h"
#include "compress/LzCodec.h"

namespace padre {

/// One compressed chunk ready for destage.
struct CompressedChunk {
  ByteVector Block; ///< encoded block (compress/Block.h)
  CompressStats Stats;
  bool StoredRaw = false;
  /// Modelled service latency of this chunk's compression stage in
  /// microseconds. The GPU backend batches chunks per kernel, so every
  /// chunk waits for its whole sub-batch round trip — deeper batching
  /// buys throughput at the price of latency.
  double LatencyUs = 0.0;
};

/// Codec knobs shared by both compress backends (§3.2): the CPU
/// backend runs one codec call per chunk across the pool, the GPU
/// backend runs the lane kernel and refines its output on the CPU.
struct CompressEngineConfig {
  /// CPU matcher; SingleProbe is the QuickLZ-class default.
  LzCodec::MatcherKind CpuMatcher = LzCodec::MatcherKind::SingleProbe;
  LzOptions CpuOptions;
  GpuLaneConfig Lanes;
  /// Sub-blocks per chunk for the v2 framed format (decode v2's
  /// compress-time half, see compress/SubBlockFrame.h). 1 emits the
  /// classic unframed payloads; >1 splits each chunk into that many
  /// independently-decodable sub-blocks (history reset at boundaries)
  /// so the warp-cooperative decoder can expand them in parallel — at
  /// a small measured ratio cost. CPU backend only: the GPU backend
  /// frames one sub-block per lane (Lanes.Lanes).
  unsigned SubBlocks = 1;
};

namespace backend {

/// How the splitter partitions each batch across backends.
///
///   Auto    — the HPDR-style tuner picks the device share per batch
///             from observed per-backend rates (EWMA, seeded from the
///             static cost-model quotes) and pipelines the device
///             share at sub-batch granularity.
///   CpuOnly — forced split fraction 0: every chunk on the CPU
///             backend. What PipelineMode CpuOnly and GpuDedup use.
///   GpuOnly — forced split fraction 1: every chunk on the device
///             backend. What PipelineMode GpuCompress and GpuBoth use.
///   Fixed   — a static fraction of each batch's bytes to the device
///             backend (BackendConfig::Fraction); no tuning.
enum class SplitMode { Auto, CpuOnly, GpuOnly, Fixed };

/// Returns "auto", "cpu", "gpu" or "fixed".
const char *splitModeName(SplitMode Mode);

/// Backend-framework knobs, embedded in PipelineConfig::Backend.
struct BackendConfig {
  /// Modelled GPUs driven by the device backend: device 0 is the
  /// pipeline's primary GPU, devices 1..N-1 get their own staging and
  /// queue lanes.
  unsigned GpuDevices = 1;
  SplitMode Split = SplitMode::Auto;
  /// Fixed-mode device share of each batch's bytes, clamped to [0, 1].
  double Fraction = 1.0;
  /// Tuner observation window in batches: the EWMA smoothing factor is
  /// 2 / (TunerWindow + 1). Clamped to >= 1.
  unsigned TunerWindow = 8;
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_BACKENDCONFIG_H
