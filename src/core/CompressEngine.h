//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel compression engine (§3.2). Two backends:
///
///   * Cpu — "the compute is parallelized by the CPU by assigning a
///     computing thread that runs the previously studied compression
///     algorithm to each chunk": one QuickLZ-class codec call per chunk
///     across the pool.
///   * GpuLane — the paper's design: chunks are batched to the device,
///     each chunk is compressed by multiple lanes (one v2 frame
///     sub-block each, compress/GpuLaneCompressor.h), and "the GPU's
///     compression results are not
///     refined in GPU due to performance issues. Therefore, the CPU
///     must refine the results" — the CPU post-processing stage runs on
///     the pool after each kernel.
///
/// Both backends fall back to store-raw when compression does not pay.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_COMPRESSENGINE_H
#define PADRE_CORE_COMPRESSENGINE_H

#include "chunk/Chunker.h"
#include "compress/GpuLaneCompressor.h"
#include "compress/LzCodec.h"
#include "gpu/GpuDevice.h"
#include "obs/Obs.h"
#include "sim/CostModel.h"
#include "sim/ResourceLedger.h"
#include "util/ThreadPool.h"

#include <atomic>
#include <span>
#include <vector>

namespace padre {

/// Which hardware runs the LZ scan.
enum class CompressBackend { Cpu, GpuLane };

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

/// Engine configuration.
struct CompressEngineConfig {
  CompressBackend Backend = CompressBackend::Cpu;
  /// CPU matcher; SingleProbe is the QuickLZ-class default.
  LzCodec::MatcherKind CpuMatcher = LzCodec::MatcherKind::SingleProbe;
  LzOptions CpuOptions;
  GpuLaneConfig Lanes;
  /// Optional Huffman entropy stage over the LZ token stream
  /// (extension): extra CPU cycles for extra ratio. Applied on the CPU
  /// to unframed chunks only, so the GpuLane backend (which always
  /// frames) never runs it.
  bool EntropyStage = false;
  /// Sub-blocks per chunk for the v2 framed format (decode v2's
  /// compress-time half, see compress/SubBlockFrame.h). 1 emits the
  /// classic unframed payloads; >1 splits each chunk into that many
  /// independently-decodable sub-blocks (history reset at boundaries)
  /// so the warp-cooperative decoder can expand them in parallel — at
  /// a small measured ratio cost. CPU backend only: the GpuLane backend
  /// frames one sub-block per lane (Lanes.Lanes). The entropy stage is
  /// skipped for framed chunks (a Huffman wrap would hide the sub-block
  /// boundaries the frame exists to expose).
  unsigned SubBlocks = 1;
};

/// The compression stage. One batch at a time; parallelism inside.
class CompressEngine {
public:
  /// \p Device may be null when the backend is Cpu.
  /// \p Obs sinks are optional; defaults disable instrumentation.
  CompressEngine(const CostModel &Model, ResourceLedger &Ledger,
                 ThreadPool &Pool, GpuDevice *Device,
                 const CompressEngineConfig &Config,
                 const obs::ObsSinks &Obs = obs::ObsSinks());

  /// Compresses every chunk in the batch into \p Out (resized).
  /// Infallible by construction: a GPU device fault re-runs the
  /// affected sub-batch's lanes on the CPU pool (degraded mode), which
  /// writes the same blocks, so callers never see a partial batch.
  void compressBatch(std::span<const ChunkView> Chunks,
                     std::vector<CompressedChunk> &Out);

  /// Slice entry points for the backend layer (src/backend): compress
  /// Chunks[Begin, End) into Out[Begin, End) on this engine's backend.
  /// \p Out must already be sized to Chunks.size() — the splitter owns
  /// the full batch vector and hands each backend its slice. Same
  /// fault contract as compressBatch (GPU slices fall back per
  /// sub-batch to the CPU path).
  void compressSlice(std::span<const ChunkView> Chunks, std::size_t Begin,
                     std::size_t End, std::vector<CompressedChunk> &Out);

  /// Cumulative store-raw fallbacks.
  std::uint64_t rawFallbacks() const { return RawFallbacks.load(); }

  /// GPU sub-batches re-compressed on the CPU after a device fault.
  std::uint64_t gpuFallbackCount() const { return GpuFallbackCount; }

  const CompressEngineConfig &config() const { return Config; }

private:
  /// CPU backend over [Begin, End).
  void compressRangeCpu(std::span<const ChunkView> Chunks,
                        std::size_t Begin, std::size_t End,
                        std::vector<CompressedChunk> &Out);
  void compressRangeGpu(std::span<const ChunkView> Chunks,
                        std::size_t Begin, std::size_t End,
                        std::vector<CompressedChunk> &Out);

  CostModel Model;
  ResourceLedger &Ledger;
  ThreadPool &Pool;
  GpuDevice *Device;
  CompressEngineConfig Config;
  LzCodec CpuCodec;
  GpuLaneCompressor LaneCompressor;
  std::atomic<std::uint64_t> RawFallbacks{0};
  std::uint64_t GpuFallbackCount = 0;
  // Observability (null = disabled), cached at construction.
  obs::Counter *RawFallbackCounter = nullptr;
  obs::Counter *GpuFallbacks = nullptr;
};

} // namespace padre

#endif // PADRE_CORE_COMPRESSENGINE_H
