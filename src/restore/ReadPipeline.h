//===----------------------------------------------------------------------===//
///
/// \file
/// The batched read/restore pipeline — the read-path mirror of the
/// paper's write pipeline. Where the write side chunks, dedups,
/// compresses and destages, the restore side:
///
///   1. gathers a batch of chunk fetches (from a recipe, an LBA
///      mapping, or an explicit location list),
///   2. serves what it can from the DRAM chunk cache (the front tier),
///   3. coalesces location-adjacent misses into sequential SSD reads
///      (destage wrote them adjacently, so recipe-local reads are
///      sequential on flash) and issues the rest as random 4K reads,
///   4. decompresses the fetched payloads either chunk-parallel on the
///      CPU pool or, for v2-framed chunks (BlockMethod::LzFramed), on
///      the *warp-cooperative* GPU kernel
///      (compress/GpuWarpDecompressor.h) — compressed payloads staged
///      over the modelled PCIe link, O(sub-blocks) planning from the
///      frame header, per-warp divergence instead of per-wavefront,
///      and a persistent kernel whose steady-state batches pay only a
///      doorbell instead of LaunchUs,
///   5. optionally extends coalesced runs with *readahead*: the next
///      store-resident locations decode into the cache on the same
///      fetch, so recipe-local streams hit DRAM on their next batch.
///
/// Every block the GPU-compress write modes store is framed (one lane
/// per sub-block), as is every CPU-compressed chunk at SubBlocks > 1;
/// unframed methods (QuickLz, Lz77, legacy GpuLane blocks in older
/// images) decode on the CPU pool in every mode.
/// DecodeMode::Auto picks CPU or warp with a calibrator-style probe
/// (synthetic chunks, modelled costs only — nothing is charged to the
/// ledger); the probe's makespans are published as
/// padre_read_probe_us{mode=}.
///
/// Everything is observable: "restore:fetch"/"restore:decode" stage
/// spans tile the lane clocks (their per-lane totals reconcile with
/// ReadReport's busy times, tests/test_restore.cpp), and the
/// padre_read_* metrics are catalogued in OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_RESTORE_READPIPELINE_H
#define PADRE_RESTORE_READPIPELINE_H

#include "compress/Block.h"
#include "compress/GpuWarpDecompressor.h"
#include "core/ReductionPipeline.h"
#include "restore/ReadReport.h"
#include "util/Arena.h"
#include "util/Stats.h"

#include <functional>
#include <memory>
#include <optional>
#include <span>

namespace padre {
namespace restore {

/// One failed chunk read: where and why. SsdReadError means the flash
/// command exhausted its retry budget; ChunkMissing/ChunkCorrupt and
/// DecodeError classify store-level damage.
struct ReadFailure {
  std::uint64_t Location = 0;
  fault::ErrorCode Code = fault::ErrorCode::Ok;
};

/// Restore pipeline configuration.
struct ReadConfig {
  /// Chunk fetches gathered per batch (the read-side analogue of
  /// PipelineConfig::BatchChunks). Deep batches amortize the GPU
  /// launch and coalesce better; shallow ones bound latency.
  std::size_t BatchDepth = 256;
  DecodeMode Mode = DecodeMode::Auto;
  /// Store-resident successor chunks decoded into the cache per
  /// coalesced run (recipe-locality readahead). 0 disables; ignored
  /// when the pipeline has no read cache.
  std::size_t ReadaheadChunks = 0;
};

/// The batched restore engine over a reduction pipeline's store, cache,
/// SSD and (optional) GPU — the only code that reads a stored chunk
/// (ReductionPipeline::reader() owns one; restore::VolumeReader brings
/// its own). Single-caller semantics like Volume: the parallelism lives
/// inside the batch stages.
class ReadPipeline {
public:
  /// \p Pipeline supplies the store, ledger, pool, SSD, cache and
  /// observability sinks, and must outlive this object. If the
  /// platform has a GPU but the pipeline was built in a CPU-only mode
  /// (no device), the restore engine brings up its own device on the
  /// shared ledger — the read path may offload even when the write
  /// path does not.
  ReadPipeline(ReductionPipeline &Pipeline,
               const ReadConfig &Config = ReadConfig());

  /// Reads the chunks at \p Locations, appending one decoded buffer
  /// per location to \p Out in order. Duplicate locations fetch and
  /// decode once and copy out per requester. A chunk that is missing,
  /// unreadable (SSD retry budget exhausted) or corrupt does NOT abort
  /// the batch: every remaining fetch still completes, the failed
  /// request delivers an empty buffer, and — when \p Failures is
  /// non-null — one ReadFailure per failed location records the typed
  /// cause. Returns true iff every requested chunk was delivered.
  /// Failures are counted and any stale cache entry invalidated.
  /// \p BypassCache forces the flash path: the cache is neither
  /// consulted nor filled (scrubbing must not certify cached copies).
  bool readLocations(std::span<const std::uint64_t> Locations,
                     std::vector<ByteVector> &Out,
                     std::vector<ReadFailure> *Failures = nullptr,
                     bool BypassCache = false);

  /// readLocations for callers that consume chunks as they arrive: each
  /// requested chunk goes to \p Visit(Index, Chunk) in request order —
  /// an empty Chunk when its read failed — one batch at a time, so only
  /// one batch of decoded chunks is held at once. Returns true iff every
  /// requested chunk was delivered.
  bool visitLocations(
      std::span<const std::uint64_t> Locations,
      const std::function<void(std::size_t, const ByteVector &)> &Visit,
      bool BypassCache = false);

  /// Reconstructs a whole stream from \p Recipe through the batched
  /// path (ReductionPipeline::readBack() forwards here). Returns
  /// nullopt on any missing/corrupt chunk.
  std::optional<ByteVector> readStream(const StreamRecipe &Recipe);

  /// The mode batches actually run in: never Auto — the probe resolved
  /// it at construction (and WarpGpu degrades to Cpu on GPU-less
  /// platforms).
  DecodeMode effectiveMode() const { return Mode; }

  /// Rebaselines the measurement: report busy times and counters
  /// restart here. Unlike ReductionPipeline::resetMeasurement() this
  /// does NOT reset the shared ledger — write-side measurements in the
  /// same run stay intact; the report subtracts the baseline instead.
  void resetMeasurement();

  /// The measurements since construction or resetMeasurement().
  ReadReport report() const;

  /// GPU decode sub-batches transparently re-decoded on the CPU after
  /// an injected device fault (kernel/ECC/DMA).
  std::uint64_t gpuDecodeFallbackCount() const { return GpuDecodeFallbacks; }

  const ReadConfig &config() const { return Config; }

private:
  /// One chunk being fetched/decoded in the current batch.
  struct BatchItem {
    std::uint64_t Location = 0;
    ByteSpan Encoded; ///< store block (header + payload)
    // Parsed header (restore:decode fills these).
    BlockMethod Method = BlockMethod::Raw;
    std::uint32_t OriginalSize = 0;
    ByteSpan Payload;
    /// Warp-GPU path only (arena-backed table).
    std::optional<GpuWarpPlan> WarpPlan;
    ByteVector Decoded;
    /// Index of the last request for this chunk: it takes Decoded by
    /// move, earlier requests copy it.
    std::size_t LastRequest = 0;
    double FetchShareUs = 0.0; ///< this chunk's share of SSD latency
    double DecodeUs = 0.0;     ///< decode stage latency contribution
    bool Readahead = false;    ///< cache-fill only, no requester
    bool Failed = false;
    fault::ErrorCode Error = fault::ErrorCode::Ok;
  };

  /// The construction-time probe's modelled makespans (µs; 0 when the
  /// path is unavailable) plus the framed format's measured payload
  /// growth on the probe chunk, and the mode the probe would pick.
  struct ProbeResult {
    double CpuUs = 0.0;
    double WarpUs = 0.0;
    double RatioDeltaPct = 0.0;
    DecodeMode Mode = DecodeMode::Cpu;
  };

  bool processBatch(std::span<const std::uint64_t> Locations,
                    std::vector<ByteVector> &Out,
                    std::vector<ReadFailure> *Failures, bool BypassCache);
  void decodeCpu(const std::vector<BatchItem *> &Items);
  void decodeWarp(const std::vector<BatchItem *> &Items);
  void noteFailure(std::uint64_t Location);
  /// The Auto probe: modelled decode makespans of a synthetic batch at
  /// BatchDepth on the CPU pool and on the warp kernel (over the
  /// framed probe); charges nothing.
  ProbeResult probeMode() const;

  ReductionPipeline &Pipe;
  ReadConfig Config;
  const CostModel &Model;
  /// The pipeline's device, or OwnedDevice on CPU-only write modes.
  std::unique_ptr<GpuDevice> OwnedDevice;
  GpuDevice *Device = nullptr;
  DecodeMode Mode = DecodeMode::Cpu;
  ProbeResult Probe;
  /// Persistent warp kernel residency: the first warp sub-batch pays
  /// the full launch, later ones only the doorbell; any device fault
  /// evicts the kernel (see GpuDevice::dispatchResident).
  bool WarpKernelResident = false;
  /// Per-batch decode scratch (request tables, warp sub-block tables);
  /// reset at every processBatch entry — allocations never outlive the
  /// batch that made them.
  Arena BatchArena;

  // Report counters (reset by resetMeasurement).
  std::uint64_t ChunksRequested = 0;
  std::uint64_t BytesOut = 0;
  std::uint64_t CacheHits = 0;
  std::uint64_t SsdChunks = 0;
  std::uint64_t EncodedBytesIn = 0;
  std::uint64_t CoalescedRuns = 0;
  std::uint64_t RandomReads = 0;
  std::uint64_t ReadaheadChunks = 0;
  std::uint64_t DecodeFailures = 0;
  std::uint64_t CpuBatches = 0;
  std::uint64_t WarpBatches = 0;
  std::uint64_t FramedChunks = 0;
  /// GPU decode sub-batches re-decoded on the CPU after a device fault.
  std::uint64_t GpuDecodeFallbacks = 0;
  /// Ledger busy-time baselines (µs) captured at resetMeasurement.
  double BaselineUs[ResourceCount] = {};
  Histogram LatencyHist{20000.0, 2000};

  // Observability instruments (null when the pipeline has no metrics
  // registry), cached at construction.
  obs::LogHistogram *ReadLatencyHist = nullptr;
  obs::Counter *ReadChunksTotal = nullptr;
  obs::Counter *ReadBytesTotal = nullptr;
  obs::Counter *SsdChunksTotal = nullptr;
  obs::Counter *CoalescedRunsTotal = nullptr;
  obs::Counter *ReadaheadTotal = nullptr;
  obs::Counter *DecodeFailTotal = nullptr;
  obs::Counter *CpuBatchesTotal = nullptr;
  obs::Counter *WarpBatchesTotal = nullptr;
  obs::Counter *GpuFallbackTotal = nullptr;
  obs::Gauge *DecodeModeGauge = nullptr;
  obs::Gauge *ProbeCpuGauge = nullptr;
  obs::Gauge *ProbeWarpGauge = nullptr;
};

} // namespace restore
} // namespace padre

#endif // PADRE_RESTORE_READPIPELINE_H
