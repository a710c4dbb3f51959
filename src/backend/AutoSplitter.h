//===----------------------------------------------------------------------===//
///
/// \file
/// The HPDR-style auto-tuning splitter: pipelined domain decomposition
/// of each compress batch across reduction backends. Every batch is
/// cut at a chunk boundary into a device share and a CPU share — the
/// domains are independent, so both become ready at dedup-done and
/// replay concurrently through the BatchScheduler overlap window
/// (endStageCompressSliced). The split fraction comes from a tuner
/// that tracks *observed* per-backend rates — bytes per modelled
/// microsecond of slice completion, EWMA over recent batches, seeded
/// from the static CostModel quotes — and picks the fraction (over a
/// 1/16 grid that always includes the pure-CPU and pure-GPU
/// endpoints, so the tuned split can never predict worse than the
/// best static choice). In Auto mode the device share is additionally
/// pipelined at sub-batch granularity (one slice record per kernel
/// round trip), the splitter's pipeline-depth lever.
///
/// Every pipeline's compress stage runs here. Without an explicit
/// PipelineConfig::Backend the split is forced from the integration
/// mode (§4(3)): CpuOnly and GpuDedup compress on the CPU backend,
/// GpuCompress and GpuBoth on the GPU backend. tests/test_backend.cpp
/// pins those forced splits to golden figures, and every interior
/// split point to the same results and recipes.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_AUTOSPLITTER_H
#define PADRE_BACKEND_AUTOSPLITTER_H

#include "backend/CpuBackend.h"
#include "backend/GpuBackend.h"
#include "fault/FaultInjector.h"

#include <memory>

namespace padre {
namespace backend {

/// Tuner/split state surfaced to reports and padrectl's run footer.
struct SplitterStats {
  /// Device byte share chosen for the most recent batch.
  double Fraction = 0.0;
  /// Device-side slice records of the most recent batch (the pipeline
  /// depth actually used).
  unsigned DeviceSlices = 0;
  /// Observed EWMA rates (bytes per modelled µs of slice completion).
  double CpuRateBytesPerUs = 0.0;
  double GpuRateBytesPerUs = 0.0;
  std::uint64_t Batches = 0;
  std::uint64_t CpuChunks = 0;
  std::uint64_t GpuChunks = 0;
};

class AutoSplitter {
public:
  /// Everything the splitter borrows from the pipeline. All references
  /// must outlive the splitter; \p Primary may be null only when
  /// Config.Split == CpuOnly (no device backend is built then).
  struct Setup {
    const CostModel &Model;
    ResourceLedger &Ledger;
    ThreadPool &Pool;
    BatchScheduler &Sched;
    GpuDevice *Primary = nullptr;
    CompressEngineConfig Compress;
    obs::ObsSinks Obs;
    fault::FaultInjector *Faults = nullptr;
    BackendConfig Config;
  };

  explicit AutoSplitter(const Setup &S);

  /// The compress stage: partitions \p Chunks, executes the slices
  /// functionally (charging the ledger), replays them via
  /// BatchScheduler::endStageCompressSliced, and feeds the observed
  /// slice rates back to the tuner. The caller opens the stage with
  /// beginStage(Compress).
  void runCompressStage(std::span<const ChunkView> Chunks,
                        std::vector<CompressedChunk> &Out);

  const SplitterStats &stats() const { return Stats; }
  const BackendConfig &config() const { return Config; }

  /// Devices the device-side backend drives (0 when CPU-only).
  unsigned deviceCount() const {
    return Dev ? Dev->caps().DeviceCount : 0;
  }

  /// Store-raw fallbacks / device-fault CPU re-compressions across both
  /// backends (the sources of the pipeline report's fallback
  /// counters).
  std::uint64_t rawFallbacks() const {
    return Cpu->rawFallbacks() + (Dev ? Dev->rawFallbacks() : 0);
  }
  std::uint64_t deviceFallbacks() const {
    return Dev ? Dev->deviceFallbacks() : 0;
  }

  /// Rewinds backend-owned timeline state (extra devices' staging) in
  /// lockstep with BatchScheduler::reset.
  void resetTimelineState() {
    if (Dev)
      Dev->resetTimelineState();
  }

private:
  double chooseFraction(std::uint64_t TotalBytes) const;
  std::size_t cutIndex(std::span<const ChunkView> Chunks, double Fraction,
                       std::uint64_t TotalBytes) const;

  const CostModel &Model;
  ResourceLedger &Ledger;
  BatchScheduler &Sched;
  obs::TraceRecorder *Trace;
  BackendConfig Config;
  std::unique_ptr<CpuBackend> Cpu;
  std::unique_ptr<ReductionBackend> Dev; ///< null when CPU-only
  /// Reused slice-record scratch (no steady-state allocation).
  std::vector<BatchScheduler::CompressSlice> Records;
  // Tuner state: EWMA rates in bytes/µs; 0 = not yet seeded.
  double CpuRate = 0.0;
  double GpuRate = 0.0;
  double Alpha = 0.25; ///< 2 / (TunerWindow + 1)
  // The tuner's occupancy view (raw busy µs per pool), advanced at
  // every batch entry by the ledger deltas since the last batch and
  // clamped at ledger rebaselines — a measurement reset never zeroes
  // the learned occupancy gap, so the split does not re-learn from
  // scratch mid-run.
  double CpuSeenUs = 0.0;
  double GpuSeenUs = 0.0;
  double PcieSeenUs = 0.0;
  double LastCpuUs = 0.0;
  double LastGpuUs = 0.0;
  double LastPcieUs = 0.0;
  SplitterStats Stats;
  // Observability (null = disabled), cached at construction.
  obs::Gauge *SplitCpuGauge = nullptr;
  obs::Gauge *SplitGpuGauge = nullptr;
  obs::LogHistogram *BatchUsCpu = nullptr;
  obs::LogHistogram *BatchUsGpu = nullptr;
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_AUTOSPLITTER_H
