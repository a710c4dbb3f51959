//===----------------------------------------------------------------------===//
///
/// \file
/// Auto-tuning splitter implementation.
///
//===----------------------------------------------------------------------===//

#include "backend/AutoSplitter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace padre;
using namespace padre::backend;

const char *padre::backend::splitModeName(SplitMode Mode) {
  switch (Mode) {
  case SplitMode::Auto:
    return "auto";
  case SplitMode::CpuOnly:
    return "cpu";
  case SplitMode::GpuOnly:
    return "gpu";
  case SplitMode::Fixed:
    return "fixed";
  }
  assert(false && "Unknown split mode");
  return "?";
}

namespace {

/// Split-fraction candidates: a 1/16 grid. Including both endpoints is
/// what makes the tuned split never predict worse than the best static
/// mode — pure-CPU and pure-GPU are always on the menu.
constexpr int FractionGridSteps = 16;

/// Slice completion times below the ledger's resolution observe
/// nothing (an empty share has no rate).
constexpr double MinElapsedUs = 1e-3;

} // namespace

AutoSplitter::AutoSplitter(const Setup &S)
    : Model(S.Model), Ledger(S.Ledger), Sched(S.Sched), Trace(S.Obs.Trace),
      Config(S.Config) {
  Config.GpuDevices = std::max(1u, Config.GpuDevices);
  Config.TunerWindow = std::max(1u, Config.TunerWindow);
  Alpha = 2.0 / (static_cast<double>(Config.TunerWindow) + 1.0);
  Cpu = std::make_unique<CpuBackend>(S.Model, S.Ledger, S.Pool,
                                     S.Compress, S.Obs);
  if (Config.Split != SplitMode::CpuOnly) {
    assert(S.Primary && S.Primary->present() &&
           "Device-capable split modes need the pipeline's GPU");
    Dev = std::make_unique<GpuBackend>(S.Model, S.Ledger, S.Pool,
                                       *S.Primary, S.Compress, S.Obs,
                                       S.Faults, Config.GpuDevices);
  }
  if (S.Obs.Metrics) {
    obs::MetricsRegistry &M = *S.Obs.Metrics;
    SplitCpuGauge = &M.gauge(
        "padre_backend_split_fraction{backend=\"cpu\"}",
        "Byte share of the last batch routed to the backend");
    SplitGpuGauge = &M.gauge(
        "padre_backend_split_fraction{backend=\"gpu\"}",
        "Byte share of the last batch routed to the backend");
    BatchUsCpu = &M.histogram(
        "padre_backend_batch_us{backend=\"cpu\"}",
        "Modelled slice completion time per batch (microseconds)",
        1.0, 2.0, 24);
    BatchUsGpu = &M.histogram(
        "padre_backend_batch_us{backend=\"gpu\"}",
        "Modelled slice completion time per batch (microseconds)",
        1.0, 2.0, 24);
  }
}

double AutoSplitter::chooseFraction(std::uint64_t TotalBytes) const {
  switch (Config.Split) {
  case SplitMode::CpuOnly:
    return 0.0;
  case SplitMode::GpuOnly:
    return Dev ? 1.0 : 0.0;
  case SplitMode::Fixed:
    return Dev ? std::clamp(Config.Fraction, 0.0, 1.0) : 0.0;
  case SplitMode::Auto:
    break;
  }
  if (!Dev)
    return 0.0;
  assert(CpuRate > 0.0 && GpuRate > 0.0 && "Tuner rates not seeded");
  // HPDR-style idle-resource routing: cut where the projected
  // *cumulative* normalized occupancy of the two pools balances, not
  // where this stage's slice latencies do. The CPU pool also carries
  // chunking, dedup and refinement, so its occupancy head start routes
  // compression to the device until the device lanes catch up — over a
  // run the split converges on the cut that minimizes the compute
  // makespan. Deterministic: the ledger's busy totals at batch entry
  // are a pure function of the batches already executed.
  const double Threads =
      static_cast<double>(std::max(1u, Model.Cpu.Threads));
  const double Devices = static_cast<double>(Config.GpuDevices);
  // The splitter's own monotone occupancy view, not the raw ledger:
  // a measurement reset rebaselines the ledger to ~0 mid-run, and
  // re-learning the occupancy gap from scratch would make the first
  // measured batches split against a bottleneck that isn't there.
  const double CpuBusy = CpuSeenUs / Threads;
  const double DevBusy = std::fmax(GpuSeenUs, PcieSeenUs) / Devices;
  const double Bytes = static_cast<double>(TotalBytes);
  // Scan the grid from the device end so ties resolve toward the
  // device — at equal projections the GPU share frees CPU width for
  // the dedup front half. Both endpoints are on the menu, so the tuned
  // split never projects worse than the better static mode.
  double BestFraction = 1.0;
  double BestTime = std::numeric_limits<double>::infinity();
  for (int Step = FractionGridSteps; Step >= 0; --Step) {
    const double F =
        static_cast<double>(Step) / static_cast<double>(FractionGridSteps);
    const double T = std::fmax(CpuBusy + (1.0 - F) * Bytes / CpuRate,
                               DevBusy + F * Bytes / GpuRate);
    if (T < BestTime) {
      BestTime = T;
      BestFraction = F;
    }
  }
  return BestFraction;
}

std::size_t AutoSplitter::cutIndex(std::span<const ChunkView> Chunks,
                                   double Fraction,
                                   std::uint64_t TotalBytes) const {
  if (Fraction <= 0.0)
    return 0;
  if (Fraction >= 1.0)
    return Chunks.size();
  const double TargetBytes = Fraction * static_cast<double>(TotalBytes);
  std::uint64_t Acc = 0;
  std::size_t Cut = 0;
  while (Cut < Chunks.size() &&
         static_cast<double>(Acc) < TargetBytes) {
    Acc += Chunks[Cut].Data.size();
    ++Cut;
  }
  return Cut;
}

void AutoSplitter::runCompressStage(std::span<const ChunkView> Chunks,
                                    std::vector<CompressedChunk> &Out) {
  Out.assign(Chunks.size(), CompressedChunk());
  Records.clear();
  if (Chunks.empty()) {
    // Still close the stage bracket: the replay disarms the op logs
    // and advances the batch's compress-done timestamp.
    Sched.endStageCompressSliced(Records);
    return;
  }
  std::uint64_t TotalBytes = 0;
  for (const ChunkView &Chunk : Chunks)
    TotalBytes += Chunk.Data.size();

  // Seed the tuner from the static quotes on first contact; observed
  // rates take over below. Deterministic: quotes are pure functions of
  // the cost model and the batch shape.
  if (CpuRate <= 0.0) {
    const double QuoteUs =
        Cpu->quoteCompressUs(TotalBytes, Chunks.size());
    CpuRate = QuoteUs > 0.0 ? static_cast<double>(TotalBytes) / QuoteUs
                            : 1.0;
  }
  if (GpuRate <= 0.0 && Dev) {
    const double QuoteUs =
        Dev->quoteCompressUs(TotalBytes, Chunks.size());
    GpuRate = QuoteUs > 0.0 ? static_cast<double>(TotalBytes) / QuoteUs
                            : 1.0;
  }

  // Advance the occupancy view by the ledger deltas since the last
  // batch (this batch's chunking/dedup charges included). Clamping at
  // zero absorbs ledger rebaselines — resetMeasurement drops the raw
  // busy totals, but the gap the tuner has learned survives.
  const double NowCpuUs = Ledger.busyMicros(Resource::CpuPool);
  const double NowGpuUs = Ledger.busyMicros(Resource::Gpu);
  const double NowPcieUs = Ledger.busyMicros(Resource::Pcie);
  CpuSeenUs += std::fmax(0.0, NowCpuUs - LastCpuUs);
  GpuSeenUs += std::fmax(0.0, NowGpuUs - LastGpuUs);
  PcieSeenUs += std::fmax(0.0, NowPcieUs - LastPcieUs);
  LastCpuUs = NowCpuUs;
  LastGpuUs = NowGpuUs;
  LastPcieUs = NowPcieUs;

  const double Fraction = chooseFraction(TotalBytes);
  const std::size_t Cut = cutIndex(Chunks, Fraction, TotalBytes);
  // Auto pipelines the device share per sub-batch; the forced and
  // fixed modes keep one record per backend (the pass-through shape).
  const bool Pipelined = Config.Split == SplitMode::Auto;

  std::uint64_t DevBytes = 0;
  for (std::size_t I = 0; I < Cut; ++I)
    DevBytes += Chunks[I].Data.size();

  std::size_t DevRecords = 0;
  double DevCostUs = 0.0, CpuCostUs = 0.0;
  if (Cut > 0 && Dev) {
    const double GpuBeginUs = Ledger.busyMicros(Resource::Gpu);
    const double PcieBeginUs = Ledger.busyMicros(Resource::Pcie);
    Dev->executeSlice(Chunks, 0, Cut, Out, Records, Pipelined);
    DevRecords = Records.size();
    // The device share's marginal occupancy: the larger of the GPU and
    // PCIe busy deltas (the pool the slice actually loads most).
    DevCostUs =
        std::fmax(Ledger.busyMicros(Resource::Gpu) - GpuBeginUs,
                  Ledger.busyMicros(Resource::Pcie) - PcieBeginUs);
    if (Trace)
      Trace->record(Dev->caps().SpanName, obs::CategoryBackend,
                    Resource::Gpu, GpuBeginUs,
                    Ledger.busyMicros(Resource::Gpu) - GpuBeginUs);
  }
  if (Cut < Chunks.size()) {
    const double CpuBeginUs = Ledger.busyMicros(Resource::CpuPool);
    Cpu->executeSlice(Chunks, Cut, Chunks.size(), Out, Records,
                      /*Pipelined=*/false);
    // The CPU share's marginal occupancy, normalized by the pool width
    // (the splitter balances normalized busy, see chooseFraction).
    CpuCostUs = (Ledger.busyMicros(Resource::CpuPool) - CpuBeginUs) /
                static_cast<double>(std::max(1u, Model.Cpu.Threads));
    if (Trace)
      Trace->record(Cpu->caps().SpanName, obs::CategoryBackend,
                    Resource::CpuPool, CpuBeginUs,
                    Ledger.busyMicros(Resource::CpuPool) - CpuBeginUs);
  }

  Sched.endStageCompressSliced(Records);

  // Observe: rate = share bytes per microsecond of marginal pool
  // occupancy. EWMA over the window. (Elapsed times feed the
  // histograms; the tuner itself balances occupancy, not latency —
  // a slice's round trip waits on PCIe and launch gaps the pool could
  // spend on other batches.)
  double DevElapsedUs = 0.0;
  for (std::size_t I = 0; I < DevRecords; ++I)
    DevElapsedUs = std::fmax(DevElapsedUs, Records[I].ElapsedUs);
  double CpuElapsedUs = 0.0;
  for (std::size_t I = DevRecords; I < Records.size(); ++I)
    CpuElapsedUs = std::fmax(CpuElapsedUs, Records[I].ElapsedUs);
  if (Cut > 0 && DevCostUs > MinElapsedUs) {
    const double Observed = static_cast<double>(DevBytes) / DevCostUs;
    GpuRate = Alpha * Observed + (1.0 - Alpha) * GpuRate;
    if (BatchUsGpu)
      BatchUsGpu->observe(DevElapsedUs);
  }
  if (Cut < Chunks.size() && CpuCostUs > MinElapsedUs) {
    const double Observed =
        static_cast<double>(TotalBytes - DevBytes) / CpuCostUs;
    CpuRate = Alpha * Observed + (1.0 - Alpha) * CpuRate;
    if (BatchUsCpu)
      BatchUsCpu->observe(CpuElapsedUs);
  }

  Stats.Fraction = Fraction;
  Stats.DeviceSlices = static_cast<unsigned>(DevRecords);
  Stats.CpuRateBytesPerUs = CpuRate;
  Stats.GpuRateBytesPerUs = GpuRate;
  ++Stats.Batches;
  Stats.GpuChunks += Cut;
  Stats.CpuChunks += Chunks.size() - Cut;
  if (SplitCpuGauge) {
    SplitCpuGauge->set(1.0 - Fraction);
    SplitGpuGauge->set(Fraction);
  }
}
