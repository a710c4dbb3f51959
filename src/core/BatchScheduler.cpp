//===----------------------------------------------------------------------===//
///
/// \file
/// Batch scheduler implementation: stage capture and timeline replay.
///
//===----------------------------------------------------------------------===//

#include "core/BatchScheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace padre;

namespace {

/// Durations below the ledger's nanosecond resolution are "this stage
/// charged nothing here" — skip the timeline call entirely so a stage
/// that never touched a lane leaves its clock alone.
constexpr double EpsilonUs = 1e-3;

} // namespace

BatchScheduler::BatchScheduler(ResourceLedger &Ledger, unsigned CpuThreads,
                               std::size_t Depth, GpuDevice *Device,
                               SsdModel &Ssd, obs::TraceRecorder *Trace)
    : Ledger(Ledger), CpuThreads(CpuThreads),
      Depth(std::max<std::size_t>(1, Depth)), Device(Device), Ssd(Ssd),
      Trace(Trace) {
  assert(CpuThreads > 0 && "CPU pool needs at least one thread");
}

double BatchScheduler::schedule(Resource Lane, double ReadyUs, double DurUs,
                                const char *SpanName, bool Backfill) {
  return scheduleLane(static_cast<unsigned>(Lane), ReadyUs, DurUs, SpanName,
                      Backfill);
}

double BatchScheduler::scheduleLane(unsigned LaneId, double ReadyUs,
                                    double DurUs, const char *SpanName,
                                    bool Backfill) {
  if (DurUs < EpsilonUs)
    return ReadyUs;
  const Resource Mirror = LaneId < ResourceCount
                              ? static_cast<Resource>(LaneId)
                              : Ledger.laneMirror(LaneId);
  const LaneInterval I =
      Ledger.scheduleLaneMicros(LaneId, ReadyUs, DurUs, Backfill);
  Intervals[static_cast<unsigned>(Mirror)].push_back(I);
  if (Trace)
    Trace->record(SpanName, obs::CategorySched, Mirror, I.StartUs,
                  I.EndUs - I.StartUs);
  return I.EndUs;
}

void BatchScheduler::beginBatch() {
  assert(Admitted == Retired && "Previous batch still open");
  ++Admitted;
  // Admission: with Depth batches already in flight, batch N may not
  // start before batch N-Depth has fully destaged. Depth 1 therefore
  // reproduces the serial pipeline exactly.
  if (Window.size() >= Depth) {
    BatchReadyUs = Window.front();
    Window.pop_front();
  } else {
    BatchReadyUs = 0.0;
  }
  DedupDoneUs = CompressDoneUs = DestageDoneUs = BatchReadyUs;
}

void BatchScheduler::beginStage(Stage) {
  for (unsigned R = 0; R < ResourceCount; ++R)
    BusyBeginUs[R] = Ledger.busyMicros(static_cast<Resource>(R));
  GpuOps.clear();
  SsdOps.clear();
  if (Device)
    Device->setOpLog(&GpuOps);
  Ssd.setOpLog(&SsdOps);
}

double BatchScheduler::replayGpuOps(double ReadyUs, double &PcieUsedUs,
                                    double &GpuUsedUs) {
  return replayOps(GpuOps, ReadyUs, /*Staging=*/nullptr,
                   static_cast<unsigned>(Resource::Gpu),
                   static_cast<unsigned>(Resource::Pcie), PcieUsedUs,
                   GpuUsedUs);
}

double BatchScheduler::replayOps(std::span<const GpuOp> Ops, double ReadyUs,
                                 GpuStagingModel *Staging, unsigned GpuLane,
                                 unsigned PcieLane, double &PcieUsedUs,
                                 double &GpuUsedUs) {
  double LastH2dEndUs = ReadyUs;
  double LastKernelEndUs = ReadyUs;
  double LastEndUs = ReadyUs;
  for (const GpuOp &Op : Ops) {
    double EndUs = ReadyUs;
    switch (Op.Op) {
    case GpuOp::Kind::H2d: {
      double StartReadyUs = ReadyUs;
      if (Staging) {
        // Uploads for sub-batch N+2 wait for the kernel of sub-batch N
        // to free its staging slot; the PCIe lane clock already keeps
        // uploads themselves FIFO.
        if (Staging->inFlight() >= GpuStagingModel::SlotCount)
          Staging->releaseOldest(LastKernelEndUs);
        StartReadyUs = std::fmax(ReadyUs, Staging->acquireSlot(ReadyUs));
      }
      EndUs = scheduleLane(PcieLane, StartReadyUs, Op.Micros, "pipe:h2d");
      LastH2dEndUs = EndUs;
      PcieUsedUs += Op.Micros;
      break;
    }
    case GpuOp::Kind::Kernel: {
      EndUs = scheduleLane(GpuLane, LastH2dEndUs, Op.Micros,
                           "pipe:kernel");
      LastKernelEndUs = EndUs;
      if (Staging)
        Staging->releaseOldest(EndUs);
      GpuUsedUs += Op.Micros;
      break;
    }
    case GpuOp::Kind::D2h: {
      EndUs = scheduleLane(PcieLane, LastKernelEndUs, Op.Micros,
                           "pipe:d2h");
      PcieUsedUs += Op.Micros;
      break;
    }
    }
    LastEndUs = std::fmax(LastEndUs, EndUs);
  }
  return LastEndUs;
}

void BatchScheduler::endStageCompressSliced(std::span<CompressSlice> Slices) {
  if (Device)
    Device->setOpLog(nullptr);
  Ssd.setOpLog(nullptr);

  double DeltaUs[ResourceCount];
  for (unsigned R = 0; R < ResourceCount; ++R)
    DeltaUs[R] = std::fmax(
        0.0, Ledger.busyMicros(static_cast<Resource>(R)) - BusyBeginUs[R]);

  const double ReadyUs = DedupDoneUs;
  double DoneUs = ReadyUs;
  double GpuOpsUs = 0.0, PcieOpsUs = 0.0, CpuSlicesUs = 0.0;
  for (CompressSlice &Slice : Slices) {
    const double GpuDoneUs =
        replayOps(Slice.Ops, ReadyUs, Slice.Staging, Slice.GpuLane,
                  Slice.PcieLane, PcieOpsUs, GpuOpsUs);
    // A device slice's CPU time is the refine pass over the kernels'
    // results (after the chain); a CPU slice's is the compression
    // itself (ready at dedup-done like every other domain).
    const double CpuReadyUs = Slice.Ops.empty() ? ReadyUs : GpuDoneUs;
    const double CpuDoneUs =
        schedule(Resource::CpuPool, CpuReadyUs, Slice.CpuUs / CpuThreads,
                 "pipe:compress", /*Backfill=*/true);
    CpuSlicesUs += Slice.CpuUs;
    Slice.DoneUs = std::fmax(ReadyUs, std::fmax(GpuDoneUs, CpuDoneUs));
    Slice.ElapsedUs = Slice.DoneUs - ReadyUs;
    DoneUs = std::fmax(DoneUs, Slice.DoneUs);
  }
  CompressDoneUs = DoneUs;

  // Lossless residuals: anything the slices did not attribute (there
  // should be nothing) still lands on the timeline.
  const double CpuResidualUs =
      DeltaUs[static_cast<unsigned>(Resource::CpuPool)] - CpuSlicesUs;
  if (CpuResidualUs > EpsilonUs)
    schedule(Resource::CpuPool, ReadyUs, CpuResidualUs / CpuThreads,
             "pipe:compress", /*Backfill=*/true);
  const double GpuResidualUs =
      DeltaUs[static_cast<unsigned>(Resource::Gpu)] - GpuOpsUs;
  if (GpuResidualUs > EpsilonUs)
    schedule(Resource::Gpu, BatchReadyUs, GpuResidualUs, "pipe:gpu-misc");
  const double PcieResidualUs =
      DeltaUs[static_cast<unsigned>(Resource::Pcie)] - PcieOpsUs;
  if (PcieResidualUs > EpsilonUs)
    schedule(Resource::Pcie, BatchReadyUs, PcieResidualUs, "pipe:dma-misc");
  double SsdOpsUs = 0.0;
  for (const double Op : SsdOps) {
    schedule(Resource::Ssd, ReadyUs, Op, "pipe:log-write");
    SsdOpsUs += Op;
  }
  const double SsdResidualUs =
      DeltaUs[static_cast<unsigned>(Resource::Ssd)] - SsdOpsUs;
  if (SsdResidualUs > EpsilonUs)
    schedule(Resource::Ssd, BatchReadyUs, SsdResidualUs, "pipe:io-misc");
  const double LockResidualUs =
      DeltaUs[static_cast<unsigned>(Resource::IndexLock)];
  if (LockResidualUs > EpsilonUs)
    schedule(Resource::IndexLock, ReadyUs, LockResidualUs,
             "pipe:index-lock");
}

void BatchScheduler::endStage(Stage S) {
  if (Device)
    Device->setOpLog(nullptr);
  Ssd.setOpLog(nullptr);

  double DeltaUs[ResourceCount];
  for (unsigned R = 0; R < ResourceCount; ++R)
    DeltaUs[R] = std::fmax(
        0.0, Ledger.busyMicros(static_cast<Resource>(R)) - BusyBeginUs[R]);

  // The op logs decompose the GPU/PCIe/SSD deltas; whatever they do
  // not cover (there should be nothing, but the replay must never
  // lose charged time) is scheduled as one lump at the stage's ready
  // time so scheduled totals always equal busy totals.
  double GpuOpsUs = 0.0, PcieOpsUs = 0.0, SsdOpsUs = 0.0;
  for (const double Op : SsdOps)
    SsdOpsUs += Op;

  switch (S) {
  case Stage::Dedup: {
    const double ReadyUs = BatchReadyUs;
    double DoneUs = ReadyUs;
    // The whole CPU front half — request/chunking overhead, hashing,
    // index probes, verify-on-dedup — runs pool-wide.
    DoneUs = std::fmax(DoneUs, schedule(Resource::CpuPool, ReadyUs,
                                        DeltaUs[static_cast<unsigned>(
                                            Resource::CpuPool)] /
                                            CpuThreads,
                                        "pipe:dedup", /*Backfill=*/true));
    DoneUs = std::fmax(DoneUs, schedule(Resource::IndexLock, ReadyUs,
                                        DeltaUs[static_cast<unsigned>(
                                            Resource::IndexLock)],
                                        "pipe:index-lock"));
    // Dedup GPU offload (gpu-dedup/gpu-both): sub-batch chains of
    // H2D -> indexing kernel -> D2H, no compression staging involved.
    DoneUs = std::fmax(DoneUs, replayGpuOps(ReadyUs, PcieOpsUs, GpuOpsUs));
    // Mid-batch bin drains append to the sequential log: queued on the
    // SSD lane in issue order (before any later destage — lane FIFO
    // preserves the drain-before-destage order), but they do not gate
    // the compress stage.
    for (const double Op : SsdOps)
      schedule(Resource::Ssd, ReadyUs, Op, "pipe:log-write");
    DedupDoneUs = DoneUs;
    break;
  }
  case Stage::Compress:
    assert(false && "The compress stage closes with endStageCompressSliced");
    break;
  case Stage::Destage: {
    const double ReadyUs = CompressDoneUs;
    double DoneUs = ReadyUs;
    for (const double Op : SsdOps)
      DoneUs = std::fmax(DoneUs,
                         schedule(Resource::Ssd, ReadyUs, Op, "pipe:destage"));
    // Residual CPU (store bookkeeping charges nothing today, but stay
    // lossless if that changes).
    DoneUs = std::fmax(DoneUs, schedule(Resource::CpuPool, ReadyUs,
                                        DeltaUs[static_cast<unsigned>(
                                            Resource::CpuPool)] /
                                            CpuThreads,
                                        "pipe:destage-cpu",
                                        /*Backfill=*/true));
    DestageDoneUs = DoneUs;
    break;
  }
  case Stage::Drain: {
    // End-of-run bin-buffer flush: ordered after everything already on
    // the lanes (ready=0 defers to the lane clocks, which is exactly
    // "after every queued command").
    schedule(Resource::CpuPool, 0.0,
             DeltaUs[static_cast<unsigned>(Resource::CpuPool)] / CpuThreads,
             "pipe:drain");
    replayGpuOps(0.0, PcieOpsUs, GpuOpsUs);
    for (const double Op : SsdOps)
      schedule(Resource::Ssd, 0.0, Op, "pipe:log-write");
    break;
  }
  }

  // Lossless-replay residuals (clamped at zero: obs spans and op logs
  // can cover slightly more than the delta only through fp rounding).
  const double GpuResidualUs =
      DeltaUs[static_cast<unsigned>(Resource::Gpu)] - GpuOpsUs;
  if (GpuResidualUs > EpsilonUs)
    schedule(Resource::Gpu, BatchReadyUs, GpuResidualUs, "pipe:gpu-misc");
  const double PcieResidualUs =
      DeltaUs[static_cast<unsigned>(Resource::Pcie)] - PcieOpsUs;
  if (PcieResidualUs > EpsilonUs)
    schedule(Resource::Pcie, BatchReadyUs, PcieResidualUs, "pipe:dma-misc");
  const double SsdResidualUs =
      DeltaUs[static_cast<unsigned>(Resource::Ssd)] - SsdOpsUs;
  if (SsdResidualUs > EpsilonUs)
    schedule(Resource::Ssd, BatchReadyUs, SsdResidualUs, "pipe:io-misc");
}

void BatchScheduler::endBatch() {
  assert(Admitted == Retired + 1 && "endBatch without beginBatch");
  ++Retired;
  Window.push_back(DestageDoneUs);
}

double BatchScheduler::noteCommit(double DurUs, const char *SpanName) {
  // The commit may not start before the batch it covers has fully
  // destaged; the SSD lane's FIFO clock then orders it after every
  // queued destage command anyway.
  const double ReadyUs = Window.empty() ? DestageDoneUs : Window.back();
  return schedule(Resource::Ssd, ReadyUs, DurUs, SpanName);
}

ScheduleOverlap BatchScheduler::overlap() const {
  ScheduleOverlap Result;
  // Backfill places CPU intervals out of issue order; the sweeps below
  // need every lane sorted by start time.
  std::vector<LaneInterval> Sorted[ResourceCount];
  for (unsigned L = 0; L < ResourceCount; ++L) {
    Sorted[L] = Intervals[L];
    std::sort(Sorted[L].begin(), Sorted[L].end(),
              [](const LaneInterval &A, const LaneInterval &B) {
                return A.StartUs < B.StartUs;
              });
  }
  for (unsigned L = 0; L < ResourceCount; ++L) {
    double Busy = 0.0;
    for (const LaneInterval &I : Sorted[L])
      Busy += I.EndUs - I.StartUs;
    Result.BusySec[L] = Busy * 1e-6;

    // Merge every *other* lane's intervals, then measure how much of
    // this lane's occupancy they cover.
    std::vector<LaneInterval> Others;
    for (unsigned M = 0; M < ResourceCount; ++M) {
      if (M == L)
        continue;
      Others.insert(Others.end(), Sorted[M].begin(), Sorted[M].end());
    }
    std::sort(Others.begin(), Others.end(),
              [](const LaneInterval &A, const LaneInterval &B) {
                return A.StartUs < B.StartUs;
              });
    std::vector<LaneInterval> Merged;
    for (const LaneInterval &I : Others) {
      if (!Merged.empty() && I.StartUs <= Merged.back().EndUs)
        Merged.back().EndUs = std::fmax(Merged.back().EndUs, I.EndUs);
      else
        Merged.push_back(I);
    }
    double Hidden = 0.0;
    std::size_t Cursor = 0;
    for (const LaneInterval &I : Sorted[L]) {
      while (Cursor < Merged.size() && Merged[Cursor].EndUs <= I.StartUs)
        ++Cursor;
      for (std::size_t J = Cursor;
           J < Merged.size() && Merged[J].StartUs < I.EndUs; ++J)
        Hidden += std::fmax(0.0, std::fmin(I.EndUs, Merged[J].EndUs) -
                                     std::fmax(I.StartUs, Merged[J].StartUs));
    }
    Result.HiddenSec[L] = Hidden * 1e-6;
  }
  return Result;
}

void BatchScheduler::reset() {
  Window.clear();
  Admitted = Retired = 0;
  BatchReadyUs = DedupDoneUs = CompressDoneUs = DestageDoneUs = 0.0;
  GpuOps.clear();
  SsdOps.clear();
  for (auto &Lane : Intervals)
    Lane.clear();
  if (Device)
    Device->staging().reset();
}
