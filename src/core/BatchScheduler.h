//===----------------------------------------------------------------------===//
///
/// \file
/// The inter-batch software-pipelining scheduler — the modelled-time
/// realisation of the paper's Fig. 1 overlap. The functional pipeline
/// still executes batches strictly in order on the host (results are
/// bit-exact at every depth, recipe order and bin-drain order
/// included); what this scheduler changes is *when* the charged time
/// lands on the dependency-aware timeline of sim/ResourceLedger:
///
///   batch N    : SSD destage            (SSD command queue)
///   batch N+1  : GPU compression        (H2D -> kernel -> D2H, with
///                                        double-buffered staging)
///   batch N+2  : CPU chunk/hash/dedup   (CPU pool lane)
///
/// all advance concurrently once `PipelineConfig::PipelineDepth`
/// batches are in flight. Depth 1 degenerates to today's serial
/// behaviour: batch N+1 is only admitted when batch N's destage has
/// completed, so the timeline is the full dependency chain.
///
/// Mechanics: the pipeline brackets each functional stage with
/// beginStage/endStage. The bracket snapshots the ledger's busy
/// clocks and arms the GPU/SSD submission logs; at endStage the busy
/// deltas plus the op logs are *replayed* onto the per-lane timeline
/// from the stage's input-ready time — CPU work as one pool-wide task
/// (duration / thread count), GPU traffic as the async queue it was
/// submitted as (H2D chained into the kernel it feeds, D2H after the
/// kernel, uploads gated by the two staging slots), SSD commands as
/// queue occupancies. Because the replay schedules exactly what was
/// charged, per-lane scheduled totals equal per-lane busy totals at
/// every depth, and deepening the window can only relax ready
/// constraints — wall time is monotone non-increasing in depth.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_BATCHSCHEDULER_H
#define PADRE_CORE_BATCHSCHEDULER_H

#include "gpu/GpuDevice.h"
#include "obs/Obs.h"
#include "sim/ResourceLedger.h"
#include "ssd/SsdModel.h"

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

namespace padre {

/// Per-lane occupancy/overlap totals of the scheduled timeline, for
/// the report's overlap summary (all in modelled seconds; CPU already
/// normalized by the pool width).
struct ScheduleOverlap {
  double BusySec[ResourceCount] = {};
  /// Portion of the lane's busy time during which at least one other
  /// lane was also busy — time the lane was "hidden" behind the rest
  /// of the pipeline.
  double HiddenSec[ResourceCount] = {};
};

/// Threads per-batch stage records through dedup/compress/destage.
/// One instance per pipeline; not thread-safe (driven by the pipeline
/// thread, which is the only thread that issues device traffic).
class BatchScheduler {
public:
  /// The write path's stages, in dependency order. Dedup covers the
  /// whole CPU front half (request/chunking costs, hashing, index
  /// probes, verify-on-dedup) plus any dedup GPU offload and mid-batch
  /// bin-drain log writes; Drain is the finish()-time bin-buffer
  /// flush.
  enum class Stage { Dedup, Compress, Destage, Drain };

  /// \p Depth is clamped to >= 1. \p Device may be null (CPU-only
  /// platform/mode). All referees must outlive the scheduler.
  BatchScheduler(ResourceLedger &Ledger, unsigned CpuThreads,
                 std::size_t Depth, GpuDevice *Device, SsdModel &Ssd,
                 obs::TraceRecorder *Trace);

  /// Admits the next batch into the window: its first stage may not
  /// start before the batch Depth positions back has fully destaged.
  void beginBatch();

  /// Brackets one functional stage of the current batch. endStage
  /// replays everything the stage charged onto the timeline; the
  /// compress stage closes with endStageCompressSliced instead.
  void beginStage(Stage S);
  void endStage(Stage S);

  /// One backend's share of a split compress stage: the op chain it
  /// submitted to *its* device (empty for a CPU slice), the CPU pool
  /// time it charged, and the timeline lanes to replay the chain on —
  /// Resource::Gpu/Pcie for device 0, aux lane ids
  /// (ResourceLedger::addTimelineLane) for extra devices. The replay
  /// fills DoneUs/ElapsedUs so the splitter's tuner can observe the
  /// slice's modelled rate.
  struct CompressSlice {
    unsigned GpuLane = static_cast<unsigned>(Resource::Gpu);
    unsigned PcieLane = static_cast<unsigned>(Resource::Pcie);
    GpuStagingModel *Staging = nullptr; ///< per-device slots; null = CPU
    std::vector<GpuOp> Ops;
    double CpuUs = 0.0; ///< pool busy charged while this slice ran
    // Filled by endStageCompressSliced:
    double DoneUs = 0.0;    ///< slice completion time on the timeline
    double ElapsedUs = 0.0; ///< DoneUs minus the stage's ready time
  };

  /// Closes the compress stage the splitter partitioned across
  /// backends: every slice becomes ready at dedup-done simultaneously
  /// (HPDR's domain decomposition — the domains are independent) and
  /// replays onto its own device lanes; the stage completes when the
  /// last slice does. A CPU slice is one backfilled pool task; a
  /// device slice is its staged H2D->kernel->D2H chain with the refine
  /// pass after it. No slices (a raw or compression-off batch) closes
  /// the stage at dedup-done. Residual charges the slices do not
  /// attribute are still replayed losslessly, so per-resource
  /// scheduled totals equal busy totals at every split point.
  void endStageCompressSliced(std::span<CompressSlice> Slices);

  /// Retires the current batch from the window once its destage
  /// completion time is known.
  void endBatch();

  /// Places a journal group-commit write of \p DurUs on the SSD lane,
  /// ready no earlier than the most recently retired batch's destage
  /// completion — the timeline realisation of the write-ahead
  /// ordering: data destage, then journal commit, then ack
  /// (src/journal). Returns the commit's completion time (µs).
  double noteCommit(double DurUs, const char *SpanName);

  /// Timeline wall time so far (µs) — every admitted batch fully
  /// destaged and drained.
  double wallMicros() const { return Ledger.timelineWallMicros(); }

  std::size_t depth() const { return Depth; }

  /// Batches admitted but not yet retired (0 after every write()
  /// returns — the window has drained).
  std::size_t inFlight() const { return Admitted - Retired; }

  /// Batches retired since construction or reset().
  std::size_t batchesScheduled() const { return Retired; }

  /// Per-lane scheduled busy/overlap totals (see ScheduleOverlap).
  ScheduleOverlap overlap() const;

  /// Forgets the timeline (window, intervals, staging slots) in
  /// lockstep with ResourceLedger::reset — the pipeline's
  /// resetMeasurement calls this.
  void reset();

private:
  /// Replays the GPU op log captured by the current stage (dedup
  /// offload, bin-table drains): H2D on the PCIe lane, the kernel it
  /// feeds on the GPU lane, D2H back on PCIe — no staging slots, those
  /// belong to compression. Returns the completion time of the last
  /// replayed op (\p ReadyUs when the log is empty) and accumulates the
  /// per-lane time it scheduled.
  double replayGpuOps(double ReadyUs, double &PcieUsedUs, double &GpuUsedUs);

  /// The lane-general core of replayGpuOps: replays \p Ops onto
  /// \p GpuLane / \p PcieLane (resource or aux device lanes), uploads
  /// gated by \p Staging when non-null.
  double replayOps(std::span<const GpuOp> Ops, double ReadyUs,
                   GpuStagingModel *Staging, unsigned GpuLane,
                   unsigned PcieLane, double &PcieUsedUs,
                   double &GpuUsedUs);

  /// Schedules \p DurUs on \p Lane at \p ReadyUs, records the interval
  /// for the overlap summary (and a sched-category span when tracing).
  /// Returns the completion time. \p Backfill is set for CPU-pool
  /// tasks only: the pool may run a ready batch inside an idle gap
  /// while an earlier-issued stage still waits on the GPU; device
  /// queues keep strict FIFO order.
  double schedule(Resource Lane, double ReadyUs, double DurUs,
                  const char *SpanName, bool Backfill = false);

  /// schedule() by lane id; aux device lanes record their intervals
  /// (and spans) under the resource they mirror, so the overlap
  /// summary and scheduled-equals-busy invariant stay per-resource.
  double scheduleLane(unsigned LaneId, double ReadyUs, double DurUs,
                      const char *SpanName, bool Backfill = false);

  ResourceLedger &Ledger;
  const unsigned CpuThreads;
  const std::size_t Depth;
  GpuDevice *Device;
  SsdModel &Ssd;
  obs::TraceRecorder *Trace;

  // Stage capture (valid between beginStage and endStage).
  double BusyBeginUs[ResourceCount] = {};
  std::vector<GpuOp> GpuOps;
  std::vector<double> SsdOps;

  // Current batch's stage-completion timestamps.
  double BatchReadyUs = 0.0;
  double DedupDoneUs = 0.0;
  double CompressDoneUs = 0.0;
  double DestageDoneUs = 0.0;

  /// Destage completion times of the last <= Depth retired batches;
  /// the front is the admission gate for the next batch once the
  /// window is full.
  std::deque<double> Window;
  std::size_t Admitted = 0;
  std::size_t Retired = 0;

  /// Scheduled intervals per lane (monotone by construction — the lane
  /// clock only moves forward), feeding the overlap summary.
  std::vector<LaneInterval> Intervals[ResourceCount];
};

} // namespace padre

#endif // PADRE_CORE_BATCHSCHEDULER_H
