//===----------------------------------------------------------------------===//
///
/// \file
/// The resource ledger: modelled busy-time accounting for the four
/// hardware resources of the paper's platform (CPU pool, GPU, PCIe link,
/// SSD).
///
/// Host wall-clock time cannot express the paper's parallel hardware:
/// the host has its own core count, and the modelled GPU's kernels run
/// functionally on host threads. Instead every operation executes *functionally* on host threads and *charges*
/// modelled busy time to this ledger using the calibrated constants in
/// sim/CostModel.h. Steady-state pipeline throughput is then
///
///   bytes processed / makespan,   makespan = max_r busy(r) / capacity(r)
///
/// i.e. the bottleneck resource determines throughput, assuming the
/// pipeline overlaps stages perfectly — the same first-order model the
/// paper's own throughput numbers reflect (see DESIGN.md §1).
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_SIM_RESOURCELEDGER_H
#define PADRE_SIM_RESOURCELEDGER_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace padre {

/// The modelled hardware resources.
enum class Resource : unsigned {
  CpuPool = 0, ///< all CPU hardware threads together (capacity = threads)
  Gpu = 1,     ///< the discrete GPU device (capacity = 1 device)
  Pcie = 2,    ///< the host<->device link (capacity = 1 link)
  Ssd = 3,     ///< the storage device (capacity = 1 device)
  /// A serialization point (capacity = 1): work charged here executes
  /// on the CPU *and* holds a global lock — used by the P-Dedupe-style
  /// serial-indexing baseline (bench_baselines).
  IndexLock = 4,
};

inline constexpr unsigned ResourceCount = 5;

/// Returns a human-readable resource name ("cpu", "gpu", "pcie", "ssd").
const char *resourceName(Resource R);

/// Bitmask helpers for selecting resources in makespan queries.
inline constexpr unsigned resourceBit(Resource R) {
  return 1u << static_cast<unsigned>(R);
}
inline constexpr unsigned AllResources =
    resourceBit(Resource::CpuPool) | resourceBit(Resource::Gpu) |
    resourceBit(Resource::Pcie) | resourceBit(Resource::Ssd) |
    resourceBit(Resource::IndexLock);
/// The compute-side resources: what the paper's "data reduction
/// throughput" measures (the SSD is reported as a separate baseline).
inline constexpr unsigned ComputeResources =
    resourceBit(Resource::CpuPool) | resourceBit(Resource::Gpu) |
    resourceBit(Resource::Pcie) | resourceBit(Resource::IndexLock);

/// One occupancy interval on a lane's scheduled timeline (modelled µs).
struct LaneInterval {
  double StartUs = 0.0;
  double EndUs = 0.0;
};

/// Thread-safe accumulator of modelled busy time per resource, plus a
/// few event counters used by the benchmark reports.
///
/// Besides the unconditional busy accumulators (whose sum is
/// order-independent and therefore identical for any stage
/// interleaving), the ledger keeps a *dependency-aware timeline*: one
/// free-clock per lane that `scheduleMicros` advances to
/// `max(lane free, inputs ready) + duration`. The batch scheduler
/// (core/BatchScheduler.h) replays each stage's charges onto this
/// timeline, so `timelineWallMicros` is the wall time of the
/// dependency-constrained schedule — serial at PipelineDepth=1, the
/// paper's Fig. 1 overlap at deeper windows — while the busy totals
/// stay depth-invariant.
class ResourceLedger {
public:
  ResourceLedger() { reset(); }

  /// Zeroes all accumulated time and counters (timeline included).
  void reset();

  /// Adds \p Micros microseconds of busy time to \p R. Negative or
  /// non-finite charges are invalid.
  void chargeMicros(Resource R, double Micros);

  /// Charges per-item costs \p ItemUs to \p R as the modelled pool of
  /// \p ModelThreads threads would book them: ceil(n / min(T, n)) items
  /// per slice, each slice summed in item order and charged once. The
  /// total depends on the items and T only, never on the host pool that
  /// ran the work.
  void chargeSliced(Resource R, std::span<const double> ItemUs,
                    unsigned ModelThreads);

  /// Accumulated busy time of \p R in seconds.
  double busySeconds(Resource R) const;

  /// Accumulated busy time of \p R in microseconds. This is the span
  /// clock of the observability layer: obs::LaneSpan/StageSpan snapshot
  /// it around charge sites (see src/obs/TraceRecorder.h).
  double busyMicros(Resource R) const;

  /// Bottleneck makespan over the resources selected by \p Mask:
  /// max(busy(r) / capacity(r)). CPU capacity is \p CpuThreads parallel
  /// hardware threads; GPU capacity is \p GpuDevices modelled devices
  /// (the multi-GPU backend shares one busy accumulator across
  /// devices, so capacity — not busy — carries the device count);
  /// other resources have capacity one.
  double makespanSeconds(unsigned CpuThreads,
                         unsigned Mask = AllResources,
                         unsigned GpuDevices = 1) const;

  /// The resource that determines `makespanSeconds` for \p Mask.
  Resource bottleneck(unsigned CpuThreads,
                      unsigned Mask = AllResources,
                      unsigned GpuDevices = 1) const;

  /// Schedules \p DurUs of occupancy on lane \p R no earlier than
  /// \p ReadyUs (when the work's inputs exist): the lane's free clock
  /// advances to `max(free, ReadyUs) + DurUs` and the occupied
  /// interval is returned. Lanes are FIFO — successive calls on one
  /// lane never reorder — which is exactly a device queue (SSD command
  /// queue, GPU stream, DMA engine). CPU durations should be divided
  /// by the pool's thread count before scheduling (the lane models the
  /// pool at full width).
  ///
  /// With \p Backfill the task may instead be placed in the earliest
  /// idle gap left on the lane that both fits \p DurUs and starts no
  /// earlier than \p ReadyUs. Device queues must not use this (command
  /// order is part of their contract), but the CPU pool is a work-
  /// stealing scheduler, not a queue: a later-submitted batch whose
  /// inputs are ready runs while an earlier-submitted stage still
  /// waits on the GPU. This is what lets batch N+2's dedup proceed
  /// under batch N+1's kernel (the Fig. 1 overlap across batches).
  LaneInterval scheduleMicros(Resource R, double ReadyUs, double DurUs,
                              bool Backfill = false);

  /// Registers an extra timeline lane mirroring \p Mirror — a second
  /// device queue of the same resource kind (GPU 1's stream, its PCIe
  /// link, …). Returns the new lane id (>= ResourceCount), stable for
  /// the ledger's lifetime: resetTimeline() rewinds the lane's clock
  /// but keeps the registration. Busy time stays on the shared
  /// per-Resource accumulators — only the *scheduled timeline* fans
  /// out per device — which is what keeps charges bit-identical
  /// across device counts while the wall clock scales.
  unsigned addTimelineLane(Resource Mirror);

  /// The resource an aux lane mirrors (identity for ids < ResourceCount).
  Resource laneMirror(unsigned LaneId) const;

  /// scheduleMicros by lane id: ids < ResourceCount address the
  /// resource lanes, ids from addTimelineLane address aux lanes.
  LaneInterval scheduleLaneMicros(unsigned LaneId, double ReadyUs,
                                  double DurUs, bool Backfill = false);

  /// Total duration scheduled onto lane \p R so far (µs), aux lanes
  /// mirroring \p R included — so the scheduled-equals-busy invariant
  /// holds per *resource* no matter how many device lanes fan it out.
  double laneScheduledMicros(Resource R) const;

  /// Wall time of the scheduled timeline: the latest lane free clock
  /// (µs). Zero until something is scheduled.
  double timelineWallMicros() const;

  /// Rewinds every lane free clock (and scheduled total) to zero
  /// without touching busy time. reset() includes this.
  void resetTimeline();

  /// Event counters (benchmark reporting only).
  void countKernelLaunch() { KernelLaunches.fetch_add(1); }
  void countHostToDevice(std::uint64_t Bytes) { BytesToDevice += Bytes; }
  void countDeviceToHost(std::uint64_t Bytes) { BytesFromDevice += Bytes; }

  std::uint64_t kernelLaunches() const { return KernelLaunches.load(); }
  std::uint64_t bytesToDevice() const { return BytesToDevice.load(); }
  std::uint64_t bytesFromDevice() const { return BytesFromDevice.load(); }

  /// One-line report "cpu=…s gpu=…s pcie=…s ssd=…s launches=…".
  std::string summary(unsigned CpuThreads) const;

private:
  // Busy time is stored as integer nanoseconds so charges can use plain
  // fetch_add (no atomic<double> CAS loops).
  std::atomic<std::uint64_t> BusyNanos[ResourceCount];
  std::atomic<std::uint64_t> KernelLaunches;
  std::atomic<std::uint64_t> BytesToDevice;
  std::atomic<std::uint64_t> BytesFromDevice;
  // Timeline state (mutex-guarded: scheduling is a per-stage replay,
  // not a hot path). One entry per timeline lane: the first
  // ResourceCount entries are the resources themselves, the rest are
  // aux device lanes from addTimelineLane.
  mutable std::mutex TimelineMutex;
  struct TimelineLane {
    Resource Mirror = Resource::CpuPool;
    double FreeUs = 0.0;
    double SchedUs = 0.0;
    /// Idle gaps left behind whenever a task started past the lane's
    /// free clock, sorted by start; backfill consumes them.
    std::vector<LaneInterval> GapsUs;
  };
  std::vector<TimelineLane> Lanes;
  LaneInterval scheduleLocked(unsigned LaneId, double ReadyUs,
                              double DurUs, bool Backfill);
};

} // namespace padre

#endif // PADRE_SIM_RESOURCELEDGER_H
