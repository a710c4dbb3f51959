//===----------------------------------------------------------------------===//
///
/// \file
/// The GPU device model — the substitution for the paper's Radeon
/// HD 7970 (see DESIGN.md §1). Kernels execute *functionally* on the
/// calling host thread so results are bit-exact, while the architectural
/// costs the paper's design reasons about are charged to the resource
/// ledger explicitly:
///
///   * fixed kernel-launch latency ("the inevitable time at which the
///     GPU kernel starts", §3.1(3)),
///   * host<->device transfers over the PCIe link (§3.1(2) first
///     architectural consideration),
///   * kernel execution time from the calibrated per-byte/per-entry
///     rates in sim/CostModel.h,
///   * a mixed-kernel occupancy penalty when both reduction operations
///     share the device (integration mode GpuBoth, §4(3)),
///   * a bounded device-memory arena (the GPU bin table must fit, which
///     is why it uses random replacement, §3.3).
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_GPU_GPUDEVICE_H
#define PADRE_GPU_GPUDEVICE_H

#include "fault/Status.h"
#include "obs/Obs.h"
#include "sim/CostModel.h"
#include "sim/ResourceLedger.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

namespace padre {

namespace fault {
class FaultInjector;
} // namespace fault

/// Kernel families tracked by the device (for reports and for the
/// mixed-kernel penalty).
enum class KernelFamily : unsigned {
  Indexing = 0,      ///< bin-table probe kernels (dedup offload)
  Hashing = 1,       ///< SHA-1 fingerprint kernels (dedup offload)
  Compression = 2,   ///< lane-parallel LZ kernels
  Decompression = 3, ///< lane-parallel LZ decode kernels (restore path)
};

inline constexpr unsigned KernelFamilyCount = 4;

/// Returns "indexing", "hashing", "compression" or "decompression".
const char *kernelFamilyName(KernelFamily Family);

/// One operation submitted to the device's async queue, in host
/// submission order. When the batch scheduler arms the log (setOpLog),
/// every DMA and kernel appends an entry; the scheduler then *replays*
/// the queue onto the dependency-aware timeline — H2D on the PCIe
/// lane, the kernel it feeds on the GPU lane, D2H back on PCIe — the
/// way an asynchronous stream would execute it, instead of the
/// charge-order serialization the busy accumulators imply.
struct GpuOp {
  enum class Kind : unsigned { H2d, Kernel, D2h };
  Kind Op = Kind::Kernel;
  /// Modelled time the operation charged (µs), fault stalls included.
  double Micros = 0.0;
};

/// Double-buffered device staging (modelled): two staging slots feed
/// the async queue, so the upload for sub-batch N+1 overlaps the
/// kernel consuming slot N, but a third upload must wait for the first
/// kernel to free its slot — the classic two-deep copy/compute
/// pipeline. Pure timeline bookkeeping in modelled µs, driven by the
/// batch scheduler's replay; not thread-safe (replay is
/// single-threaded).
class GpuStagingModel {
public:
  static constexpr unsigned SlotCount = 2;

  /// Earliest time an upload eligible at \p ReadyUs may start: the
  /// slot acquired is the least-recently freed one.
  double acquireSlot(double ReadyUs);

  /// Frees the oldest in-flight slot at \p KernelDoneUs (the kernel
  /// that consumed it has completed). No-op when nothing is in flight.
  void releaseOldest(double KernelDoneUs);

  /// Slots currently holding an upload whose kernel has not completed.
  unsigned inFlight() const { return Pending; }

  void reset();

private:
  double FreeUs[SlotCount] = {0.0, 0.0};
  unsigned Cursor = 0;  ///< next slot to acquire (ring order)
  unsigned Oldest = 0;  ///< next slot to release (ring order)
  unsigned Pending = 0; ///< acquired but not yet released
};

/// The modelled discrete GPU. Thread-safe: engines launch kernels from
/// multiple pool threads concurrently.
class GpuDevice {
public:
  /// \p Model supplies the calibrated GPU/PCIe constants; \p Ledger
  /// receives all charges. Both must outlive the device.
  GpuDevice(const CostModel &Model, ResourceLedger &Ledger);

  /// False if the platform has no GPU; all other calls are then invalid.
  bool present() const { return Model.Gpu.Present; }

  /// Device-memory capacity in bytes.
  std::uint64_t memoryCapacityBytes() const;

  /// Reserves \p Bytes of device memory. Returns false (and reserves
  /// nothing) if the arena would overflow.
  bool allocateMemory(std::uint64_t Bytes);

  /// Releases \p Bytes previously reserved.
  void releaseMemory(std::uint64_t Bytes);

  std::uint64_t memoryUsedBytes() const { return MemoryUsed.load(); }

  /// Charges a host-to-device DMA of \p Bytes to the PCIe link. With a
  /// fault injector attached, the transfer may deliver corrupt data:
  /// the time is still charged (the DMA ran; the arrival CRC failed)
  /// and a GpuDmaError status is returned for the caller's CPU
  /// fallback.
  fault::Status transferToDevice(std::size_t Bytes);

  /// Charges a device-to-host DMA of \p Bytes to the PCIe link. Same
  /// fault contract as transferToDevice.
  fault::Status transferFromDevice(std::size_t Bytes);

  /// Launches a kernel: runs \p Body functionally on the calling thread
  /// and charges launch latency plus \p ExecMicros of execution to the
  /// GPU resource (both scaled by the mixed-kernel penalty when mixed
  /// mode is enabled). Injected kernel faults skip \p Body (an ECC
  /// error's results are discarded; a hung kernel never finishes, and
  /// is charged the plan's hang timeout instead of its execution time)
  /// and return GpuKernelError — the caller re-runs the work on the
  /// CPU path.
  fault::Status launchKernel(KernelFamily Family, double ExecMicros,
                             const std::function<void()> &Body);

  /// Submits work to an already-resident *persistent* kernel: instead
  /// of the full LaunchUs, only \p DispatchUs (the work-queue doorbell
  /// — one mapped write plus the device-side dequeue) is charged ahead
  /// of \p ExecMicros. The caller owns residency tracking: the kernel
  /// must have been started earlier with launchKernel, and after any
  /// fault it must be considered evicted (relaunch before the next
  /// dispatch). Same fault contract as launchKernel otherwise.
  fault::Status dispatchResident(KernelFamily Family, double DispatchUs,
                                 double ExecMicros,
                                 const std::function<void()> &Body);

  /// Enables/disables the mixed-kernel occupancy penalty. Set by the
  /// pipeline when both reduction operations offload to the GPU.
  void setMixedMode(bool Mixed) { MixedMode.store(Mixed); }
  bool mixedMode() const { return MixedMode.load(); }

  /// Number of kernels launched for \p Family since construction.
  std::uint64_t launches(KernelFamily Family) const;

  /// Attaches observability sinks: per-family kernel spans and DMA
  /// spans (detail categories nested inside the pipeline stage spans)
  /// plus launch/byte counters. Call before any traffic; sinks must
  /// outlive the device.
  void setObs(const obs::ObsSinks &Obs);

  /// Arms (null detaches) the async submission log: every DMA and
  /// kernel appends one GpuOp in issue order. The caller owns the
  /// vector. Unsynchronized by design — arm it only around code that
  /// issues device traffic from a single thread (the pipeline thread;
  /// pool workers never touch the device).
  void setOpLog(std::vector<GpuOp> *Log) { OpLog = Log; }

  /// The device's staging-buffer timeline model (see GpuStagingModel).
  GpuStagingModel &staging() { return Staging; }

  /// Attaches a fault injector (null detaches; must outlive the
  /// device). Call before any traffic.
  void setFaultInjector(fault::FaultInjector *Injector) {
    Faults = Injector;
  }

  /// The cost model the device was built with.
  const CostModel &costModel() const { return Model; }

private:
  /// Shared body of launchKernel/dispatchResident: \p FixedUs is the
  /// pre-execution latency (LaunchUs or the doorbell).
  fault::Status submitKernel(KernelFamily Family, double FixedUs,
                             double ExecMicros,
                             const std::function<void()> &Body);

  CostModel Model;
  ResourceLedger &Ledger;
  fault::FaultInjector *Faults = nullptr;
  std::vector<GpuOp> *OpLog = nullptr;
  GpuStagingModel Staging;
  std::atomic<std::uint64_t> MemoryUsed{0};
  std::atomic<bool> MixedMode{false};
  std::atomic<std::uint64_t> LaunchCounts[KernelFamilyCount];
  // Observability (null = disabled). Counter pointers are cached at
  // setObs time so the hot path never touches the registry lock.
  obs::TraceRecorder *Trace = nullptr;
  obs::Counter *LaunchCounters[KernelFamilyCount] = {};
  obs::Counter *BytesH2d = nullptr;
  obs::Counter *BytesD2h = nullptr;
};

} // namespace padre

#endif // PADRE_GPU_GPUDEVICE_H
