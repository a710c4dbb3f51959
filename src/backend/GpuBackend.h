//===----------------------------------------------------------------------===//
///
/// \file
/// The GPU backend (§3.2(2)): chunks are batched to the device, each
/// chunk is compressed by multiple lanes (one v2 frame sub-block each,
/// compress/GpuLaneCompressor.h), and "the GPU's compression results
/// are not refined in GPU due to performance issues. Therefore, the
/// CPU must refine the results" — the refinement pass runs on the pool
/// after each kernel.
///
/// The backend drives N >= 1 modelled GPUs. Device 0 is the pipeline's
/// primary GpuDevice and replays on the Resource::Gpu / Resource::Pcie
/// lanes with its own double-buffered staging; devices 1..N-1 are
/// owned here, with their own staging slots and async queues, and
/// replay on aux timeline lanes (ResourceLedger::addTimelineLane) that
/// mirror Resource::Gpu/Pcie. Busy time stays on the shared
/// per-resource accumulators — charges are bit-identical across device
/// counts; only the scheduled timeline (and the capacity term of
/// makespanSeconds) fans out per device.
///
/// Work distribution is HPDR-style static round-robin over compression
/// sub-batches: sub-batch i goes to device i mod N. Unpipelined, each
/// device's sub-batches chain in one slice record on its own lanes;
/// pipelined, every sub-batch is its own record, so its refinement
/// replays right after its own kernel round trip.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_GPUBACKEND_H
#define PADRE_BACKEND_GPUBACKEND_H

#include "backend/ReductionBackend.h"
#include "gpu/GpuDevice.h"
#include "obs/Obs.h"
#include "util/ThreadPool.h"

#include <memory>

namespace padre {

namespace fault {
class FaultInjector;
} // namespace fault

namespace backend {

class GpuBackend final : public ReductionBackend {
public:
  /// \p Primary is the pipeline's device 0 (not owned; must outlive
  /// the backend). \p Devices >= 1 is the total device count; the
  /// extra devices are created here against the same model/ledger and
  /// inherit \p Primary's mixed-mode flag, \p Obs and \p Faults.
  GpuBackend(const CostModel &Model, ResourceLedger &Ledger,
             ThreadPool &Pool, GpuDevice &Primary,
             const CompressEngineConfig &Config,
             const obs::ObsSinks &Obs = obs::ObsSinks(),
             fault::FaultInjector *Faults = nullptr, unsigned Devices = 1);

  const BackendCaps &caps() const override { return Caps; }
  double quoteCompressUs(std::uint64_t Bytes,
                         std::size_t Chunks) const override;
  void executeSlice(std::span<const ChunkView> Chunks, std::size_t Begin,
                    std::size_t End, std::vector<CompressedChunk> &Out,
                    std::vector<BatchScheduler::CompressSlice> &Slices,
                    bool Pipelined) override;
  std::uint64_t rawFallbacks() const override { return RawFallbacks; }
  std::uint64_t deviceFallbacks() const override { return DeviceFallbacks; }
  void resetTimelineState() override;

  unsigned deviceCount() const {
    return static_cast<unsigned>(Units.size());
  }

private:
  /// One modelled device and its timeline lanes.
  struct Unit {
    GpuDevice *Device = nullptr; ///< Units[0] aliases the primary
    std::unique_ptr<GpuDevice> Owned;
    unsigned GpuLane = 0;
    unsigned PcieLane = 0;
  };

  /// Compresses Chunks[Begin, End) — at most one sub-batch — on \p U:
  /// H2D, the lane kernel, D2H, then CPU refinement across the pool.
  /// A device fault re-runs the lanes on the pool instead (degraded
  /// mode), which writes the very same blocks.
  void compressSubBatch(Unit &U, std::span<const ChunkView> Chunks,
                        std::size_t Begin, std::size_t End,
                        std::vector<CompressedChunk> &Out);

  /// Runs the sub-batches starting at First, First + Step, ... below
  /// \p End on \p U with its op log armed, and appends one slice
  /// record carrying the captured chain and the pool time charged.
  void runRecord(Unit &U, std::span<const ChunkView> Chunks,
                 std::size_t First, std::size_t End, std::size_t Step,
                 std::vector<CompressedChunk> &Out,
                 std::vector<BatchScheduler::CompressSlice> &Slices);

  CostModel Model;
  ResourceLedger &Ledger;
  ThreadPool &Pool;
  const std::size_t SubBatch; ///< chunks per kernel round trip
  GpuLaneCompressor LaneCompressor;
  std::vector<Unit> Units;
  /// Per-sub-batch device results, reused across calls.
  std::vector<LaneOutputs> DeviceResults;
  /// Per-chunk refinement µs of the current sub-batch.
  std::vector<double> RefineUs;
  BackendCaps Caps;
  std::uint64_t RawFallbacks = 0;
  std::uint64_t DeviceFallbacks = 0;
  // Observability (null = disabled), cached at construction.
  obs::Counter *RawFallbackCounter = nullptr;
  obs::Counter *DeviceFallbackCounter = nullptr;
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_GPUBACKEND_H
