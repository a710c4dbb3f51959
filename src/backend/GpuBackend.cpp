//===----------------------------------------------------------------------===//
///
/// \file
/// GPU backend implementation.
///
//===----------------------------------------------------------------------===//

#include "backend/GpuBackend.h"

#include "fault/FaultInjector.h"

#include <algorithm>
#include <cassert>

using namespace padre;
using namespace padre::backend;

/// The static quote for one device: PCIe round trip + launch +
/// pessimistic lockstep kernel + pool-width CPU refinement, per
/// compression sub-batch.
static double gpuQuoteCompressUs(const CostModel &Model, std::uint64_t Bytes,
                                 std::size_t Chunks) {
  if (Chunks == 0)
    return 0.0;
  const std::size_t SubBatch =
      std::max<std::size_t>(1, Model.Gpu.CompressBatchChunks);
  const double SubBatches = static_cast<double>(
      (Chunks + SubBatch - 1) / SubBatch);
  // Pessimistic all-literal lockstep kernel: every wavefront is gated
  // by its literal-heaviest lane, so the whole payload scans at the
  // literal rate (plus per-lane setup folded into the per-chunk term).
  const double KernelUs =
      Model.Gpu.LzLiteralPerByteNs * 1e-3 * static_cast<double>(Bytes) +
      Model.Gpu.LaneSetupNs * 1e-3 * static_cast<double>(Chunks);
  // One H2D of the payload and one D2H of roughly the payload (the
  // unrefined token streams are not smaller in the worst case), per
  // sub-batch round trip.
  const double PcieUs = 2.0 * (Model.Pcie.PerTransferUs * SubBatches +
                               static_cast<double>(Bytes) /
                                   (Model.Pcie.GigabytesPerSec * 1e3));
  const double LaunchUs = Model.Gpu.LaunchUs * SubBatches;
  // CPU refinement follows the kernels, at full pool width.
  const double RefineUs =
      (static_cast<double>(Chunks) * Model.Cpu.PostSetupUs +
       Model.Cpu.PostPerByteNs * 1e-3 * static_cast<double>(Bytes)) /
      static_cast<double>(Model.Cpu.Threads);
  return PcieUs + LaunchUs + KernelUs + RefineUs;
}

GpuBackend::GpuBackend(const CostModel &Model, ResourceLedger &Ledger,
                       ThreadPool &Pool, GpuDevice &Primary,
                       const CompressEngineConfig &Config,
                       const obs::ObsSinks &Obs,
                       fault::FaultInjector *Faults, unsigned Devices)
    : Model(Model), Ledger(Ledger), Pool(Pool),
      SubBatch(std::max<std::size_t>(1, Model.Gpu.CompressBatchChunks)),
      LaneCompressor(Config.Lanes) {
  assert(isValidCostModel(Model) && "Invalid cost model");
  assert(Primary.present() && "GPU backend without a modelled GPU");
  Devices = std::max(1u, Devices);
  Units.resize(Devices);
  for (unsigned K = 0; K < Devices; ++K) {
    Unit &U = Units[K];
    if (K == 0) {
      // Device 0 replays on the resource lanes themselves.
      U.Device = &Primary;
      U.GpuLane = static_cast<unsigned>(Resource::Gpu);
      U.PcieLane = static_cast<unsigned>(Resource::Pcie);
      continue;
    }
    U.Owned = std::make_unique<GpuDevice>(Model, Ledger);
    U.Device = U.Owned.get();
    U.Device->setMixedMode(Primary.mixedMode());
    U.Device->setObs(Obs);
    if (Faults)
      U.Device->setFaultInjector(Faults);
    // Each extra device gets its own queue lane and its own modelled
    // PCIe link lane (point-to-point links, one per device).
    U.GpuLane = Ledger.addTimelineLane(Resource::Gpu);
    U.PcieLane = Ledger.addTimelineLane(Resource::Pcie);
  }
  // Static storage: trace recorders keep span names by pointer and may
  // outlive the backend.
  static constexpr const char *Names[][2] = {
      {"gpu", "backend:gpu"},   {"gpu2", "backend:gpu2"},
      {"gpu3", "backend:gpu3"}, {"gpu4", "backend:gpu4"},
      {"gpu5", "backend:gpu5"}, {"gpu6", "backend:gpu6"},
      {"gpu7", "backend:gpu7"}, {"gpu8", "backend:gpu8"},
      {"gpu>8", "backend:gpu>8"}};
  constexpr unsigned NameCount = sizeof(Names) / sizeof(Names[0]);
  Caps.Name = Names[std::min(Devices, NameCount) - 1][0];
  Caps.SpanName = Names[std::min(Devices, NameCount) - 1][1];
  Caps.DeviceCount = Devices;
  if (Obs.Metrics) {
    RawFallbackCounter = &Obs.Metrics->counter(
        "padre_compress_raw_fallback_total",
        "Chunks stored raw because compression did not pay");
    DeviceFallbackCounter = &Obs.Metrics->counter(
        "padre_gpu_fallback_total{family=\"compression\"}",
        "GPU sub-batches re-compressed on the CPU after a device fault");
  }
}

double GpuBackend::quoteCompressUs(std::uint64_t Bytes,
                                   std::size_t Chunks) const {
  // Ideal static partition: each device compresses 1/N of the slice on
  // its own link and queue; the shared CPU refinement does not divide.
  const unsigned N = deviceCount();
  return gpuQuoteCompressUs(Model, Bytes / N, (Chunks + N - 1) / N);
}

void GpuBackend::executeSlice(
    std::span<const ChunkView> Chunks, std::size_t Begin, std::size_t End,
    std::vector<CompressedChunk> &Out,
    std::vector<BatchScheduler::CompressSlice> &Slices, bool Pipelined) {
  assert(Out.size() == Chunks.size() && "Out must be pre-sized");
  assert(Begin <= End && End <= Chunks.size() && "Bad slice bounds");
  const std::size_t N = Units.size();
  if (Pipelined) {
    // One record per sub-batch, so each sub-batch's CPU refinement
    // replays after *its* kernel round trip instead of after the whole
    // chain — the splitter's pipeline-depth lever. Results and charges
    // are unchanged; only the timeline placement differs.
    std::size_t Index = 0;
    for (std::size_t B = Begin; B < End; B += SubBatch, ++Index)
      runRecord(Units[Index % N], Chunks, B, std::min(End, B + SubBatch),
                SubBatch, Out, Slices);
    return;
  }
  // One record per device: device K chains sub-batches K, K + N, ...
  // on its own lanes with its own staging (per-chunk outputs are
  // disjoint, so grouping the execution by device is free), every
  // device's first upload ready at dedup-done.
  for (std::size_t K = 0; K < N && Begin + K * SubBatch < End; ++K)
    runRecord(Units[K], Chunks, Begin + K * SubBatch, End, N * SubBatch,
              Out, Slices);
}

void GpuBackend::runRecord(
    Unit &U, std::span<const ChunkView> Chunks, std::size_t First,
    std::size_t End, std::size_t Step, std::vector<CompressedChunk> &Out,
    std::vector<BatchScheduler::CompressSlice> &Slices) {
  BatchScheduler::CompressSlice Slice;
  Slice.GpuLane = U.GpuLane;
  Slice.PcieLane = U.PcieLane;
  Slice.Staging = &U.Device->staging();
  // Capture this record's async submissions on its own log (the
  // scheduler's stage-level log stays empty; the slice replay is the
  // only consumer). CPU attribution by busy snapshot: the refinement
  // pass plus any fault-fallback re-compression.
  const double CpuBeforeUs = Ledger.busyMicros(Resource::CpuPool);
  U.Device->setOpLog(&Slice.Ops);
  for (std::size_t B = First; B < End; B += Step)
    compressSubBatch(U, Chunks, B, std::min(End, B + SubBatch), Out);
  U.Device->setOpLog(nullptr);
  Slice.CpuUs = Ledger.busyMicros(Resource::CpuPool) - CpuBeforeUs;
  Slices.push_back(std::move(Slice));
}

void GpuBackend::compressSubBatch(Unit &U, std::span<const ChunkView> Chunks,
                                  std::size_t Begin, std::size_t End,
                                  std::vector<CompressedChunk> &Out) {
  GpuDevice &Device = *U.Device;
  DeviceResults.resize(End - Begin);

  // Host -> device: the chunk payloads.
  std::size_t InBytes = 0;
  for (std::size_t I = Begin; I < End; ++I)
    InBytes += Chunks[I].Data.size();
  fault::Status DeviceOk = Device.transferToDevice(InBytes);

  // Run the lane kernels functionally first; their per-lane outcomes
  // determine the kernel's modelled execution time under the SIMT
  // lockstep rule: every chunk costs lanes x its slowest lane
  // (§3.1(2) — branching lanes do not finish early). The kernel body
  // runs chunk-parallel on the pool; the price is summed serially in
  // chunk order, so the modelled time is the same at any pool width.
  std::size_t OutBytes = 0;
  double ExecMicros = 0.0;
  if (DeviceOk.ok()) {
    Pool.parallelFor(Begin, End, [&](std::size_t I) {
      DeviceResults[I - Begin] = LaneCompressor.runLanes(Chunks[I].Data);
    });
    for (std::size_t I = Begin; I < End; ++I) {
      const LaneOutputs &Lanes = DeviceResults[I - Begin];
      double SlowestLane = 0.0;
      for (const CompressResult &Lane : Lanes.LaneResults)
        SlowestLane = std::max(
            SlowestLane,
            Model.gpuLaneUs(Lane.Stats.LiteralBytes, Lane.Stats.MatchBytes));
      ExecMicros +=
          SlowestLane * static_cast<double>(Lanes.LaneResults.size());
    }

    // The lane-parallel kernel over the whole sub-batch ("we design a
    // compression algorithm that computes the chunk compression
    // results at a time", §3.2(2)).
    DeviceOk =
        Device.launchKernel(KernelFamily::Compression, ExecMicros, nullptr);

    // Device -> host: the unrefined per-lane token streams.
    if (DeviceOk.ok()) {
      for (std::size_t I = Begin; I < End; ++I)
        OutBytes += DeviceResults[I - Begin].totalPayloadBytes();
      DeviceOk = Device.transferFromDevice(OutBytes);
    }
  }

  // Degraded mode on a device fault: the CPU pool runs this
  // sub-batch's lanes itself and writes the very blocks the kernel
  // would have written, charged as the CPU backend charges a framed
  // chunk (one compression scan, no separate refinement). Whatever the
  // device produced is discarded — only the modelled cost differs.
  const bool OnDevice = DeviceOk.ok();
  double RoundTripUs = 0.0;
  if (OnDevice) {
    // Every chunk in the sub-batch waits for the whole kernel round
    // trip before its CPU refinement can start.
    const double Penalty =
        Device.mixedMode() ? Model.Gpu.MixedKernelPenalty : 1.0;
    RoundTripUs = Model.pcieTransferUs(InBytes) +
                  (Model.Gpu.LaunchUs + ExecMicros) * Penalty +
                  Model.pcieTransferUs(OutBytes);
  } else {
    ++DeviceFallbacks;
    if (DeviceFallbackCounter)
      DeviceFallbackCounter->add(1);
  }

  // CPU post-processing across the pool (§3.2(2)-(3): "the GPU
  // performs compression and the CPU is used for refinement"), charged
  // over the lane streams the device returned and booked after the
  // join as the modelled pool slices the sub-batch. Every block is
  // LzFramed or Raw.
  RefineUs.resize(End - Begin);
  Pool.parallelFor(Begin, End, [&](std::size_t I) {
    const ByteSpan Data = Chunks[I].Data;
    LaneOutputs &Lanes = DeviceResults[I - Begin];
    if (!OnDevice)
      Lanes = LaneCompressor.runLanes(Data);
    RefinedChunk Refined = GpuLaneCompressor::refine(Lanes, Data);
    const double Us =
        OnDevice ? Model.cpuPostprocessUs(Lanes.totalPayloadBytes(),
                                          Refined.StoredRaw)
                 : Model.cpuCompressUs(Refined.Stats.LiteralBytes,
                                       Refined.Stats.MatchBytes);
    RefineUs[I - Begin] = Us;
    Out[I].Block = std::move(Refined.Block);
    Out[I].Stats = Refined.Stats;
    Out[I].StoredRaw = Refined.StoredRaw;
    Out[I].LatencyUs = RoundTripUs + Us;
  });
  Ledger.chargeSliced(Resource::CpuPool, RefineUs, Model.Cpu.Threads);
  std::uint64_t Raw = 0;
  for (std::size_t I = Begin; I < End; ++I)
    Raw += Out[I].StoredRaw;
  RawFallbacks += Raw;
  if (RawFallbackCounter)
    RawFallbackCounter->add(Raw);
}

void GpuBackend::resetTimelineState() {
  // The scheduler's reset covers device 0's staging; the extra
  // devices' slots rewind here, in the same lockstep.
  for (Unit &U : Units)
    if (U.Owned)
      U.Owned->staging().reset();
}
