//===----------------------------------------------------------------------===//
///
/// \file
/// Compression engine implementation.
///
//===----------------------------------------------------------------------===//

#include "core/CompressEngine.h"

#include "compress/Block.h"
#include "compress/ChunkCodec.h"

#include <cassert>

using namespace padre;

CompressEngine::CompressEngine(const CostModel &Model,
                               ResourceLedger &Ledger, ThreadPool &Pool,
                               GpuDevice *Device,
                               const CompressEngineConfig &Config,
                               const obs::ObsSinks &Obs)
    : Model(Model), Ledger(Ledger), Pool(Pool), Device(Device),
      Config(Config), CpuCodec(Config.CpuMatcher, Config.CpuOptions),
      LaneCompressor(Config.Lanes) {
  assert(isValidCostModel(Model) && "Invalid cost model");
  if (Config.Backend == CompressBackend::GpuLane)
    assert(Device && Device->present() &&
           "GPU compression requested without a GPU");
  if (Obs.Metrics) {
    RawFallbackCounter = &Obs.Metrics->counter(
        "padre_compress_raw_fallback_total",
        "Chunks stored raw because compression did not pay");
    if (Config.Backend == CompressBackend::GpuLane)
      GpuFallbacks = &Obs.Metrics->counter(
          "padre_gpu_fallback_total{family=\"compression\"}",
          "GPU sub-batches re-compressed on the CPU after a device "
          "fault");
  }
}

void CompressEngine::compressBatch(std::span<const ChunkView> Chunks,
                                   std::vector<CompressedChunk> &Out) {
  Out.assign(Chunks.size(), CompressedChunk());
  if (Chunks.empty())
    return;
  if (Config.Backend == CompressBackend::Cpu)
    compressRangeCpu(Chunks, 0, Chunks.size(), Out);
  else
    compressRangeGpu(Chunks, 0, Chunks.size(), Out);
}

void CompressEngine::compressSlice(std::span<const ChunkView> Chunks,
                                   std::size_t Begin, std::size_t End,
                                   std::vector<CompressedChunk> &Out) {
  assert(Out.size() == Chunks.size() && "Out must be pre-sized");
  assert(Begin <= End && End <= Chunks.size() && "Bad slice bounds");
  if (Begin == End)
    return;
  if (Config.Backend == CompressBackend::Cpu)
    compressRangeCpu(Chunks, Begin, End, Out);
  else
    compressRangeGpu(Chunks, Begin, End, Out);
}

void CompressEngine::compressRangeCpu(std::span<const ChunkView> Chunks,
                                      std::size_t Begin, std::size_t End,
                                      std::vector<CompressedChunk> &Out) {
  // One codec call per chunk, chunk-parallel across the pool (§3.2(1)).
  Pool.parallelForSlices(
      Begin, End,
      [&](std::size_t SliceBegin, std::size_t SliceEnd, unsigned) {
        double Micros = 0.0;
        std::uint64_t Raw = 0;
        for (std::size_t I = SliceBegin; I < SliceEnd; ++I) {
          const ByteSpan Data = Chunks[I].Data;
          const bool Framed = Config.SubBlocks > 1 && !Data.empty();
          CompressResult Result;
          if (Framed) {
            FramedCompressResult FramedResult =
                CpuCodec.compressFramed(Data, Config.SubBlocks);
            Result.Payload = std::move(FramedResult.Payload);
            Result.Stats = FramedResult.Stats;
          } else {
            Result = CpuCodec.compress(Data);
          }
          const double CompressUs = Model.cpuCompressUs(
              Result.Stats.LiteralBytes, Result.Stats.MatchBytes);
          Micros += CompressUs;
          CompressedChunk &Chunk = Out[I];
          Chunk.LatencyUs = CompressUs;
          Chunk.Stats = Result.Stats;
          if (Result.Payload.size() >= Data.size()) {
            Chunk.StoredRaw = true;
            ++Raw;
            Chunk.Block = encodeBlock(
                BlockMethod::Raw, static_cast<std::uint32_t>(Data.size()),
                Data);
            continue;
          }
          if (Framed) {
            Chunk.Block = encodeBlock(
                BlockMethod::LzFramed,
                static_cast<std::uint32_t>(Data.size()),
                ByteSpan(Result.Payload.data(), Result.Payload.size()));
            continue;
          }
          // Optional entropy stage over the token stream.
          if (Config.EntropyStage) {
            const double HuffUs = Model.Cpu.HuffmanPerByteNs * 1e-3 *
                                  static_cast<double>(Result.Payload.size());
            Micros += HuffUs;
            Chunk.LatencyUs += HuffUs;
            if (auto Entropy = entropyEncodeTokens(ByteSpan(
                    Result.Payload.data(), Result.Payload.size()))) {
              Chunk.Block = encodeBlock(
                  BlockMethod::LzHuff,
                  static_cast<std::uint32_t>(Data.size()),
                  ByteSpan(Entropy->data(), Entropy->size()));
              continue;
            }
          }
          Chunk.Block = encodeBlock(
              Config.CpuMatcher == LzCodec::MatcherKind::HashChain
                  ? BlockMethod::Lz77
                  : BlockMethod::QuickLz,
              static_cast<std::uint32_t>(Data.size()),
              ByteSpan(Result.Payload.data(), Result.Payload.size()));
        }
        Ledger.chargeMicros(Resource::CpuPool, Micros);
        RawFallbacks.fetch_add(Raw, std::memory_order_relaxed);
        if (RawFallbackCounter)
          RawFallbackCounter->add(Raw);
      });
}

void CompressEngine::compressRangeGpu(std::span<const ChunkView> Chunks,
                                      std::size_t RangeBegin,
                                      std::size_t RangeEnd,
                                      std::vector<CompressedChunk> &Out) {
  assert(Device && "GPU backend without device");
  const std::size_t SubBatch = Model.Gpu.CompressBatchChunks;
  std::vector<LaneOutputs> DeviceResults(Chunks.size());

  for (std::size_t Begin = RangeBegin; Begin < RangeEnd; Begin += SubBatch) {
    const std::size_t End = std::min(RangeEnd, Begin + SubBatch);

    // Host -> device: the chunk payloads.
    std::size_t InBytes = 0;
    for (std::size_t I = Begin; I < End; ++I)
      InBytes += Chunks[I].Data.size();
    fault::Status DeviceOk = Device->transferToDevice(InBytes);

    // Run the lane kernels functionally first; their per-lane outcomes
    // determine the kernel's modelled execution time under the SIMT
    // lockstep rule: every chunk costs lanes x its slowest lane
    // (§3.1(2) — branching lanes do not finish early).
    std::size_t OutBytes = 0;
    double ExecMicros = 0.0;
    if (DeviceOk.ok()) {
      for (std::size_t I = Begin; I < End; ++I) {
        DeviceResults[I] = LaneCompressor.runLanes(Chunks[I].Data);
        double SlowestLane = 0.0;
        for (const CompressResult &Lane : DeviceResults[I].LaneResults)
          SlowestLane = std::max(
              SlowestLane, Model.gpuLaneUs(Lane.Stats.LiteralBytes,
                                           Lane.Stats.MatchBytes));
        ExecMicros += SlowestLane *
                      static_cast<double>(
                          DeviceResults[I].LaneResults.size());
      }

      // The lane-parallel kernel over the whole sub-batch ("we design a
      // compression algorithm that computes the chunk compression
      // results at a time", §3.2(2)).
      DeviceOk =
          Device->launchKernel(KernelFamily::Compression, ExecMicros, nullptr);

      // Device -> host: the unrefined per-lane token streams.
      if (DeviceOk.ok()) {
        for (std::size_t I = Begin; I < End; ++I)
          OutBytes += DeviceResults[I].totalPayloadBytes();
        DeviceOk = Device->transferFromDevice(OutBytes);
      }
    }

    // Degraded mode on a device fault: the CPU pool runs this
    // sub-batch's lanes itself and writes the very blocks the kernel
    // would have written, charged as the CPU backend charges a framed
    // chunk (one compression scan, no separate refinement). Whatever
    // the device produced is discarded — only the modelled cost
    // differs.
    const bool OnDevice = DeviceOk.ok();
    double RoundTripUs = 0.0;
    if (OnDevice) {
      // Every chunk in the sub-batch waits for the whole kernel round
      // trip before its CPU refinement can start.
      const double Penalty =
          Device->mixedMode() ? Model.Gpu.MixedKernelPenalty : 1.0;
      RoundTripUs = Model.pcieTransferUs(InBytes) +
                    (Model.Gpu.LaunchUs + ExecMicros) * Penalty +
                    Model.pcieTransferUs(OutBytes);
    } else {
      ++GpuFallbackCount;
      if (GpuFallbacks)
        GpuFallbacks->add(1);
    }

    // CPU post-processing across the pool (§3.2(2)-(3): "the GPU
    // performs compression and the CPU is used for refinement"),
    // charged over the lane streams the device returned. The entropy
    // stage never runs here: every block is LzFramed or Raw,
    // and a Huffman wrap would hide the frame (the compressRangeCpu
    // rule).
    Pool.parallelForSlices(
        Begin, End,
        [&](std::size_t SliceBegin, std::size_t SliceEnd, unsigned) {
          double Micros = 0.0;
          std::uint64_t Raw = 0;
          for (std::size_t I = SliceBegin; I < SliceEnd; ++I) {
            const ByteSpan Data = Chunks[I].Data;
            if (!OnDevice)
              DeviceResults[I] = LaneCompressor.runLanes(Data);
            RefinedChunk Refined =
                GpuLaneCompressor::refine(DeviceResults[I], Data);
            const double Us =
                OnDevice ? Model.cpuPostprocessUs(
                               DeviceResults[I].totalPayloadBytes(),
                               Refined.StoredRaw)
                         : Model.cpuCompressUs(Refined.Stats.LiteralBytes,
                                               Refined.Stats.MatchBytes);
            Micros += Us;
            Raw += Refined.StoredRaw;
            Out[I].Block = std::move(Refined.Block);
            Out[I].Stats = Refined.Stats;
            Out[I].StoredRaw = Refined.StoredRaw;
            Out[I].LatencyUs = RoundTripUs + Us;
          }
          Ledger.chargeMicros(Resource::CpuPool, Micros);
          RawFallbacks.fetch_add(Raw, std::memory_order_relaxed);
          if (RawFallbackCounter)
            RawFallbackCounter->add(Raw);
        });
  }
}
