//===----------------------------------------------------------------------===//
///
/// \file
/// CPU backend implementation.
///
//===----------------------------------------------------------------------===//

#include "backend/CpuBackend.h"

#include "compress/Block.h"

#include <cassert>

using namespace padre;
using namespace padre::backend;

CpuBackend::CpuBackend(const CostModel &Model, ResourceLedger &Ledger,
                       ThreadPool &Pool, const CompressEngineConfig &Config,
                       const obs::ObsSinks &Obs)
    : Model(Model), Ledger(Ledger), Pool(Pool), Config(Config),
      Codec(Config.CpuMatcher, Config.CpuOptions) {
  assert(isValidCostModel(Model) && "Invalid cost model");
  Caps.Name = "cpu";
  Caps.SpanName = "backend:cpu";
  Caps.DeviceCount = 0;
  if (Obs.Metrics)
    RawFallbackCounter = &Obs.Metrics->counter(
        "padre_compress_raw_fallback_total",
        "Chunks stored raw because compression did not pay");
}

double CpuBackend::quoteCompressUs(std::uint64_t Bytes,
                                   std::size_t Chunks) const {
  // Pessimistic all-literal quote: setup per chunk plus the literal
  // scan rate, at full pool width.
  const double WorkUs =
      static_cast<double>(Chunks) * Model.Cpu.LzSetupUs +
      Model.Cpu.LzLiteralPerByteNs * 1e-3 * static_cast<double>(Bytes);
  return WorkUs / static_cast<double>(Model.Cpu.Threads);
}

void CpuBackend::executeSlice(
    std::span<const ChunkView> Chunks, std::size_t Begin, std::size_t End,
    std::vector<CompressedChunk> &Out,
    std::vector<BatchScheduler::CompressSlice> &Slices, bool) {
  assert(Out.size() == Chunks.size() && "Out must be pre-sized");
  assert(Begin <= End && End <= Chunks.size() && "Bad slice bounds");
  if (Begin >= End)
    return;
  // Attribution by busy snapshot: the splitter runs slices
  // sequentially on the pipeline thread, so the pool delta across this
  // call is exactly this slice's charge.
  const double CpuBeforeUs = Ledger.busyMicros(Resource::CpuPool);
  // One codec call per chunk, chunk-parallel across the pool.
  Pool.parallelFor(Begin, End, [&](std::size_t I) {
    const ByteSpan Data = Chunks[I].Data;
    const bool Framed = Config.SubBlocks > 1 && !Data.empty();
    CompressResult Result;
    if (Framed) {
      FramedCompressResult FramedResult =
          Codec.compressFramed(Data, Config.SubBlocks);
      Result.Payload = std::move(FramedResult.Payload);
      Result.Stats = FramedResult.Stats;
    } else {
      Result = Codec.compress(Data);
    }
    CompressedChunk &Chunk = Out[I];
    Chunk.LatencyUs =
        Model.cpuCompressUs(Result.Stats.LiteralBytes, Result.Stats.MatchBytes);
    Chunk.Stats = Result.Stats;
    if (Result.Payload.size() >= Data.size()) {
      Chunk.StoredRaw = true;
      Chunk.Block = encodeBlock(BlockMethod::Raw,
                                static_cast<std::uint32_t>(Data.size()), Data);
      return;
    }
    const BlockMethod Method =
        Framed ? BlockMethod::LzFramed
        : Config.CpuMatcher == LzCodec::MatcherKind::HashChain
            ? BlockMethod::Lz77
            : BlockMethod::QuickLz;
    Chunk.Block =
        encodeBlock(Method, static_cast<std::uint32_t>(Data.size()),
                    ByteSpan(Result.Payload.data(), Result.Payload.size()));
  });

  // A chunk's modelled CPU time is its latency; book them as the
  // modelled pool slices the range.
  ItemUs.resize(End - Begin);
  std::uint64_t Raw = 0;
  for (std::size_t I = Begin; I < End; ++I) {
    ItemUs[I - Begin] = Out[I].LatencyUs;
    Raw += Out[I].StoredRaw;
  }
  Ledger.chargeSliced(Resource::CpuPool, ItemUs, Model.Cpu.Threads);
  RawFallbacks += Raw;
  if (RawFallbackCounter)
    RawFallbackCounter->add(Raw);
  BatchScheduler::CompressSlice Slice;
  Slice.CpuUs = Ledger.busyMicros(Resource::CpuPool) - CpuBeforeUs;
  Slices.push_back(std::move(Slice));
}
