//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark micro-kernels for the functional substrates: SHA-1
/// fingerprinting and CRC-32C (the dispatched path beside the scalar
/// oracle), both LZ matchers, the LZ decoder, GPU lane compression +
/// refinement, the warp decode kernel body, bin-index probes, the
/// chunkers and one fork-join of the host pool. These measure *host* wall time of
/// the functional code (not modelled time) — useful for keeping the
/// simulation itself fast and for profiling regressions.
///
//===----------------------------------------------------------------------===//

#include "chunk/FastCdcChunker.h"
#include "chunk/FixedChunker.h"
#include "chunk/RabinChunker.h"
#include "compress/GpuLaneCompressor.h"
#include "compress/GpuWarpDecompressor.h"
#include "compress/LzCodec.h"
#include "hash/Crc32.h"
#include "hash/Sha1.h"
#include "index/DedupIndex.h"
#include "util/Random.h"
#include "util/ThreadPool.h"
#include "workload/VdbenchStream.h"

#include <benchmark/benchmark.h>

#include <array>

using namespace padre;

namespace {

ByteVector makeData(std::size_t Size, double CompressRatio) {
  WorkloadConfig Config;
  Config.TotalBytes = std::max<std::size_t>(Size, 4096);
  Config.DedupRatio = 1.0;
  Config.CompressRatio = CompressRatio;
  ByteVector Data = VdbenchStream(Config).generateAll();
  Data.resize(Size);
  return Data;
}

/// Arg 0 is the message size; arg 1 picks the path: 0 the one this CPU
/// dispatches to (the label names it), 1 the portable scalar oracle.
void BM_Sha1(benchmark::State &State) {
  const ByteVector Data = makeData(static_cast<std::size_t>(State.range(0)),
                                   1.0);
  const bool Scalar = State.range(1) != 0;
  for (auto _ : State) {
    Sha1 Context = Scalar ? Sha1::scalar() : Sha1();
    Context.update(ByteSpan(Data.data(), Data.size()));
    auto Digest = Context.final();
    benchmark::DoNotOptimize(Digest);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          Data.size());
  State.SetLabel(Scalar ? "scalar" : Sha1::path());
}
BENCHMARK(BM_Sha1)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

/// Same arguments as BM_Sha1.
void BM_Crc32c(benchmark::State &State) {
  const ByteVector Data = makeData(static_cast<std::size_t>(State.range(0)),
                                   1.0);
  const ByteSpan Span(Data.data(), Data.size());
  const bool Scalar = State.range(1) != 0;
  for (auto _ : State) {
    const std::uint32_t Crc = Scalar ? crc32cScalar(Span) : crc32c(Span);
    benchmark::DoNotOptimize(Crc);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          Data.size());
  State.SetLabel(Scalar ? "scalar" : crc32cPath());
}
BENCHMARK(BM_Crc32c)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 0})
    ->Args({65536, 1});

void BM_LzCompress(benchmark::State &State) {
  const auto Kind = State.range(0) == 0 ? LzCodec::MatcherKind::HashChain
                                        : LzCodec::MatcherKind::SingleProbe;
  const LzCodec Codec(Kind);
  const ByteVector Data = makeData(4096, 2.0);
  for (auto _ : State) {
    auto Result = Codec.compress(ByteSpan(Data.data(), Data.size()));
    benchmark::DoNotOptimize(Result);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          Data.size());
}
BENCHMARK(BM_LzCompress)->Arg(0)->Arg(1);

void BM_LzDecompress(benchmark::State &State) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = makeData(4096, 2.0);
  const CompressResult Compressed =
      Codec.compress(ByteSpan(Data.data(), Data.size()));
  for (auto _ : State) {
    ByteVector Out;
    const bool Ok = LzCodec::decompress(
        ByteSpan(Compressed.Payload.data(), Compressed.Payload.size()),
        Data.size(), Out);
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Out);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          Data.size());
}
BENCHMARK(BM_LzDecompress);

void BM_GpuLaneKernel(benchmark::State &State) {
  GpuLaneConfig Config;
  Config.Lanes = static_cast<unsigned>(State.range(0));
  const GpuLaneCompressor Compressor(Config);
  const ByteVector Data = makeData(4096, 2.0);
  for (auto _ : State) {
    auto Outputs = Compressor.runLanes(ByteSpan(Data.data(), Data.size()));
    auto Refined = GpuLaneCompressor::refine(
        Outputs, ByteSpan(Data.data(), Data.size()));
    benchmark::DoNotOptimize(Refined);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          Data.size());
}
BENCHMARK(BM_GpuLaneKernel)->Arg(4)->Arg(8)->Arg(16);

/// The restore engine's warp path for one chunk: the O(N) plan plus the
/// runWarps body over an 8-sub-block framed 4 KiB chunk.
void BM_WarpDecode(benchmark::State &State) {
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  const ByteVector Data = makeData(4096, 2.0);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 8);
  const ByteSpan Payload(Framed.Payload.data(), Framed.Payload.size());
  WarpSubBlock Table[MaxSubBlocks];
  for (auto _ : State) {
    auto Plan = GpuWarpDecompressor::plan(
        Payload, Data.size(), std::span<WarpSubBlock>(Table, MaxSubBlocks));
    ByteVector Out;
    const bool Ok = Plan && GpuWarpDecompressor::runWarps(Payload, *Plan, Out);
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Out);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          Data.size());
}
BENCHMARK(BM_WarpDecode);

void BM_IndexBatch(benchmark::State &State) {
  DedupIndexConfig Config;
  Config.BinBits = 8;
  DedupIndex Index(Config);
  ThreadPool Pool(static_cast<unsigned>(State.range(0)));

  std::vector<Fingerprint> Fps;
  std::vector<std::uint64_t> Locations;
  for (std::uint64_t I = 0; I < 4096; ++I) {
    std::uint8_t Data[8];
    storeLe64(Data, I);
    Fps.push_back(Fingerprint::ofData(ByteSpan(Data, 8)));
    Locations.push_back(I);
  }
  std::vector<LookupResult> Results(Fps.size());
  std::vector<FlushEvent> Flushes;
  for (auto _ : State) {
    Index.processBatch(Fps, Locations, {}, Pool, Results, Flushes);
    benchmark::DoNotOptimize(Results);
    Flushes.clear();
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Fps.size()));
}
BENCHMARK(BM_IndexBatch)->Arg(1)->Arg(4);

// One write batch's fork-join with no work in it: 16 items with a
// trivial body on a pool of the given width, so the time is the pool's
// publish, claim and join. Real time, since the caller waits on others.
void BM_ParallelForSlices(benchmark::State &State) {
  ThreadPool Pool(static_cast<unsigned>(State.range(0)));
  std::array<std::uint64_t, 16> Items{};
  for (auto _ : State) {
    Pool.parallelForSlices(0, Items.size(),
                           [&Items](std::size_t Begin, std::size_t End,
                                    unsigned) {
                             for (std::size_t I = Begin; I < End; ++I)
                               Items[I] += I;
                           });
    benchmark::DoNotOptimize(Items.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Items.size()));
}
BENCHMARK(BM_ParallelForSlices)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

void BM_Chunker(benchmark::State &State) {
  const ByteVector Data = makeData(1 << 20, 2.0);
  FixedChunker Fixed(4096);
  RabinChunker Rabin;
  FastCdcChunker FastCdc;
  const Chunker *Chunkers[] = {&Fixed, &Rabin, &FastCdc};
  const Chunker *Chunker = Chunkers[State.range(0)];
  for (auto _ : State) {
    std::vector<ChunkView> Chunks;
    Chunker->split(ByteSpan(Data.data(), Data.size()), 0, Chunks);
    benchmark::DoNotOptimize(Chunks);
  }
  State.SetBytesProcessed(static_cast<std::int64_t>(State.iterations()) *
                          Data.size());
  State.SetLabel(Chunker->name());
}
BENCHMARK(BM_Chunker)->Arg(0)->Arg(1)->Arg(2);

} // namespace

BENCHMARK_MAIN();
