//===----------------------------------------------------------------------===//
///
/// \file
/// The layer replay of a traced run: the chunks a workload wrote are fed
/// again, on one thread, through each layer's public function, and the
/// process CPU time of each layer is reported per unit of work. Each
/// layer repeats until it has run for at least MinLayerSec so short
/// layers (the chunker) still give a steady figure.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "chunk/FixedChunker.h"
#include "compress/Block.h"
#include "compress/ChunkCodec.h"
#include "compress/GpuLaneCompressor.h"
#include "compress/LzCodec.h"
#include "hash/Crc32.h"
#include "hash/Fingerprint.h"
#include "index/FingerprintIndex.h"
#include "util/ThreadPool.h"

using namespace padre;

namespace perfbench {

namespace {

constexpr double MinLayerSec = 0.05;

volatile std::uint64_t ReplaySink = 0;

/// Runs \p Pass until MinLayerSec of process CPU time has passed and
/// returns CPU ns per pass.
template <class F> double cpuNsPerPass(F &&Pass) {
  unsigned Passes = 0;
  const double Start = cpuSec();
  double Elapsed = 0.0;
  do {
    Pass();
    ++Passes;
    Elapsed = cpuSec() - Start;
  } while (Elapsed < MinLayerSec);
  return Elapsed * 1e9 / Passes;
}

} // namespace

std::map<std::string, double> replayLayers(const ReplayInput &In) {
  std::map<std::string, double> Out;
  if (In.Chunks.empty())
    return Out;
  const double Chunks = static_cast<double>(In.Chunks.size());
  const std::size_t ChunkSize = In.Config.ChunkSize;
  std::uint64_t Sink = 0;

  ByteVector Stream;
  for (const ByteVector &C : In.Chunks)
    Stream.insert(Stream.end(), C.begin(), C.end());
  const FixedChunker Chunker(ChunkSize);
  std::vector<ChunkView> Views;
  Out["chunk.split_ns_per_mb"] =
      cpuNsPerPass([&] {
        Views.clear();
        Chunker.split(ByteSpan(Stream.data(), Stream.size()), 0, Views);
        Sink += Views.size();
      }) /
      (static_cast<double>(Stream.size()) / 1e6);

  std::vector<Fingerprint> Fps(In.Chunks.size());
  Out["hash.fingerprint_ns_per_chunk"] = cpuNsPerPass([&] {
                                           for (std::size_t I = 0;
                                                I < In.Chunks.size(); ++I)
                                             Fps[I] = Fingerprint::ofData(
                                                 In.Chunks[I]);
                                         }) /
                                         Chunks;

  Out["hash.crc32c_ns_per_kib"] =
      cpuNsPerPass([&] {
        for (const ByteVector &C : In.Chunks)
          Sink += crc32c(C);
      }) /
      (static_cast<double>(Stream.size()) / 1024.0);

  // The index sees the same fingerprints in the pipeline's batch size,
  // with its bins served by a one-worker pool.
  ThreadPool OneThread(1);
  std::vector<std::uint64_t> Locations(Fps.size());
  for (std::size_t I = 0; I < Locations.size(); ++I)
    Locations[I] = I;
  const std::vector<std::uint8_t> Known(Fps.size(), 0);
  std::vector<LookupResult> Results(Fps.size());
  std::vector<FlushEvent> Flushes;
  const std::size_t Batch = In.Config.BatchChunks;
  Out["index.batch_ns_per_chunk"] =
      cpuNsPerPass([&] {
        auto Index = makeFingerprintIndex(In.Config.Dedup.Index);
        for (std::size_t B = 0; B < Fps.size(); B += Batch) {
          const std::size_t N = std::min(Batch, Fps.size() - B);
          Flushes.clear();
          Index->processBatch(
              std::span(Fps).subspan(B, N),
              std::span(Locations).subspan(B, N),
              std::span(Known).subspan(B, N), OneThread,
              std::span(Results).subspan(B, N), Flushes);
        }
        Sink += Index->uniqueInserts();
      }) /
      Chunks;

  const LzCodec Lz(In.Config.Compress.CpuMatcher, In.Config.Compress.CpuOptions);
  Out["compress.lz_encode_ns_per_chunk"] =
      cpuNsPerPass([&] {
        for (const ByteVector &C : In.Chunks)
          Sink += Lz.compress(C).Payload.size();
      }) /
      Chunks;

  const GpuLaneCompressor Lanes(In.Config.Compress.Lanes);
  Out["compress.lane_encode_ns_per_chunk"] =
      cpuNsPerPass([&] {
        for (const ByteVector &C : In.Chunks)
          Sink += GpuLaneCompressor::refine(Lanes.runLanes(C), C).Block.size();
      }) /
      Chunks;

  if (!In.Blocks.empty()) {
    ByteVector Decoded;
    Out["compress.decode_ns_per_chunk"] =
        cpuNsPerPass([&] {
          for (const ByteVector &B : In.Blocks) {
            const auto View = decodeBlock(B);
            Decoded.clear();
            if (View && decodeChunkPayload(*View, Decoded))
              Sink += Decoded.size();
          }
        }) /
        static_cast<double>(In.Blocks.size());
  }
  // Keep every pass's result observable so none is optimized away.
  ReplaySink = Sink;
  return Out;
}

} // namespace perfbench
