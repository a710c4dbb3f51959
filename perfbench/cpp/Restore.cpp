//===----------------------------------------------------------------------===//
///
/// \file
/// `restore`: set-up ingests a vdbench image (dedup 2.0, compression 2.0)
/// in gpu-compress mode; the timed phase is uniform-random 64 KiB
/// VolumeReader::readBlocks over the whole image. The read cache is much
/// smaller than the image, so most reads fetch, CRC-check and decode.
/// Every read is checked against the image.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "restore/VolumeReader.h"
#include "util/Random.h"
#include "workload/VdbenchStream.h"

#include <cstring>

using namespace padre;

namespace perfbench {

namespace {
constexpr std::uint64_t ImageBytes = 64ull << 20;
constexpr std::size_t CacheBytes = 4ull << 20;
constexpr std::uint64_t OpBlocks = 16; // 64 KiB reads
constexpr std::uint64_t ReadsPerRound = 8192;
constexpr std::uint64_t IngestBlocks = 256; // 1 MiB set-up writes
} // namespace

Workload makeRestore(const Options &Opts) {
  Workload W;
  W.Name = "restore";
  W.Params = {{"mode", "gpu-compress"},
              {"image_bytes", std::to_string(ImageBytes)},
              {"read_cache_bytes", std::to_string(CacheBytes)},
              {"op_bytes", std::to_string(OpBlocks * 4096)},
              {"reads_per_round", std::to_string(ReadsPerRound)},
              {"decode_mode", "auto"},
              {"dedup_ratio", "2.0"},
              {"compress_ratio", "2.0"}};
  W.Round = [Seed = Opts.Seed](RoundContext &Ctx) {
    RoundResult R;
    WorkloadConfig Load;
    Load.TotalBytes = ImageBytes;
    Load.Seed = mixSeed(Seed, 2);
    const ByteVector Image = VdbenchStream(Load).generateAll();

    ObsSinks Sinks;
    PipelineConfig Config;
    Config.Mode = PipelineMode::GpuCompress;
    Config.ReadCacheBytes = CacheBytes;
    if (Ctx.Traced)
      Sinks.attach(Config);
    ReductionPipeline Pipe(Platform::paper(), Config);
    VolumeConfig VolConfig;
    const std::size_t Chunk = Config.ChunkSize;
    VolConfig.BlockCount = Image.size() / Chunk;
    const std::uint64_t Blocks = VolConfig.BlockCount;
    Volume Vol(Pipe, VolConfig);

    // Set-up: the image ingest (its write-path figures are reported).
    const double W0 = wallSec();
    const double WC0 = cpuSec();
    for (std::uint64_t Lba = 0; Lba < Blocks; Lba += IngestBlocks) {
      const std::uint64_t Count = std::min(IngestBlocks, Blocks - Lba);
      if (!Vol.writeBlocks(Lba, ByteSpan(Image.data() + Lba * Chunk,
                                         Count * Chunk)))
        R.fail("image write rejected at lba " + std::to_string(Lba));
    }
    Vol.flush();
    const double IngestCpu = cpuSec() - WC0;
    Ctx.Spans.add("image-ingest", W0, wallSec());
    const PipelineReport Rep = Pipe.report();
    const double Logical = static_cast<double>(Rep.LogicalBytes);
    R.Det["stored_per_user_byte"] =
        static_cast<double>(Rep.StoredBytes) / Logical;
    R.Det["nand_per_user_byte"] = static_cast<double>(Rep.SsdNandBytes) / Logical;
    R.Det["index.memory_mb"] = indexMemoryMb(Pipe);
    recordWriteReport(Rep, R.Det);
    R.Host["core.write_cpu_ns_per_chunk"] =
        IngestCpu * 1e9 / static_cast<double>(Rep.LogicalChunks);

    restore::VolumeReader Reader(Vol);
    Reader.pipeline().resetMeasurement();
    if (Ctx.Traced)
      Sinks.Trace.clear();
    double Base[ResourceCount];
    laneBaseline(Pipe, Base);
    const std::uint64_t Launches0 = Pipe.ledger().kernelLaunches();
    Random Rng(mixSeed(Seed, 3));

    const std::size_t OpBytes = OpBlocks * Chunk;
    const double T0 = wallSec();
    const double C0 = cpuSec();
    R.SetupSec = T0 - Ctx.StartSec;
    for (std::uint64_t I = 0; I < ReadsPerRound; ++I) {
      const std::uint64_t Lba = Rng.nextBelow(Blocks - OpBlocks + 1);
      ++R.Attempted;
      ++R.Ops;
      const double Start = wallSec();
      const auto Got = Reader.readBlocks(Lba, OpBlocks);
      R.OpUs.push_back(Ctx.Spans.add("read", Start, wallSec()));
      if (Got && Got->size() == OpBytes &&
          std::memcmp(Got->data(), Image.data() + Lba * Chunk, OpBytes) == 0)
        R.UserBytes += OpBytes;
      else
        R.fail("read mismatch at lba " + std::to_string(Lba));
    }
    R.TimedSec = wallSec() - T0;
    R.CpuSec = cpuSec() - C0;

    const restore::ReadReport RR = Reader.pipeline().report();
    const double Reads = static_cast<double>(ReadsPerRound);
    R.Det["model_mbps"] = RR.ThroughputMBps;
    R.Det["restore.cache_hit_rate"] = RR.cacheHitRate();
    R.Det["restore.ssd_chunks_per_read"] =
        static_cast<double>(RR.SsdChunks) / Reads;
    R.Det["restore.coalesced_runs"] = static_cast<double>(RR.CoalescedRuns);
    R.Det["restore.random_reads"] = static_cast<double>(RR.RandomReads);
    R.Det["restore.decode_cpu_batches"] = static_cast<double>(RR.CpuBatches);
    R.Det["restore.decode_gpu_batches"] = static_cast<double>(RR.GpuBatches);
    R.Det["restore.decode_warp_batches"] = static_cast<double>(RR.WarpBatches);
    R.Det["gpu.launches_per_mb"] =
        static_cast<double>(Pipe.ledger().kernelLaunches() - Launches0) /
        (static_cast<double>(RR.BytesOut) / 1e6);
    recordSim(Pipe, Base, Ctx.Traced ? &Sinks : nullptr, R.Det);
    R.Host["restore.read_cpu_ns_per_chunk"] =
        R.CpuSec * 1e9 / static_cast<double>(RR.ChunksRequested);
    R.Host["client.read_p50_us"] = quantile(R.OpUs, 0.50);
    R.Host["client.read_p99_us"] = quantile(R.OpUs, 0.99);
    if (Ctx.Replay)
      captureReplay(*Ctx.Replay, ByteSpan(Image.data(), Image.size()), Pipe,
                    4096);
    return R;
  };
  return W;
}

} // namespace perfbench
