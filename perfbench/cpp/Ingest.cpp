//===----------------------------------------------------------------------===//
///
/// \file
/// `ingest`: the paper's headline traffic. Sequential 64 KiB
/// Volume::writeBlocks of a vdbench stream (dedup 2.0, compression 2.0)
/// into a fresh cpu-only volume, then flush(). Host time goes to SHA-1,
/// the bin index, CPU LZ encode and CRC; there are no reads and no
/// journal. The volume is read back in full after the timed phase.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Volume.h"
#include "workload/VdbenchStream.h"

#include <cstring>

using namespace padre;

namespace perfbench {

namespace {
constexpr std::uint64_t StreamBytes = 64ull << 20;
constexpr std::uint64_t OpBlocks = 16; // 64 KiB writes
constexpr std::uint64_t VerifyBlocks = 1024;
} // namespace

Workload makeIngest(const Options &Opts) {
  Workload W;
  W.Name = "ingest";
  W.Params = {{"mode", "cpu-only"},
              {"stream_bytes", std::to_string(StreamBytes)},
              {"op_bytes", std::to_string(OpBlocks * 4096)},
              {"dedup_ratio", "2.0"},
              {"compress_ratio", "2.0"}};
  W.Round = [Seed = Opts.Seed](RoundContext &Ctx) {
    RoundResult R;
    WorkloadConfig Load;
    Load.TotalBytes = StreamBytes;
    Load.Seed = mixSeed(Seed, 1);
    const ByteVector Data = VdbenchStream(Load).generateAll();

    ObsSinks Sinks;
    PipelineConfig Config;
    Config.Mode = PipelineMode::CpuOnly;
    if (Ctx.Traced)
      Sinks.attach(Config);
    ReductionPipeline Pipe(Platform::paper(), Config);
    VolumeConfig VolConfig;
    VolConfig.BlockCount = Data.size() / Config.ChunkSize;
    Volume Vol(Pipe, VolConfig);
    double Base[ResourceCount];
    laneBaseline(Pipe, Base);

    const std::uint64_t Blocks = VolConfig.BlockCount;
    const std::size_t OpBytes = OpBlocks * Config.ChunkSize;
    const double T0 = wallSec();
    const double C0 = cpuSec();
    R.SetupSec = T0 - Ctx.StartSec;
    for (std::uint64_t Lba = 0; Lba < Blocks; Lba += OpBlocks) {
      const ByteSpan Op(Data.data() + Lba * Config.ChunkSize, OpBytes);
      ++R.Attempted;
      ++R.Ops;
      const double Start = wallSec();
      const bool Ok = Vol.writeBlocks(Lba, Op);
      R.OpUs.push_back(Ctx.Spans.add("write", Start, wallSec()));
      if (Ok)
        R.UserBytes += OpBytes;
      else
        R.fail("write rejected at lba " + std::to_string(Lba));
    }
    const double F0 = wallSec();
    Vol.flush();
    Ctx.Spans.add("flush", F0, wallSec());
    R.TimedSec = wallSec() - T0;
    R.CpuSec = cpuSec() - C0;

    const PipelineReport Rep = Pipe.report();
    const double User = static_cast<double>(R.UserBytes);
    R.Det["model_mbps"] = User / 1e6 / Rep.WallSec;
    R.Det["stored_per_user_byte"] = static_cast<double>(Rep.StoredBytes) / User;
    R.Det["nand_per_user_byte"] = static_cast<double>(Rep.SsdNandBytes) / User;
    R.Det["index.memory_mb"] = indexMemoryMb(Pipe);
    R.Det["gpu.launches_per_mb"] =
        static_cast<double>(Rep.KernelLaunches) / (User / 1e6);
    recordWriteReport(Rep, R.Det);
    recordSim(Pipe, Base, Ctx.Traced ? &Sinks : nullptr, R.Det);
    R.Host["core.write_cpu_ns_per_chunk"] =
        R.CpuSec * 1e9 / static_cast<double>(Rep.LogicalChunks);
    R.Host["client.write_p50_us"] = quantile(R.OpUs, 0.50);
    R.Host["client.write_p99_us"] = quantile(R.OpUs, 0.99);

    // Oracle: the whole volume reads back as written.
    for (std::uint64_t Lba = 0; Lba < Blocks; Lba += VerifyBlocks) {
      const std::uint64_t Count = std::min(VerifyBlocks, Blocks - Lba);
      const auto Got = Vol.readBlocks(Lba, Count);
      ++R.Attempted;
      if (!Got || std::memcmp(Got->data(), Data.data() + Lba * Config.ChunkSize,
                              Got->size()) != 0)
        R.fail("read-back mismatch at lba " + std::to_string(Lba));
    }
    if (Ctx.Replay)
      captureReplay(*Ctx.Replay, ByteSpan(Data.data(), Data.size()), Pipe,
                    4096);
    return R;
  };
  return W;
}

} // namespace perfbench
