//===----------------------------------------------------------------------===//
///
/// \file
/// `churn`: an OLTP-like mix on a JournaledVolume in gpu-compress mode
/// with the FTL on, group commit, periodic checkpoints and
/// collectGarbage. Ops are 70% writes, 20% reads and 10% trims of 1-16
/// blocks; 90% of ops start in the hottest 10% of the LBAs, and content
/// comes from a bounded pool so overwrites dedup and revive chunks. The
/// read cache holds the hot set. A write's latency runs until ackedSeq()
/// covers it, so group-commit waiting counts. After the timed phase the
/// volume is recovered from its journal and checkpoint into a fresh
/// pipeline, and every LBA must read back as the reference model says.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "journal/JournaledVolume.h"
#include "journal/Recovery.h"
#include "restore/VolumeReader.h"
#include "util/Random.h"
#include "workload/VdbenchStream.h"

#include <cstdio>
#include <cstring>
#include <deque>

using namespace padre;

namespace perfbench {

namespace {
constexpr std::uint64_t VolumeBlocks = 8192; // 32 MiB
constexpr std::uint64_t HotBlocks = VolumeBlocks / 10;
constexpr std::uint64_t PoolBlocks = 4096;
constexpr std::size_t CacheBytes = 8ull << 20;
constexpr std::uint64_t OpsPerRound = 6000;
constexpr std::uint64_t MaxRunBlocks = 16;
constexpr std::size_t GroupCommitOps = 8;
constexpr std::uint64_t GcEveryOps = 500;
constexpr std::uint64_t CheckpointEveryOps = 2000;
constexpr std::uint64_t PrefillBlocks = 64;
constexpr std::uint64_t VerifyBlocks = 1024;
constexpr int Unmapped = -1;

ssd::FtlConfig ftlGeometry() {
  ssd::FtlConfig Ftl;
  Ftl.PagesPerBlock = 64;
  Ftl.Blocks = 96;
  return Ftl;
}

PipelineConfig churnConfig() {
  PipelineConfig Config;
  Config.Mode = PipelineMode::GpuCompress;
  Config.ReadCacheBytes = CacheBytes;
  Config.Ftl = ftlGeometry();
  return Config;
}

/// Expected content of \p Count blocks at \p Lba per the reference map.
bool matchesReference(const ByteVector &Got, const std::vector<int> &Ref,
                      std::uint64_t Lba, std::uint64_t Count,
                      const ByteVector &Pool, std::size_t Chunk) {
  if (Got.size() != Count * Chunk)
    return false;
  static const ByteVector Zero(65536, 0);
  for (std::uint64_t I = 0; I < Count; ++I) {
    const int Src = Ref[Lba + I];
    const std::uint8_t *Want =
        Src == Unmapped ? Zero.data() : Pool.data() + Src * Chunk;
    if (std::memcmp(Got.data() + I * Chunk, Want, Chunk) != 0)
      return false;
  }
  return true;
}

} // namespace

Workload makeChurn(const Options &Opts) {
  Workload W;
  W.Name = "churn";
  const ssd::FtlConfig Ftl = ftlGeometry();
  W.Params = {{"mode", "gpu-compress"},
              {"volume_blocks", std::to_string(VolumeBlocks)},
              {"hot_blocks", std::to_string(HotBlocks)},
              {"pool_blocks", std::to_string(PoolBlocks)},
              {"read_cache_bytes", std::to_string(CacheBytes)},
              {"ops_per_round", std::to_string(OpsPerRound)},
              {"mix", "70% write, 20% read, 10% trim; 1-16 blocks; 90% hot"},
              {"group_commit_ops", std::to_string(GroupCommitOps)},
              {"gc_every_ops", std::to_string(GcEveryOps)},
              {"checkpoint_every_ops", std::to_string(CheckpointEveryOps)},
              {"ftl_geometry",
               std::to_string(Ftl.Blocks) + " blocks x " +
                   std::to_string(Ftl.PagesPerBlock) + " pages x " +
                   std::to_string(Ftl.PageBytes) + " B, " +
                   std::to_string(Ftl.OverprovisionPct) + "% OP"}};
  const std::string WalPath = Opts.WorkDir + "/churn.wal";
  const std::string CkptPath = Opts.WorkDir + "/churn.ckpt";
  W.Round = [Seed = Opts.Seed, WalPath, CkptPath](RoundContext &Ctx) {
    RoundResult R;
    WorkloadConfig Load;
    Load.TotalBytes = PoolBlocks * 4096;
    Load.DedupRatio = 1.0;
    Load.Seed = mixSeed(Seed, 4);
    const ByteVector Pool = VdbenchStream(Load).generateAll();

    ObsSinks Sinks;
    PipelineConfig Config = churnConfig();
    if (Ctx.Traced)
      Sinks.attach(Config);
    const std::size_t Chunk = Config.ChunkSize;
    ReductionPipeline Pipe(Platform::paper(), Config);
    VolumeConfig VolConfig;
    VolConfig.BlockCount = VolumeBlocks;
    Volume Vol(Pipe, VolConfig);
    journal::JournaledVolumeConfig JvConfig;
    JvConfig.JournalPath = WalPath;
    JvConfig.CheckpointPath = CkptPath;
    JvConfig.GroupCommitOps = GroupCommitOps;
    JvConfig.Metrics = Config.Metrics;
    std::remove(CkptPath.c_str());
    journal::JournaledVolume Jv(Vol, Pipe, JvConfig);
    if (!Jv.ctorStatus().ok()) {
      R.fail("cannot create journal " + WalPath);
      return R;
    }

    // Set-up: every LBA gets pool content, then a checkpoint.
    Random Rng(mixSeed(Seed, 5));
    std::vector<int> Ref(VolumeBlocks, Unmapped);
    ByteVector Buf(std::max(MaxRunBlocks, PrefillBlocks) * Chunk);
    const auto FillFromPool = [&](std::uint64_t Lba, std::uint64_t Count) {
      for (std::uint64_t I = 0; I < Count; ++I) {
        const int Src = static_cast<int>(Rng.nextBelow(PoolBlocks));
        std::memcpy(Buf.data() + I * Chunk, Pool.data() + Src * Chunk, Chunk);
        Ref[Lba + I] = Src;
      }
      return ByteSpan(Buf.data(), Count * Chunk);
    };
    for (std::uint64_t Lba = 0; Lba < VolumeBlocks; Lba += PrefillBlocks)
      if (!Jv.writeBlocks(Lba, FillFromPool(Lba, PrefillBlocks)).ok())
        R.fail("prefill write failed at lba " + std::to_string(Lba));
    if (!Jv.checkpoint().ok())
      R.fail("prefill checkpoint failed");

    restore::VolumeReader Reader(Jv.vol());
    Pipe.resetMeasurement();
    Reader.pipeline().resetMeasurement();
    if (Ctx.Traced)
      Sinks.Trace.clear();
    double Base[ResourceCount];
    laneBaseline(Pipe, Base);
    const std::uint64_t Launches0 = Pipe.ledger().kernelLaunches();
    const std::uint64_t Nand0 = Pipe.ssd().nandBytesWritten();
    const ssd::Ftl::Counters Ftl0 = Pipe.ssd().ftl()->counters();
    const VolumeStats Stats0 = Jv.vol().stats();
    const std::uint64_t Checkpoints0 = Jv.checkpointsTaken();
    const auto Counter = [&](const char *Name) -> double {
      const obs::Counter *C = Sinks.Metrics.findCounter(Name);
      return C ? static_cast<double>(C->value()) : 0.0;
    };
    const double Commits0 = Counter("padre_journal_commits_total");
    const double JournalBytes0 = Counter("padre_journal_bytes_total");

    // Journaled ops awaiting acknowledgement, oldest first.
    struct PendingOp {
      std::uint64_t Seq;
      double Start;
      bool IsWrite;
    };
    std::deque<PendingOp> Pending;
    std::vector<double> WriteUs, ReadUs, GcUs, CkptUs;
    const auto Acknowledge = [&] {
      const double Now = wallSec();
      while (!Pending.empty() && Pending.front().Seq <= Jv.ackedSeq()) {
        const double Us = (Now - Pending.front().Start) * 1e6;
        R.OpUs.push_back(Us);
        if (Pending.front().IsWrite)
          WriteUs.push_back(Us);
        Pending.pop_front();
      }
    };
    std::uint64_t Collected = 0, WrittenBytes = 0;
    const double T0 = wallSec();
    const double C0 = cpuSec();
    R.SetupSec = T0 - Ctx.StartSec;
    for (std::uint64_t Op = 1; Op <= OpsPerRound; ++Op) {
      const double Kind = Rng.nextDouble();
      const std::uint64_t Len = 1 + Rng.nextBelow(MaxRunBlocks);
      const std::uint64_t Lba = Rng.nextBool(0.9)
                                    ? Rng.nextBelow(HotBlocks - Len + 1)
                                    : Rng.nextBelow(VolumeBlocks - Len + 1);
      ++R.Attempted;
      ++R.Ops;
      if (Kind < 0.7) {
        const ByteSpan Data = FillFromPool(Lba, Len);
        const double Start = wallSec();
        const auto Seq = Jv.writeBlocks(Lba, Data);
        Ctx.Spans.add("write", Start, wallSec());
        if (Seq.ok()) {
          Pending.push_back({Seq.value(), Start, true});
          R.UserBytes += Data.size();
          WrittenBytes += Data.size();
        } else {
          R.fail("write failed at lba " + std::to_string(Lba));
        }
      } else if (Kind < 0.9) {
        const double Start = wallSec();
        const auto Got = Reader.readBlocks(Lba, Len);
        const double Us = Ctx.Spans.add("read", Start, wallSec());
        ReadUs.push_back(Us);
        R.OpUs.push_back(Us);
        if (Got && matchesReference(*Got, Ref, Lba, Len, Pool, Chunk))
          R.UserBytes += Len * Chunk;
        else
          R.fail("read mismatch at lba " + std::to_string(Lba));
      } else {
        const double Start = wallSec();
        const auto Seq = Jv.trim(Lba, Len);
        Ctx.Spans.add("trim", Start, wallSec());
        if (Seq.ok()) {
          Pending.push_back({Seq.value(), Start, false});
          std::fill(Ref.begin() + Lba, Ref.begin() + Lba + Len, Unmapped);
        } else {
          R.fail("trim failed at lba " + std::to_string(Lba));
        }
      }
      if (Op % GcEveryOps == 0) {
        std::size_t N = 0;
        const double G0 = wallSec();
        if (!Jv.collectGarbage(&N).ok())
          R.fail("collectGarbage failed");
        GcUs.push_back(Ctx.Spans.add("collectGarbage", G0, wallSec()));
        Collected += N;
      }
      if (Op % CheckpointEveryOps == 0) {
        const double K0 = wallSec();
        if (!Jv.checkpoint().ok())
          R.fail("checkpoint failed");
        CkptUs.push_back(Ctx.Spans.add("checkpoint", K0, wallSec()));
      }
      Acknowledge();
    }
    const double S0 = wallSec();
    if (!Jv.sync().ok())
      R.fail("final sync failed");
    Ctx.Spans.add("sync", S0, wallSec());
    Acknowledge();
    R.TimedSec = wallSec() - T0;
    R.CpuSec = cpuSec() - C0;
    if (!Pending.empty())
      R.fail("ops left unacknowledged after sync");

    const PipelineReport Rep = Pipe.report();
    const restore::ReadReport RR = Reader.pipeline().report();
    const double User = static_cast<double>(WrittenBytes);
    const ssd::Ftl &F = *Pipe.ssd().ftl();
    R.Det["model_mbps"] = User / 1e6 / Rep.WallSec;
    R.Det["stored_per_user_byte"] = static_cast<double>(Rep.StoredBytes) / User;
    R.Det["nand_per_user_byte"] =
        static_cast<double>(Pipe.ssd().nandBytesWritten() - Nand0) / User;
    R.Det["index.memory_mb"] = indexMemoryMb(Pipe);
    R.Det["gpu.launches_per_mb"] =
        static_cast<double>(Pipe.ledger().kernelLaunches() - Launches0) /
        (User / 1e6);
    recordWriteReport(Rep, R.Det);
    recordSim(Pipe, Base, Ctx.Traced ? &Sinks : nullptr, R.Det);
    R.Det["restore.cache_hit_rate"] = RR.cacheHitRate();
    R.Det["restore.ssd_chunks_per_read"] =
        static_cast<double>(RR.SsdChunks) / static_cast<double>(ReadUs.size());
    R.Det["restore.coalesced_runs"] = static_cast<double>(RR.CoalescedRuns);
    R.Det["restore.random_reads"] = static_cast<double>(RR.RandomReads);
    R.Det["restore.decode_cpu_batches"] = static_cast<double>(RR.CpuBatches);
    R.Det["restore.decode_gpu_batches"] = static_cast<double>(RR.GpuBatches);
    R.Det["restore.decode_warp_batches"] = static_cast<double>(RR.WarpBatches);
    R.Det["core.gc_chunks"] = static_cast<double>(Collected);
    R.Det["core.revived_chunks"] = static_cast<double>(
        Jv.vol().stats().RevivedChunks - Stats0.RevivedChunks);
    R.Det["journal.checkpoints"] =
        static_cast<double>(Jv.checkpointsTaken() - Checkpoints0);
    R.Det["ssd.ftl_waf"] = F.measuredWaf();
    R.Det["ssd.gc_pages"] =
        static_cast<double>(F.counters().GcPages - Ftl0.GcPages);
    R.Det["ssd.erases"] = static_cast<double>(F.counters().Erases - Ftl0.Erases);
    if (Ctx.Traced) {
      R.Det["journal.commits"] =
          Counter("padre_journal_commits_total") - Commits0;
      R.Det["journal.bytes_per_user_byte"] =
          (Counter("padre_journal_bytes_total") - JournalBytes0) / User;
    }
    R.Host["core.write_cpu_ns_per_chunk"] =
        R.CpuSec * 1e9 / static_cast<double>(Rep.LogicalChunks);
    R.Host["restore.read_cpu_ns_per_chunk"] =
        R.CpuSec * 1e9 / static_cast<double>(RR.ChunksRequested);
    R.Host["client.write_p50_us"] = quantile(WriteUs, 0.50);
    R.Host["client.write_p99_us"] = quantile(WriteUs, 0.99);
    R.Host["client.read_p50_us"] = quantile(ReadUs, 0.50);
    R.Host["client.read_p99_us"] = quantile(ReadUs, 0.99);
    R.Host["core.gc_us_p50"] = median(GcUs);
    R.Host["core.gc_us_max"] = quantile(GcUs, 1.0);
    R.Host["journal.checkpoint_us_p50"] = median(CkptUs);
    R.Host["journal.checkpoint_us_max"] = quantile(CkptUs, 1.0);

    // Recovery into a fresh pipeline: every acknowledged LBA must come
    // back bit-identical.
    ReductionPipeline FreshPipe(Platform::paper(), churnConfig());
    Volume Recovered(FreshPipe, VolConfig);
    const double Rec0 = wallSec();
    const journal::RecoveryReport Rec =
        journal::recoverVolume(WalPath, CkptPath, FreshPipe, Recovered);
    R.Host["journal.recover_s"] =
        Ctx.Spans.add("recoverVolume", Rec0, wallSec()) * 1e-6;
    ++R.Attempted;
    if (!Rec.ok())
      R.fail(std::string("recovery failed: ") + Rec.St.message());
    for (std::uint64_t Lba = 0; Rec.ok() && Lba < VolumeBlocks;
         Lba += VerifyBlocks) {
      const auto Got = Recovered.readBlocks(Lba, VerifyBlocks);
      ++R.Attempted;
      if (!Got ||
          !matchesReference(*Got, Ref, Lba, VerifyBlocks, Pool, Chunk))
        R.fail("recovered volume mismatch at lba " + std::to_string(Lba));
    }
    if (Ctx.Replay)
      captureReplay(*Ctx.Replay, ByteSpan(Pool.data(), Pool.size()), Pipe,
                    4096);
    std::remove(WalPath.c_str());
    std::remove(CkptPath.c_str());
    return R;
  };
  return W;
}

} // namespace perfbench
