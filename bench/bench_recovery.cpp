//===----------------------------------------------------------------------===//
///
/// \file
/// E7 — crash-consistency cost (extension): what the metadata
/// write-ahead log charges the write path, and what recovery costs
/// after a crash.
///
///   1. journal overhead: the same stream written plain vs journaled
///      at several group-commit depths. Commits charge only metadata
///      bytes (chunk payloads were already destaged), so the modelled
///      SSD overhead must be small and shrink as commits batch.
///   2. recovery vs log length: fixed volume, growing number of ops
///      since the last checkpoint. Recovery's modelled time must grow
///      with the log.
///   3. recovery vs volume size: fixed data and log, growing address
///      space. Recovery must stay ~flat — it is bounded by the log and
///      the mapped set, not by how large the volume could be.
///
/// Emits bench_recovery.json. `--smoke` runs reduced sweeps and only
/// the hard gates (CI).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Volume.h"
#include "journal/JournaledVolume.h"
#include "journal/Recovery.h"
#include "util/Random.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

using namespace padre;
using namespace padre::bench;
using namespace padre::journal;

namespace {

constexpr std::size_t BlockSize = 4096;
const char *WalPath = "bench_recovery.wal";
const char *CkptPath = "bench_recovery.ckpt";

std::unique_ptr<ReductionPipeline> makePipeline() {
  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.Dedup.Index.BinBits = 10;
  return std::make_unique<ReductionPipeline>(Platform::paper(), Config);
}

ByteVector blockOf(std::uint64_t Tag) {
  ByteVector Data(BlockSize);
  Random Rng(Tag * 7919 + 3);
  Rng.fillBytes(Data.data(), Data.size());
  return Data;
}

void removeArtefacts() {
  std::remove(WalPath);
  std::remove(CkptPath);
  std::remove((std::string(CkptPath) + ".tmp").c_str());
}

//===--------------------------------------------------------------===//
// 1. Journal overhead on the write path.
//===--------------------------------------------------------------===//

struct OverheadRow {
  std::size_t GroupCommitOps = 0; ///< 0 = journal off
  double SsdUs = 0.0;
  double OverheadPct = 0.0;
};

double writeStream(Volume &Vol, JournaledVolume *Jv, std::uint64_t Ops,
                   ReductionPipeline &Pipeline) {
  for (std::uint64_t Op = 0; Op < Ops; ++Op) {
    const ByteVector Data = blockOf(Op);
    const std::uint64_t Lba = Op % Vol.blockCount();
    bool Ok;
    if (Jv)
      Ok = Jv->writeBlocks(Lba, ByteSpan(Data.data(), Data.size())).ok();
    else
      Ok = Vol.writeBlocks(Lba, ByteSpan(Data.data(), Data.size()));
    if (!Ok) {
      std::fprintf(stderr, "FATAL: write op %llu rejected\n",
                   static_cast<unsigned long long>(Op));
      std::exit(1);
    }
  }
  if (Jv && !Jv->sync().ok()) {
    std::fprintf(stderr, "FATAL: sync failed\n");
    std::exit(1);
  }
  return Pipeline.ledger().busyMicros(Resource::Ssd);
}

std::vector<OverheadRow> runOverhead(std::uint64_t Ops) {
  std::vector<OverheadRow> Rows;
  double PlainUs = 0.0;
  for (const std::size_t Group : {std::size_t{0}, std::size_t{1},
                                  std::size_t{4}, std::size_t{16}}) {
    removeArtefacts();
    auto Pipeline = makePipeline();
    VolumeConfig VolConfig;
    VolConfig.BlockCount = Ops;
    Volume Vol(*Pipeline, VolConfig);
    double SsdUs;
    if (Group == 0) {
      SsdUs = writeStream(Vol, nullptr, Ops, *Pipeline);
      PlainUs = SsdUs;
    } else {
      JournaledVolumeConfig Config;
      Config.JournalPath = WalPath;
      Config.CheckpointPath = CkptPath;
      Config.GroupCommitOps = Group;
      JournaledVolume Jv(Vol, *Pipeline, Config);
      SsdUs = writeStream(Vol, &Jv, Ops, *Pipeline);
    }
    OverheadRow Row;
    Row.GroupCommitOps = Group;
    Row.SsdUs = SsdUs;
    Row.OverheadPct =
        PlainUs > 0.0 ? (SsdUs / PlainUs - 1.0) * 100.0 : 0.0;
    Rows.push_back(Row);
  }
  return Rows;
}

//===--------------------------------------------------------------===//
// 2 + 3. Recovery cost sweeps.
//===--------------------------------------------------------------===//

struct RecoveryRow {
  std::uint64_t VolumeBlocks = 0;
  std::uint64_t OpsSinceCheckpoint = 0;
  std::uint64_t ReplayedRecords = 0;
  double ModelledUs = 0.0;
};

/// Fills \p BaseOps blocks, checkpoints, runs \p TailOps more ops and
/// measures recovery of the resulting artefacts.
RecoveryRow runRecovery(std::uint64_t VolumeBlocks, std::uint64_t BaseOps,
                        std::uint64_t TailOps) {
  removeArtefacts();
  {
    auto Pipeline = makePipeline();
    VolumeConfig VolConfig;
    VolConfig.BlockCount = VolumeBlocks;
    Volume Vol(*Pipeline, VolConfig);
    JournaledVolumeConfig Config;
    Config.JournalPath = WalPath;
    Config.CheckpointPath = CkptPath;
    JournaledVolume Jv(Vol, *Pipeline, Config);
    for (std::uint64_t Op = 0; Op < BaseOps; ++Op) {
      const ByteVector Data = blockOf(Op);
      if (!Jv.writeBlocks(Op % VolumeBlocks,
                          ByteSpan(Data.data(), Data.size()))
               .ok()) {
        std::fprintf(stderr, "FATAL: base write rejected\n");
        std::exit(1);
      }
    }
    if (!Jv.checkpoint().ok()) {
      std::fprintf(stderr, "FATAL: checkpoint failed\n");
      std::exit(1);
    }
    for (std::uint64_t Op = 0; Op < TailOps; ++Op) {
      const ByteVector Data = blockOf(BaseOps + Op);
      if (!Jv.writeBlocks((BaseOps + Op) % VolumeBlocks,
                          ByteSpan(Data.data(), Data.size()))
               .ok()) {
        std::fprintf(stderr, "FATAL: tail write rejected\n");
        std::exit(1);
      }
    }
    // The frontend is simply abandoned here — the crash.
  }
  auto Fresh = makePipeline();
  VolumeConfig VolConfig;
  VolConfig.BlockCount = VolumeBlocks;
  Volume Restored(*Fresh, VolConfig);
  const RecoveryReport Report =
      recoverVolume(WalPath, CkptPath, *Fresh, Restored);
  if (!Report.ok()) {
    std::fprintf(stderr, "FATAL: recovery failed: %s\n",
                 Report.St.message());
    std::exit(1);
  }
  RecoveryRow Row;
  Row.VolumeBlocks = VolumeBlocks;
  Row.OpsSinceCheckpoint = TailOps;
  Row.ReplayedRecords = Report.ReplayedRecords;
  Row.ModelledUs = Report.ModelledMicros;
  return Row;
}

bool writeJson(const char *Path, const std::vector<OverheadRow> &Overhead,
               const std::vector<RecoveryRow> &LogSweep,
               const std::vector<RecoveryRow> &VolumeSweep) {
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  std::fprintf(File, "{\n  \"experiment\": \"E7-recovery\",\n");
  std::fprintf(File, "  \"overhead\": [\n");
  for (std::size_t I = 0; I < Overhead.size(); ++I)
    std::fprintf(File,
                 "    {\"group_commit\": %zu, \"ssd_us\": %.3f, "
                 "\"overhead_pct\": %.3f}%s\n",
                 Overhead[I].GroupCommitOps, Overhead[I].SsdUs,
                 Overhead[I].OverheadPct,
                 I + 1 < Overhead.size() ? "," : "");
  std::fprintf(File, "  ],\n");
  const auto Sweep = [&](const char *Name,
                         const std::vector<RecoveryRow> &Rows,
                         bool Last) {
    std::fprintf(File, "  \"%s\": [\n", Name);
    for (std::size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(
          File,
          "    {\"volume_blocks\": %llu, \"ops_since_checkpoint\": "
          "%llu, \"replayed\": %llu, \"modelled_us\": %.3f}%s\n",
          static_cast<unsigned long long>(Rows[I].VolumeBlocks),
          static_cast<unsigned long long>(Rows[I].OpsSinceCheckpoint),
          static_cast<unsigned long long>(Rows[I].ReplayedRecords),
          Rows[I].ModelledUs, I + 1 < Rows.size() ? "," : "");
    std::fprintf(File, "  ]%s\n", Last ? "" : ",");
  };
  Sweep("log_scaling", LogSweep, false);
  Sweep("volume_scaling", VolumeSweep, true);
  std::fprintf(File, "}\n");
  std::fclose(File);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  banner("E7", Smoke ? "crash-consistency cost (smoke)"
                     : "crash-consistency cost — journal overhead and "
                       "recovery scaling");

  //===------------------------------------------------------------===//
  // 1. Write-path overhead.
  //===------------------------------------------------------------===//
  const std::uint64_t Ops = Smoke ? 256 : 2048;
  const std::vector<OverheadRow> Overhead = runOverhead(Ops);
  std::printf("\njournal overhead (%llu 4 KiB write ops, modelled SSD "
              "time):\n%14s %14s %12s\n",
              static_cast<unsigned long long>(Ops), "group commit",
              "ssd (ms)", "overhead");
  for (const OverheadRow &Row : Overhead)
    std::printf("%14s %14.3f %11.2f%%\n",
                Row.GroupCommitOps == 0
                    ? "off"
                    : std::to_string(Row.GroupCommitOps).c_str(),
                Row.SsdUs / 1e3, Row.OverheadPct);
  std::printf("expected shape: per-op commits pay the per-I/O floor "
              "(why group commit exists);\nbatching amortizes it down "
              "to the metadata-bytes residue.\n");

  //===------------------------------------------------------------===//
  // 2. Recovery vs log length (fixed volume).
  //===------------------------------------------------------------===//
  const std::uint64_t FixedBlocks = Smoke ? 512 : 2048;
  const std::uint64_t BaseOps = FixedBlocks / 2;
  std::vector<RecoveryRow> LogSweep;
  for (const std::uint64_t Tail :
       Smoke ? std::vector<std::uint64_t>{0, 128}
             : std::vector<std::uint64_t>{0, 64, 256, 1024})
    LogSweep.push_back(runRecovery(FixedBlocks, BaseOps, Tail));
  std::printf("\nrecovery vs ops since checkpoint (%llu-block "
              "volume):\n%18s %12s %14s\n",
              static_cast<unsigned long long>(FixedBlocks),
              "ops since ckpt", "replayed", "modelled (ms)");
  for (const RecoveryRow &Row : LogSweep)
    std::printf("%18llu %12llu %14.3f\n",
                static_cast<unsigned long long>(Row.OpsSinceCheckpoint),
                static_cast<unsigned long long>(Row.ReplayedRecords),
                Row.ModelledUs / 1e3);

  //===------------------------------------------------------------===//
  // 3. Recovery vs volume size (fixed data + log).
  //===------------------------------------------------------------===//
  const std::uint64_t FixedBase = Smoke ? 128 : 256;
  const std::uint64_t FixedTail = Smoke ? 64 : 128;
  std::vector<RecoveryRow> VolumeSweep;
  for (const std::uint64_t Blocks :
       Smoke ? std::vector<std::uint64_t>{1024, 16384}
             : std::vector<std::uint64_t>{1024, 4096, 16384, 65536})
    VolumeSweep.push_back(runRecovery(Blocks, FixedBase, FixedTail));
  std::printf("\nrecovery vs volume size (%llu base ops, %llu logged "
              "ops):\n%16s %12s %14s\n",
              static_cast<unsigned long long>(FixedBase),
              static_cast<unsigned long long>(FixedTail), "volume blocks",
              "replayed", "modelled (ms)");
  for (const RecoveryRow &Row : VolumeSweep)
    std::printf("%16llu %12llu %14.3f\n",
                static_cast<unsigned long long>(Row.VolumeBlocks),
                static_cast<unsigned long long>(Row.ReplayedRecords),
                Row.ModelledUs / 1e3);
  std::printf("expected shape: time follows the log, not the address "
              "space.\n");

  const char *JsonPath = "bench_recovery.json";
  if (!writeJson(JsonPath, Overhead, LogSweep, VolumeSweep))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  else
    std::printf("\njson: %s\n", JsonPath);
  removeArtefacts();

  //===------------------------------------------------------------===//
  // Acceptance gates.
  //===------------------------------------------------------------===//
  bool Pass = true;
  // Journaling must cost something (the commits are real I/O)...
  for (const OverheadRow &Row : Overhead)
    if (Row.GroupCommitOps != 0 && Row.OverheadPct <= 0.0) {
      std::fprintf(stderr, "FAIL: group-commit %zu charged no "
                           "overhead\n",
                   Row.GroupCommitOps);
      Pass = false;
    }
  // ...per-op commits pay the per-I/O floor, so batching must shrink
  // the cost monotonically, down to a small residue.
  for (std::size_t I = 2; I < Overhead.size(); ++I)
    if (Overhead[I].SsdUs >= Overhead[I - 1].SsdUs) {
      std::fprintf(stderr,
                   "FAIL: group commit %zu not cheaper than %zu\n",
                   Overhead[I].GroupCommitOps,
                   Overhead[I - 1].GroupCommitOps);
      Pass = false;
    }
  if (Overhead.back().OverheadPct >= 15.0) {
    std::fprintf(stderr,
                 "FAIL: group-commit %zu overhead %.2f%% above the "
                 "15%% bar\n",
                 Overhead.back().GroupCommitOps,
                 Overhead.back().OverheadPct);
    Pass = false;
  }
  // Recovery grows with the log...
  for (std::size_t I = 1; I < LogSweep.size(); ++I)
    if (LogSweep[I].ModelledUs <= LogSweep[I - 1].ModelledUs) {
      std::fprintf(stderr,
                   "FAIL: recovery at %llu ops (%.1fus) not above "
                   "%llu ops (%.1fus)\n",
                   static_cast<unsigned long long>(
                       LogSweep[I].OpsSinceCheckpoint),
                   LogSweep[I].ModelledUs,
                   static_cast<unsigned long long>(
                       LogSweep[I - 1].OpsSinceCheckpoint),
                   LogSweep[I - 1].ModelledUs);
      Pass = false;
    }
  // ...but not with the address space.
  const double Smallest = VolumeSweep.front().ModelledUs;
  const double Largest = VolumeSweep.back().ModelledUs;
  if (Smallest <= 0.0 || Largest / Smallest > 1.5) {
    std::fprintf(stderr,
                 "FAIL: recovery scaled with volume size (%.1fus -> "
                 "%.1fus for %llux the blocks)\n",
                 Smallest, Largest,
                 static_cast<unsigned long long>(
                     VolumeSweep.back().VolumeBlocks /
                     VolumeSweep.front().VolumeBlocks));
    Pass = false;
  }
  if (!Pass)
    return 1;
  std::printf("\nPASS: journal overhead bounded, recovery scales with "
              "the log, not the volume\n");
  return 0;
}
