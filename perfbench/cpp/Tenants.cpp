//===----------------------------------------------------------------------===//
///
/// \file
/// `tenants`: 8 tenants on one VolumeService with coalesced dispatch.
/// Tenants 0-3 clone one image; 4-5 write dedup-rich streams and 6-7
/// dedup-poor ones. The index-memory budget keeps some tenants resident
/// and demotes the rest, whose raw writes sweepDeferred() re-reduces
/// periodically. Each wave submits one 64 KiB write per tenant and
/// pumps once; a write's latency runs from its submit until that pump
/// returns. Every tenant is read back in full after the timed phase.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/VolumeService.h"
#include "workload/VdbenchStream.h"

#include <cstring>

using namespace padre;

namespace perfbench {

namespace {
constexpr unsigned TenantCount = 8;
constexpr std::uint64_t TenantBytes = 8ull << 20;
constexpr std::uint64_t OpBlocks = 16; // 64 KiB writes
constexpr std::size_t IndexBudget = 64ull << 10;
constexpr std::uint64_t SweepEveryWaves = 32;
constexpr std::uint64_t VerifyBlocks = 1024;

/// Tenant \p T's stream: 0-3 share one image, 4-5 are dedup-rich, 6-7
/// dedup-poor.
WorkloadConfig tenantStream(std::uint64_t Seed, unsigned T) {
  WorkloadConfig Load;
  Load.TotalBytes = TenantBytes;
  if (T < 4) {
    Load.Seed = mixSeed(Seed, 6);
  } else if (T < 6) {
    Load.DedupRatio = 4.0;
    Load.Seed = mixSeed(Seed, 7 + T);
  } else {
    Load.DedupRatio = 1.0;
    Load.Seed = mixSeed(Seed, 7 + T);
  }
  return Load;
}

} // namespace

Workload makeTenants(const Options &Opts) {
  Workload W;
  W.Name = "tenants";
  W.Params = {{"mode", "gpu-compress"},
              {"tenants", std::to_string(TenantCount)},
              {"tenant_bytes", std::to_string(TenantBytes)},
              {"streams", "0-3 clone one image (dedup 2.0); 4-5 dedup 4.0; "
                          "6-7 dedup 1.0; all compress 2.0"},
              {"op_bytes", std::to_string(OpBlocks * 4096)},
              {"index_budget_bytes", std::to_string(IndexBudget)},
              {"coalesce_dispatch", "1"},
              {"sweep_every_waves", std::to_string(SweepEveryWaves)}};
  W.Round = [Seed = Opts.Seed](RoundContext &Ctx) {
    RoundResult R;
    std::vector<ByteVector> Streams;
    for (unsigned T = 0; T < TenantCount; ++T)
      Streams.push_back(VdbenchStream(tenantStream(Seed, T)).generateAll());

    ObsSinks Sinks;
    ServiceConfig Config;
    Config.Pipeline.Mode = PipelineMode::GpuCompress;
    Config.IndexMemoryBudget = IndexBudget;
    Config.CoalesceDispatch = true;
    if (Ctx.Traced)
      Sinks.attach(Config.Pipeline);
    VolumeService Service(Platform::paper(), Config);
    const std::size_t Chunk = Config.Pipeline.ChunkSize;
    const std::uint64_t Blocks = TenantBytes / Chunk;
    TenantConfig Tenant;
    Tenant.Blocks = Blocks;
    for (unsigned T = 0; T < TenantCount; ++T)
      Service.addTenant("tenant" + std::to_string(T), Tenant);
    ReductionPipeline &Pipe = Service.pipeline();
    double Base[ResourceCount];
    laneBaseline(Pipe, Base);

    const std::size_t OpBytes = OpBlocks * Chunk;
    std::vector<double> PumpUs;
    double SweepSec = 0.0;
    std::uint64_t EntriesExpired = 0;
    const auto Sweep = [&] {
      const double S0 = wallSec();
      EntriesExpired += Service.sweepDeferred().EntriesExpired;
      SweepSec += Ctx.Spans.add("sweepDeferred", S0, wallSec()) * 1e-6;
    };
    const double T0 = wallSec();
    const double C0 = cpuSec();
    R.SetupSec = T0 - Ctx.StartSec;
    std::uint64_t Wave = 0;
    std::vector<double> Submitted;
    for (std::uint64_t Lba = 0; Lba < Blocks; Lba += OpBlocks, ++Wave) {
      Submitted.clear();
      for (unsigned T = 0; T < TenantCount; ++T) {
        const ByteSpan Op(Streams[T].data() + Lba * Chunk, OpBytes);
        ++R.Attempted;
        const double S0 = wallSec();
        const bool Ok = Service.submitWrite(T, Lba, Op);
        Ctx.Spans.add("submitWrite", S0, wallSec());
        if (Ok) {
          Submitted.push_back(S0);
          R.UserBytes += OpBytes;
        } else {
          R.fail("write refused for tenant " + std::to_string(T));
        }
      }
      const double P0 = wallSec();
      Service.pump();
      const double P1 = wallSec();
      PumpUs.push_back(Ctx.Spans.add("pump", P0, P1));
      for (const double S0 : Submitted) {
        R.OpUs.push_back((P1 - S0) * 1e6);
        ++R.Ops;
      }
      if ((Wave + 1) % SweepEveryWaves == 0)
        Sweep();
    }
    const double F0 = wallSec();
    Service.finish();
    Ctx.Spans.add("finish", F0, wallSec());
    Sweep();
    R.TimedSec = wallSec() - T0;
    R.CpuSec = cpuSec() - C0;

    const PipelineReport Rep = Pipe.report();
    const double User = static_cast<double>(R.UserBytes);
    double Resident = 0.0, Admitted = 0.0, Deferred = 0.0;
    for (unsigned T = 0; T < TenantCount; ++T) {
      const TenantStats S = Service.tenantStats(T);
      Resident += S.Resident ? 1.0 : 0.0;
      Admitted += static_cast<double>(S.AdmittedBytes);
      Deferred += static_cast<double>(S.DeferredBytes);
    }
    R.Det["model_mbps"] = User / 1e6 / Rep.WallSec;
    R.Det["stored_per_user_byte"] = static_cast<double>(Rep.StoredBytes) / User;
    R.Det["nand_per_user_byte"] = static_cast<double>(Rep.SsdNandBytes) / User;
    R.Det["index.memory_mb"] = indexMemoryMb(Pipe);
    R.Det["gpu.launches_per_mb"] =
        static_cast<double>(Rep.KernelLaunches) / (User / 1e6);
    R.Det["service.resident_tenants"] = Resident;
    R.Det["service.deferred_frac"] = Deferred / (Admitted + Deferred);
    R.Det["service.entries_expired"] = static_cast<double>(EntriesExpired);
    recordWriteReport(Rep, R.Det);
    recordSim(Pipe, Base, Ctx.Traced ? &Sinks : nullptr, R.Det);
    R.Host["core.write_cpu_ns_per_chunk"] =
        R.CpuSec * 1e9 / (User / static_cast<double>(Chunk));
    R.Host["client.write_p50_us"] = quantile(R.OpUs, 0.50);
    R.Host["client.write_p99_us"] = quantile(R.OpUs, 0.99);
    R.Host["service.pump_us_p50"] = median(PumpUs);
    R.Host["service.sweep_s"] = SweepSec;

    // Oracle: every tenant reads back as written.
    for (unsigned T = 0; T < TenantCount; ++T)
      for (std::uint64_t Lba = 0; Lba < Blocks; Lba += VerifyBlocks) {
        const auto Got = Service.readBlocks(T, Lba, VerifyBlocks);
        ++R.Attempted;
        if (!Got || std::memcmp(Got->data(), Streams[T].data() + Lba * Chunk,
                                Got->size()) != 0)
          R.fail("tenant " + std::to_string(T) + " read-back mismatch at lba " +
                 std::to_string(Lba));
      }
    if (Ctx.Replay) {
      // A quarter of each stream kind: clone, dedup-rich, dedup-poor.
      ByteVector Mix;
      for (unsigned T = 0; T < TenantCount; T += 2)
        Mix.insert(Mix.end(), Streams[T].begin(),
                   Streams[T].begin() + TenantBytes / 4);
      captureReplay(*Ctx.Replay, ByteSpan(Mix.data(), Mix.size()), Pipe, 4096);
    }
    return R;
  };
  return W;
}

} // namespace perfbench
