//===----------------------------------------------------------------------===//
///
/// \file
/// padrectl — command-line driver for the padre library.
///
/// Subcommands:
///   info                         platform profiles + model constants
///   calibrate [options]          dummy-I/O integration calibration
///   run       [options]          pipeline run on a synthetic stream
///   volume    [options]          LBA volume demo: writes, overwrites,
///                                TRIM, GC, image save/load round trip
///   trace     [options]          synthesize (or --trace FILE) and
///                                replay a verified I/O trace
///   replay    [options]          timed trace replay: a shaped
///                                scenario (--scenario) or trace file
///                                through the open-loop latency model,
///                                optionally over the page-level FTL
///                                (--ftl) with measured write
///                                amplification and lifetime
///   restore   [options]          batched read/restore demo: write a
///                                volume, read it back cold then warm
///                                through the restore pipeline
///   recover   [options]          crash-consistency demo: journaled
///                                writes (optionally crashed by a
///                                `crash@<point>` fault plan), then
///                                recovery into a fresh volume with
///                                bit-exact verification of every
///                                acknowledged write
///   serve     [options]          multi-tenant service demo: N tenants
///                                behind weighted-fair dispatch over
///                                one global index, with
///                                quotas and the prioritized cache
///                                tier (see SERVICE.md)
///   tenant    [options]          single-tenant parity check: the same
///                                stream through a direct Volume and
///                                through the VolumeService must be
///                                bit-identical (results and ledger
///                                charges)
///
/// Common options:
///   --platform paper|no-gpu|weak-gpu|fast-gpu   (default paper)
///   --mode cpu-only|gpu-dedup|gpu-compress|gpu-both|auto  (default auto)
///   --bytes N        stream size in bytes        (default 16 MiB)
///   --dedup D        workload dedup ratio        (default 2.0)
///   --comp C         workload compression ratio  (default 2.0)
///   --chunk N        chunk size in bytes         (default 4096)
///   --verify-dedup   byte-compare every digest match
///   --cache N        read-cache capacity in bytes (default off)
///   --chunking fixed|rabin|fastcdc   (run only; default fixed)
///   --threads N      the modelled CPU thread count of the platform
///                    (run); the host pool stays as wide as the host
///   --seed N         workload seed               (default 42)
///   --image PATH     (volume) save/load the volume image here
///   --read-batch N   restore batch depth          (default 256)
///   --read-mode cpu|warp|auto   restore decode mode (default auto)
///   --sub-blocks N   framed sub-blocks per chunk (1 = unframed v1;
///                    >1 stores decode-v2 frames the warp mode needs)
///   --backends cpu,gpu,gpu2   split compression over the listed
///                    backends (gpu2 = two modelled GPUs); write
///                    batches are domain-decomposed across them.
///                    Without it the split follows --mode
///   --split auto|cpu|gpu   splitter policy (default auto: the
///                    occupancy-balancing tuner picks the fraction)
///   --tuner-window N EWMA window of the splitter's rate tuner
///   --readahead N    restore readahead chunks per run (default 8)
///   --journal PATH       (recover) metadata WAL path (padre.wal)
///   --checkpoint PATH    (recover) checkpoint path (padre.ckpt)
///   --group-commit N     (recover) ops per group commit (default 1)
///   --checkpoint-every N (recover) checkpoint every N ops (default 0)
///   --tenants N          (serve) tenant count            (default 3)
///   --rounds N           (serve) dispatch rounds         (default 12)
///   --index-budget N     (serve) inline index budget, bytes (default 0
///                        = unlimited / pass-through)
///   --policy prioritized|lru   (serve) cache-tier policy
///   --quota N            (serve) per-tenant quota, bytes (default 0)
///   --fault-plan SPEC  deterministic fault injection (DESIGN.md):
///       seed=N;retries=N;<site>:<kind>:<trigger>[;...]
///   --trace-out FILE.json    write a Chrome trace_event span file
///                            (open in Perfetto / about:tracing)
///   --metrics-out FILE.prom  write Prometheus text-format metrics
///   --scenario SHAPE     (replay) sequential|uniform|skewed-hot|
///                        bursty-hot|day-night  (default skewed-hot)
///   --gc-every N         (replay) run volume GC every N ops
///   --raw                (replay) bypass reduction (writeBlocksRaw)
///   --ftl                (replay) page-level FTL under the SSD model
///   --ftl-blocks N  --ftl-pages-per-block N  --ftl-op PCT
///                        (replay) FTL geometry and over-provisioning
///
/// Options also accept the --opt=value spelling. See OBSERVABILITY.md
/// for the span schema and metric catalogue.
///
//===----------------------------------------------------------------------===//

#include "backend/AutoSplitter.h"
#include "core/Calibrator.h"
#include "core/TraceRunner.h"
#include "core/Volume.h"
#include "service/VolumeService.h"
#include "util/Random.h"
#include "journal/JournaledVolume.h"
#include "journal/Recovery.h"
#include "obs/Obs.h"
#include "persist/VolumeImage.h"
#include "restore/VolumeReader.h"
#include "workload/Scenario.h"
#include "workload/VdbenchStream.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace padre;

namespace {

struct Options {
  std::string Command;
  Platform Plat = Platform::paper();
  std::optional<PipelineMode> Mode; // nullopt = auto (calibrate)
  std::uint64_t Bytes = 16ull << 20;
  double DedupRatio = 2.0;
  double CompressRatio = 2.0;
  std::size_t ChunkSize = 4096;
  std::uint64_t Seed = 42;
  std::string ImagePath;
  std::string TracePath;
  std::uint64_t TraceOps = 5000;
  bool VerifyDedup = false;
  std::uint64_t CacheBytes = 0;
  ChunkingMode Chunking = ChunkingMode::Fixed;
  unsigned Threads = 0; // 0 = platform default
  std::string TraceOutPath;
  std::string MetricsOutPath;
  std::size_t ReadBatch = 256;
  restore::DecodeMode ReadMode = restore::DecodeMode::Auto;
  std::size_t Readahead = 8;
  std::size_t PipelineDepth = 4;
  unsigned SubBlocks = 1;
  fault::FaultPlan FaultPlan;
  std::string JournalPath = "padre.wal";
  std::string CheckpointPath = "padre.ckpt";
  std::size_t GroupCommitOps = 1;
  std::size_t CheckpointEveryOps = 0;
  unsigned Tenants = 3;
  std::uint64_t Rounds = 12;
  std::size_t IndexBudget = 0;
  CachePolicy Policy = CachePolicy::Prioritized;
  std::uint64_t QuotaBytes = 0;
  ScenarioShape Scenario = ScenarioShape::SkewedHot;
  std::uint64_t GcEvery = 0;
  /// Set by --backends/--split/--tuner-window; unset, the split
  /// follows --mode.
  std::optional<backend::BackendConfig> Backend;
  bool BackendHasGpu = false;
  bool RawWrites = false;
  bool FtlOn = false;
  std::uint32_t FtlBlocks = 128;
  std::uint32_t FtlPagesPerBlock = 64;
  double FtlOverprovisionPct = 7.0;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: padrectl "
      "<info|calibrate|run|volume|trace|replay|restore|recover|serve|"
      "tenant> [options]\n"
      "  --platform paper|no-gpu|weak-gpu|fast-gpu\n"
      "  --mode cpu-only|gpu-dedup|gpu-compress|gpu-both|auto\n"
      "  --bytes N  --dedup D  --comp C  --chunk N  --seed N\n"
      "  --verify-dedup  --cache N  --chunking fixed|rabin|fastcdc\n"
      "  --threads N (modelled CPU threads)  --image PATH\n"
      "  --trace FILE  --trace-ops N\n"
      "  --trace-out FILE.json  --metrics-out FILE.prom\n"
      "  --read-batch N  --read-mode cpu|warp|auto  --readahead N\n"
      "  --sub-blocks N       framed sub-blocks per chunk (warp decode)\n"
      "  --backends cpu,gpu,gpu2   compress split over these backends\n"
      "      (gpu2 = two modelled GPUs)  --split auto|cpu|gpu\n"
      "      --tuner-window N   (default: the split --mode implies)\n"
      "  --pipeline-depth N   in-flight write batches (1 = serial)\n"
      "  --journal PATH  --checkpoint PATH   (recover) WAL/checkpoint\n"
      "  --group-commit N  --checkpoint-every N   (recover) policies\n"
      "  --scenario sequential|uniform|skewed-hot|bursty-hot|day-night\n"
      "  --gc-every N  --raw  --ftl   (replay) GC cadence, raw writes,\n"
      "      page-level FTL; geometry via --ftl-blocks N\n"
      "      --ftl-pages-per-block N  --ftl-op PCT\n"
      "  --tenants N  --rounds N  --quota N   (serve) tenant workload\n"
      "  --index-budget N  --policy prioritized|lru\n"
      "      (serve) index cache tier\n"
      "  --fault-plan SPEC   inject faults, e.g.\n"
      "      'seed=7;ssd-read:error:p=0.01;gpu-kernel:hang:every=50'\n"
      "      sites: ssd-read ssd-write gpu-kernel gpu-dma destage\n"
      "      kinds: error timeout ecc hang dma-corrupt bitflip\n"
      "      triggers: p=F | at=N,N,... | every=N   (see DESIGN.md)\n");
}

bool parsePlatform(const std::string &Name, Platform &Out) {
  for (const Platform &Plat : Platform::allProfiles()) {
    if (Plat.Name == Name ||
        (Name == "paper" && Plat.Name.rfind("paper", 0) == 0)) {
      Out = Plat;
      return true;
    }
  }
  return false;
}

bool parseMode(const std::string &Name,
               std::optional<PipelineMode> &Out) {
  if (Name == "auto") {
    Out = std::nullopt;
    return true;
  }
  for (unsigned I = 0; I < PipelineModeCount; ++I)
    if (Name == pipelineModeName(static_cast<PipelineMode>(I))) {
      Out = static_cast<PipelineMode>(I);
      return true;
    }
  return false;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  if (Argc < 2)
    return false;
  Opts.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Accept both "--opt value" and "--opt=value".
    std::optional<std::string> Inline;
    if (Arg.rfind("--", 0) == 0) {
      const std::size_t Eq = Arg.find('=');
      if (Eq != std::string::npos) {
        Inline = Arg.substr(Eq + 1);
        Arg.resize(Eq);
      }
    }
    auto NextValue = [&](std::string &Out) {
      if (Inline) {
        Out = *Inline;
        return true;
      }
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string Value;
    if (Arg == "--platform" && NextValue(Value)) {
      if (!parsePlatform(Value, Opts.Plat)) {
        std::fprintf(stderr, "error: unknown platform '%s'\n",
                     Value.c_str());
        return false;
      }
    } else if (Arg == "--mode" && NextValue(Value)) {
      if (!parseMode(Value, Opts.Mode)) {
        std::fprintf(stderr, "error: unknown mode '%s'\n", Value.c_str());
        return false;
      }
    } else if (Arg == "--bytes" && NextValue(Value)) {
      Opts.Bytes = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--dedup" && NextValue(Value)) {
      Opts.DedupRatio = std::strtod(Value.c_str(), nullptr);
    } else if (Arg == "--comp" && NextValue(Value)) {
      Opts.CompressRatio = std::strtod(Value.c_str(), nullptr);
    } else if (Arg == "--chunk" && NextValue(Value)) {
      Opts.ChunkSize = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--seed" && NextValue(Value)) {
      Opts.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--image" && NextValue(Value)) {
      Opts.ImagePath = Value;
    } else if (Arg == "--trace" && NextValue(Value)) {
      Opts.TracePath = Value;
    } else if (Arg == "--trace-out" && NextValue(Value)) {
      Opts.TraceOutPath = Value;
    } else if (Arg == "--metrics-out" && NextValue(Value)) {
      Opts.MetricsOutPath = Value;
    } else if (Arg == "--trace-ops" && NextValue(Value)) {
      Opts.TraceOps = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--verify-dedup") {
      Opts.VerifyDedup = true;
    } else if (Arg == "--cache" && NextValue(Value)) {
      Opts.CacheBytes = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--read-batch" && NextValue(Value)) {
      Opts.ReadBatch = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--readahead" && NextValue(Value)) {
      Opts.Readahead = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--pipeline-depth" && NextValue(Value)) {
      Opts.PipelineDepth = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--sub-blocks" && NextValue(Value)) {
      Opts.SubBlocks =
          static_cast<unsigned>(std::strtoul(Value.c_str(), nullptr, 10));
    } else if (Arg == "--backends" && NextValue(Value)) {
      if (!Opts.Backend)
        Opts.Backend.emplace();
      // The list alone decides the backend set, whatever --split or
      // --tuner-window implied before it.
      Opts.BackendHasGpu = false;
      Opts.Backend->GpuDevices = 1;
      std::size_t Pos = 0;
      while (Pos <= Value.size()) {
        const std::size_t Comma = Value.find(',', Pos);
        const std::string Token =
            Value.substr(Pos, Comma == std::string::npos ? std::string::npos
                                                         : Comma - Pos);
        if (Token == "cpu") {
          // Always present; listed for symmetry.
        } else if (Token == "gpu") {
          Opts.BackendHasGpu = true;
        } else if (Token == "gpu2") {
          Opts.BackendHasGpu = true;
          Opts.Backend->GpuDevices = 2;
        } else {
          std::fprintf(stderr, "error: unknown backend '%s'\n",
                       Token.c_str());
          return false;
        }
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
    } else if ((Arg == "--split" || Arg == "--tuner-window") &&
               NextValue(Value)) {
      // Either implies the splitter over both backends unless
      // --backends narrows it.
      if (!Opts.Backend) {
        Opts.Backend.emplace();
        Opts.BackendHasGpu = true;
      }
      if (Arg == "--tuner-window") {
        const unsigned Window =
            static_cast<unsigned>(std::strtoul(Value.c_str(), nullptr, 10));
        if (Window != 0) // 0 keeps the BackendConfig default
          Opts.Backend->TunerWindow = Window;
      } else if (Value == "auto") {
        Opts.Backend->Split = backend::SplitMode::Auto;
      } else if (Value == "cpu") {
        Opts.Backend->Split = backend::SplitMode::CpuOnly;
      } else if (Value == "gpu") {
        Opts.Backend->Split = backend::SplitMode::GpuOnly;
      } else {
        std::fprintf(stderr, "error: unknown split policy '%s'\n",
                     Value.c_str());
        return false;
      }
    } else if (Arg == "--read-mode" && NextValue(Value)) {
      if (Value == "cpu")
        Opts.ReadMode = restore::DecodeMode::Cpu;
      else if (Value == "warp")
        Opts.ReadMode = restore::DecodeMode::WarpGpu;
      else if (Value == "auto")
        Opts.ReadMode = restore::DecodeMode::Auto;
      else {
        std::fprintf(stderr, "error: unknown read mode '%s'\n",
                     Value.c_str());
        return false;
      }
    } else if (Arg == "--journal" && NextValue(Value)) {
      Opts.JournalPath = Value;
    } else if (Arg == "--checkpoint" && NextValue(Value)) {
      Opts.CheckpointPath = Value;
    } else if (Arg == "--group-commit" && NextValue(Value)) {
      Opts.GroupCommitOps = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--checkpoint-every" && NextValue(Value)) {
      Opts.CheckpointEveryOps = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--tenants" && NextValue(Value)) {
      Opts.Tenants =
          static_cast<unsigned>(std::strtoul(Value.c_str(), nullptr, 10));
    } else if (Arg == "--rounds" && NextValue(Value)) {
      Opts.Rounds = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--index-budget" && NextValue(Value)) {
      Opts.IndexBudget = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--quota" && NextValue(Value)) {
      Opts.QuotaBytes = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--policy" && NextValue(Value)) {
      if (Value == "prioritized")
        Opts.Policy = CachePolicy::Prioritized;
      else if (Value == "lru")
        Opts.Policy = CachePolicy::Lru;
      else {
        std::fprintf(stderr, "error: unknown policy '%s'\n",
                     Value.c_str());
        return false;
      }
    } else if (Arg == "--scenario" && NextValue(Value)) {
      if (!parseScenarioShape(Value, Opts.Scenario)) {
        std::fprintf(stderr, "error: unknown scenario '%s'\n",
                     Value.c_str());
        return false;
      }
    } else if (Arg == "--gc-every" && NextValue(Value)) {
      Opts.GcEvery = std::strtoull(Value.c_str(), nullptr, 10);
    } else if (Arg == "--raw") {
      Opts.RawWrites = true;
    } else if (Arg == "--ftl") {
      Opts.FtlOn = true;
    } else if (Arg == "--ftl-blocks" && NextValue(Value)) {
      Opts.FtlBlocks =
          static_cast<std::uint32_t>(std::strtoul(Value.c_str(), nullptr, 10));
    } else if (Arg == "--ftl-pages-per-block" && NextValue(Value)) {
      Opts.FtlPagesPerBlock =
          static_cast<std::uint32_t>(std::strtoul(Value.c_str(), nullptr, 10));
    } else if (Arg == "--ftl-op" && NextValue(Value)) {
      Opts.FtlOverprovisionPct = std::strtod(Value.c_str(), nullptr);
    } else if (Arg == "--fault-plan" && NextValue(Value)) {
      std::string Error;
      if (!fault::parseFaultPlan(Value, Opts.FaultPlan, Error)) {
        std::fprintf(stderr, "error: bad fault plan: %s\n", Error.c_str());
        return false;
      }
    } else if (Arg == "--threads" && NextValue(Value)) {
      Opts.Threads =
          static_cast<unsigned>(std::strtoul(Value.c_str(), nullptr, 10));
    } else if (Arg == "--chunking" && NextValue(Value)) {
      if (Value == "fixed")
        Opts.Chunking = ChunkingMode::Fixed;
      else if (Value == "rabin")
        Opts.Chunking = ChunkingMode::Rabin;
      else if (Value == "fastcdc")
        Opts.Chunking = ChunkingMode::FastCdc;
      else {
        std::fprintf(stderr, "error: unknown chunking '%s'\n",
                     Value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "error: unknown or incomplete option '%s'\n",
                   Arg.c_str());
      return false;
    }
  }
  if (Opts.Bytes == 0 || Opts.ChunkSize == 0 || Opts.DedupRatio < 1.0 ||
      Opts.CompressRatio < 1.0 || Opts.ReadBatch == 0 ||
      Opts.PipelineDepth == 0 || Opts.Tenants == 0 || Opts.Rounds == 0) {
    std::fprintf(stderr, "error: invalid numeric option\n");
    return false;
  }
  return true;
}

restore::ReadConfig readConfigFor(const Options &Opts) {
  restore::ReadConfig Config;
  Config.BatchDepth = Opts.ReadBatch;
  Config.Mode = Opts.ReadMode;
  Config.ReadaheadChunks = Opts.Readahead;
  return Config;
}

PipelineConfig pipelineConfigFor(const Options &Opts, PipelineMode Mode) {
  PipelineConfig Config;
  Config.Mode = Mode;
  Config.ChunkSize = Opts.ChunkSize;
  Config.Dedup.Index.BinBits = 10;
  Config.VerifyDuplicates = Opts.VerifyDedup;
  Config.ReadCacheBytes = Opts.CacheBytes;
  Config.Chunking = Opts.Chunking;
  Config.PipelineDepth = Opts.PipelineDepth;
  Config.Compress.SubBlocks = Opts.SubBlocks;
  Config.Backend = Opts.Backend;
  // Device-capable split modes need a modelled GPU; on a GPU-less
  // platform (or a cpu-only backend list) the splitter degrades to the
  // forced-CPU split.
  if (Config.Backend && !(Opts.BackendHasGpu && Opts.Plat.Model.Gpu.Present)) {
    Config.Backend->Split = backend::SplitMode::CpuOnly;
    Config.Backend->GpuDevices = 1;
  }
  return Config;
}

/// Footer after the write-side report: how much of the scheduled wall
/// time each lane occupied, and how much of that occupancy ran under
/// the cover of another lane (E6's overlap story).
void printOverlapSummary(const PipelineReport &Report) {
  if (Report.WallSec <= 0.0)
    return;
  static constexpr Resource Lanes[] = {Resource::CpuPool, Resource::Gpu,
                                       Resource::Pcie, Resource::Ssd};
  std::printf("\noverlap (depth %u, wall %.4fs):\n", Report.PipelineDepth,
              Report.WallSec);
  for (const Resource Lane : Lanes) {
    const unsigned I = static_cast<unsigned>(Lane);
    const double Busy = Report.SchedBusySec[I];
    const double Hidden = Report.SchedHiddenSec[I];
    std::printf("  %-4s busy %.4fs (%5.1f%% of wall), hidden behind "
                "other lanes %5.1f%%\n",
                resourceName(Lane), Busy,
                100.0 * Busy / Report.WallSec,
                Busy > 0.0 ? 100.0 * Hidden / Busy : 0.0);
  }
}

/// A backend's tuner rate as "N B/us", or "n/a" when the backend ran no
/// chunks: its rate is then only the tuner's static seed quote.
std::string observedRate(double BytesPerUs, std::uint64_t Chunks) {
  if (Chunks == 0)
    return "n/a";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f B/us", BytesPerUs);
  return Buf;
}

/// Footer after the overlap summary: the splitter's chosen split and
/// the tuner's observed rates (the E12 story in one line).
void printSplitterSummary(const ReductionPipeline &Pipeline) {
  const backend::AutoSplitter *Splitter = Pipeline.splitter();
  if (!Splitter)
    return;
  const backend::SplitterStats &Stats = Splitter->stats();
  std::printf("\nbackend split (%s",
              backend::splitModeName(Splitter->config().Split));
  if (Splitter->deviceCount() > 1)
    std::printf(", %u gpus", Splitter->deviceCount());
  std::printf("): last fraction %.2f gpu / %.2f cpu over %llu batches "
              "(%llu gpu chunks, %llu cpu chunks)\n",
              Stats.Fraction, 1.0 - Stats.Fraction,
              static_cast<unsigned long long>(Stats.Batches),
              static_cast<unsigned long long>(Stats.GpuChunks),
              static_cast<unsigned long long>(Stats.CpuChunks));
  std::printf("  observed rates: cpu %s, gpu %s "
              "(EWMA of marginal pool occupancy)\n",
              observedRate(Stats.CpuRateBytesPerUs, Stats.CpuChunks).c_str(),
              observedRate(Stats.GpuRateBytesPerUs, Stats.GpuChunks).c_str());
}

/// Caller-frame observability sinks for --trace-out / --metrics-out.
/// Only the sinks whose output path was requested are attached, so an
/// unadorned invocation runs with instrumentation fully disabled.
struct ObsOutput {
  obs::TraceRecorder Trace;
  obs::MetricsRegistry Metrics;

  void attach(const Options &Opts, PipelineConfig &Config) {
    if (!Opts.TraceOutPath.empty())
      Config.Trace = &Trace;
    if (!Opts.MetricsOutPath.empty())
      Config.Metrics = &Metrics;
  }

  /// Writes the requested files. Returns false on I/O failure.
  bool write(const Options &Opts) const {
    if (!Opts.TraceOutPath.empty()) {
      if (!Trace.writeChromeJson(Opts.TraceOutPath)) {
        std::fprintf(stderr, "error: cannot write trace %s\n",
                     Opts.TraceOutPath.c_str());
        return false;
      }
      std::printf("trace: %zu spans -> %s (open in Perfetto or "
                  "chrome://tracing)\n",
                  Trace.spanCount(), Opts.TraceOutPath.c_str());
    }
    if (!Opts.MetricsOutPath.empty()) {
      if (!Metrics.writePrometheus(Opts.MetricsOutPath)) {
        std::fprintf(stderr, "error: cannot write metrics %s\n",
                     Opts.MetricsOutPath.c_str());
        return false;
      }
      std::printf("metrics: %s (Prometheus text format)\n",
                  Opts.MetricsOutPath.c_str());
    }
    return true;
  }
};

/// Caller-frame fault injector for --fault-plan: it must outlive the
/// pipeline, like the observability sinks.
struct FaultSetup {
  std::optional<fault::FaultInjector> Injector;

  void attach(const Options &Opts, PipelineConfig &Config) {
    if (Opts.FaultPlan.empty())
      return;
    Injector.emplace(Opts.FaultPlan);
    Config.Faults = &*Injector;
  }

  void summary() const {
    if (!Injector)
      return;
    std::printf("\nfault plan (seed %llu): %llu faults injected",
                static_cast<unsigned long long>(Injector->plan().Seed),
                static_cast<unsigned long long>(Injector->injectedTotal()));
    for (unsigned K = 0; K < fault::FaultKindCount; ++K) {
      const auto Kind = static_cast<fault::FaultKind>(K);
      if (const std::uint64_t N = Injector->injected(Kind))
        std::printf(", %s=%llu", fault::faultKindName(Kind),
                    static_cast<unsigned long long>(N));
    }
    std::printf("\n");
  }
};

PipelineMode resolveMode(const Options &Opts) {
  if (Opts.Mode)
    return *Opts.Mode;
  // An explicit split decides the compress stage, not the mode —
  // calibration across modes would be answering the wrong question.
  // Dedup stays on the CPU pool (pass --mode gpu-dedup explicitly to
  // offload it).
  if (Opts.Backend) {
    std::printf("note: --backends/--split set the compress split; using "
                "cpu-only writes for the other stages (pass --mode to "
                "override)\n\n");
    return PipelineMode::CpuOnly;
  }
  // The sub-block count applies on the CPU compress path; the GPU lane
  // kernel frames one sub-block per lane. Calibration would otherwise
  // pick a GPU store framed at the lane count, not the count the user
  // asked for.
  if (Opts.SubBlocks > 1) {
    std::printf("note: --sub-blocks %u frames chunks on the CPU "
                "compress path; using cpu-only writes (pass --mode to "
                "override)\n\n",
                Opts.SubBlocks);
    return PipelineMode::CpuOnly;
  }
  CalibratorConfig CalConfig;
  CalConfig.Base = pipelineConfigFor(Opts, PipelineMode::CpuOnly);
  CalConfig.DedupRatio = Opts.DedupRatio;
  CalConfig.CompressRatio = Opts.CompressRatio;
  const CalibrationResult Result = calibrate(Opts.Plat, CalConfig);
  std::printf("calibration on %s:\n%s\n", Opts.Plat.Name.c_str(),
              Result.summary().c_str());
  return Result.BestMode;
}

ByteVector makeStream(const Options &Opts) {
  WorkloadConfig Load;
  Load.BlockSize = Opts.ChunkSize;
  Load.TotalBytes = Opts.Bytes;
  Load.DedupRatio = Opts.DedupRatio;
  Load.CompressRatio = Opts.CompressRatio;
  Load.Seed = Opts.Seed;
  return VdbenchStream(Load).generateAll();
}

int commandInfo() {
  std::printf("padre — parallel inline data reduction (PaCT'17 "
              "reproduction)\n\nplatform profiles:\n");
  for (const Platform &Plat : Platform::allProfiles()) {
    const GpuCosts &Gpu = Plat.Model.Gpu;
    std::printf("  %-36s gpu=%s", Plat.Name.c_str(),
                Gpu.Present ? "yes" : "no");
    if (Gpu.Present)
      std::printf(" launch=%.0fus lzLit=%.2fns/B mem=%.0fMiB pcie=%.1fGB/s",
                  Gpu.LaunchUs, Gpu.LzLiteralPerByteNs, Gpu.DeviceMemoryMiB,
                  Plat.Model.Pcie.GigabytesPerSec);
    std::printf("\n");
  }
  const CostModel Model;
  std::printf("\npaper CPU model: %u threads, request=%.0fus/chunk, "
              "sha1=%.2fns/B, probe=%.1fus, lz(lit)=%.1fns/B\n",
              Model.Cpu.Threads, Model.Cpu.RequestOverheadUs,
              Model.Cpu.HashPerByteNs, Model.Cpu.IndexProbeUs,
              Model.Cpu.LzLiteralPerByteNs);
  std::printf("paper SSD model: %.0fK IOPS (4K), %.0f MB/s sequential "
              "write\n",
              1e3 / Model.Ssd.RandWrite4KUs / 1e3 * 1e3,
              Model.Ssd.SeqWriteMBps);
  return 0;
}

int commandCalibrate(const Options &Opts) {
  CalibratorConfig CalConfig;
  CalConfig.Base = pipelineConfigFor(Opts, PipelineMode::CpuOnly);
  CalConfig.DedupRatio = Opts.DedupRatio;
  CalConfig.CompressRatio = Opts.CompressRatio;
  const CalibrationResult Result = calibrate(Opts.Plat, CalConfig);
  std::printf("platform: %s\n%s", Opts.Plat.Name.c_str(),
              Result.summary().c_str());
  return 0;
}

int commandRun(const Options &OptsIn) {
  Options Opts = OptsIn;
  if (Opts.Threads != 0)
    Opts.Plat.Model.Cpu.Threads = Opts.Threads;
  const PipelineMode Mode = resolveMode(Opts);
  const ByteVector Data = makeStream(Opts);
  ObsOutput Obs;
  FaultSetup Faults;
  PipelineConfig Config = pipelineConfigFor(Opts, Mode);
  Obs.attach(Opts, Config);
  Faults.attach(Opts, Config);
  ReductionPipeline Pipeline(Opts.Plat, Config);
  const fault::Status WriteStatus =
      Pipeline.write(ByteSpan(Data.data(), Data.size()));
  const fault::Status FinishStatus = Pipeline.finish();
  if (!WriteStatus.ok() || !FinishStatus.ok()) {
    const fault::Status &Bad = WriteStatus.ok() ? FinishStatus : WriteStatus;
    std::fprintf(stderr, "error: write failed: %s (detail %llu)\n",
                 Bad.message(),
                 static_cast<unsigned long long>(Bad.detail()));
    return 1;
  }
  if (!Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size()))) {
    std::fprintf(stderr, "error: read-back verification FAILED\n");
    return 1;
  }
  std::printf("mode %s on %s, %s stream (dedup %.1f, comp %.1f)\n\n",
              pipelineModeName(Mode), Opts.Plat.Name.c_str(),
              formatSize(Data.size()).c_str(), Opts.DedupRatio,
              Opts.CompressRatio);
  const PipelineReport WriteReport = Pipeline.report();
  std::printf("%s\n", WriteReport.toString().c_str());
  printOverlapSummary(WriteReport);
  printSplitterSummary(Pipeline);
  std::printf("\nread-back verified byte-exact\n");

  // Read-mix: restore the whole stream through the batched read
  // pipeline and report the read side next to the write side.
  restore::ReadPipeline Reader(Pipeline, readConfigFor(Opts));
  const auto Restored = Reader.readStream(Pipeline.recipe());
  if (!Restored || *Restored != Data) {
    std::fprintf(stderr, "error: batched restore mismatch\n");
    return 1;
  }
  std::printf("\nrestore (decode mode %s):\n%s\n",
              restore::decodeModeName(Reader.effectiveMode()),
              Reader.report().toString().c_str());
  Faults.summary();
  return Obs.write(Opts) ? 0 : 1;
}

int commandVolume(const Options &OptsIn) {
  Options Opts = OptsIn;
  Opts.Chunking = ChunkingMode::Fixed; // LBA volumes need fixed chunks
  const PipelineMode Mode = resolveMode(Opts);
  ObsOutput Obs;
  FaultSetup Faults;
  PipelineConfig Config = pipelineConfigFor(Opts, Mode);
  Obs.attach(Opts, Config);
  Faults.attach(Opts, Config);
  ReductionPipeline Pipeline(Opts.Plat, Config);
  VolumeConfig VolConfig;
  VolConfig.BlockCount = Opts.Bytes / Opts.ChunkSize;
  Volume Vol(Pipeline, VolConfig);

  const ByteVector Data = makeStream(Opts);
  const std::uint64_t Blocks = Data.size() / Opts.ChunkSize;
  if (!Vol.writeBlocks(0, ByteSpan(Data.data(), Data.size()))) {
    std::fprintf(stderr, "error: initial write rejected\n");
    return 1;
  }
  // Overwrite the first quarter and TRIM the last quarter.
  Vol.writeBlocks(0, ByteSpan(Data.data() + Data.size() / 2,
                              Blocks / 4 * Opts.ChunkSize));
  Vol.trim(Blocks - Blocks / 4, Blocks / 4);
  const std::size_t Collected = Vol.collectGarbage();
  Vol.flush();

  const VolumeStats Stats = Vol.stats();
  std::printf("volume: %llu blocks, %llu mapped, %llu live chunks, "
              "%zu collected by GC\n",
              static_cast<unsigned long long>(Vol.blockCount()),
              static_cast<unsigned long long>(Stats.MappedBlocks),
              static_cast<unsigned long long>(Stats.LiveChunks),
              Collected);
  std::printf("space: %s logical -> %s physical (amplification %.2f)\n",
              formatSize(Stats.LogicalBytes).c_str(),
              formatSize(Stats.PhysicalBytes).c_str(),
              Stats.spaceAmplification());

  if (!Opts.ImagePath.empty()) {
    const ImageResult Saved =
        saveVolumeImage(Opts.ImagePath, Vol, Pipeline);
    if (!Saved.Ok) {
      std::fprintf(stderr, "error: save failed: %s\n",
                   Saved.Message.c_str());
      return 1;
    }
    ReductionPipeline Fresh(Opts.Plat, pipelineConfigFor(Opts, Mode));
    Volume Restored(Fresh, VolConfig);
    const ImageResult Loaded =
        loadVolumeImage(Opts.ImagePath, Fresh, Restored);
    if (!Loaded.Ok) {
      std::fprintf(stderr, "error: load failed: %s\n",
                   Loaded.Message.c_str());
      return 1;
    }
    const auto Original = Vol.readBlocks(0, Vol.blockCount());
    const auto RoundTrip = Restored.readBlocks(0, Restored.blockCount());
    if (!Original || !RoundTrip || *Original != *RoundTrip) {
      std::fprintf(stderr, "error: image round trip mismatch\n");
      return 1;
    }
    std::printf("image: saved to %s and restored byte-exact\n",
                Opts.ImagePath.c_str());
  }
  Faults.summary();
  return Obs.write(Opts) ? 0 : 1;
}

int commandRestore(const Options &OptsIn) {
  Options Opts = OptsIn;
  Opts.Chunking = ChunkingMode::Fixed; // LBA volumes need fixed chunks
  if (Opts.CacheBytes == 0)
    Opts.CacheBytes = 32ull << 20; // restore demo default: 32 MiB cache
  const PipelineMode Mode = resolveMode(Opts);
  ObsOutput Obs;
  FaultSetup Faults;
  PipelineConfig Config = pipelineConfigFor(Opts, Mode);
  Obs.attach(Opts, Config);
  Faults.attach(Opts, Config);
  ReductionPipeline Pipeline(Opts.Plat, Config);
  VolumeConfig VolConfig;
  VolConfig.BlockCount = Opts.Bytes / Opts.ChunkSize;
  Volume Vol(Pipeline, VolConfig);

  const ByteVector Data = makeStream(Opts);
  const std::uint64_t Blocks = Data.size() / Opts.ChunkSize;
  if (!Vol.writeBlocks(0, ByteSpan(Data.data(), Data.size()))) {
    std::fprintf(stderr, "error: initial write rejected\n");
    return 1;
  }
  Vol.flush();

  restore::VolumeReader Reader(Vol, readConfigFor(Opts));
  std::printf("restore on %s: %s volume, batch depth %zu, readahead "
              "%zu, %s cache, decode mode %s\n",
              Opts.Plat.Name.c_str(), formatSize(Data.size()).c_str(),
              Opts.ReadBatch, Opts.Readahead,
              formatSize(Opts.CacheBytes).c_str(),
              restore::decodeModeName(Reader.pipeline().effectiveMode()));

  // Cold pass: everything comes off flash. Rebaseline after the
  // writes so the report covers only the reads.
  Reader.pipeline().resetMeasurement();
  auto Restored = Reader.readBlocks(0, Blocks);
  if (!Restored || *Restored != Data) {
    std::fprintf(stderr, "error: cold restore mismatch\n");
    return 1;
  }
  std::printf("\ncold pass (SSD + decode):\n%s\n",
              Reader.pipeline().report().toString().c_str());

  // Warm pass: the cache front tier absorbs what fits.
  Reader.pipeline().resetMeasurement();
  Restored = Reader.readBlocks(0, Blocks);
  if (!Restored || *Restored != Data) {
    std::fprintf(stderr, "error: warm restore mismatch\n");
    return 1;
  }
  std::printf("\nwarm pass (cache front tier):\n%s\n",
              Reader.pipeline().report().toString().c_str());
  std::printf("\nboth passes verified byte-exact\n");
  Faults.summary();
  return Obs.write(Opts) ? 0 : 1;
}

int commandRecover(const Options &OptsIn) {
  Options Opts = OptsIn;
  Opts.Chunking = ChunkingMode::Fixed; // LBA volumes need fixed chunks
  const PipelineMode Mode = resolveMode(Opts);
  ObsOutput Obs;
  FaultSetup Faults;
  PipelineConfig Config = pipelineConfigFor(Opts, Mode);
  Obs.attach(Opts, Config);
  Faults.attach(Opts, Config);
  ReductionPipeline Pipeline(Opts.Plat, Config);
  VolumeConfig VolConfig;
  VolConfig.BlockCount = Opts.Bytes / Opts.ChunkSize;
  Volume Vol(Pipeline, VolConfig);

  journal::JournaledVolumeConfig JvConfig;
  JvConfig.JournalPath = Opts.JournalPath;
  JvConfig.CheckpointPath = Opts.CheckpointPath;
  JvConfig.GroupCommitOps = Opts.GroupCommitOps;
  JvConfig.CheckpointEveryOps = Opts.CheckpointEveryOps;
  JvConfig.Faults = Faults.Injector ? &*Faults.Injector : nullptr;
  if (Config.Metrics)
    JvConfig.Metrics = Config.Metrics;
  journal::JournaledVolume Jv(Vol, Pipeline, JvConfig);
  if (!Jv.ctorStatus().ok()) {
    std::fprintf(stderr, "error: cannot create journal %s: %s\n",
                 Opts.JournalPath.c_str(), Jv.ctorStatus().message());
    return 1;
  }

  // Journaled write phase: one op per 8-block extent, tracking what was
  // acknowledged so recovery can be verified bit-for-bit.
  const ByteVector Data = makeStream(Opts);
  const std::uint64_t Blocks = Data.size() / Opts.ChunkSize;
  const std::uint64_t OpBlocks = 8;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> AckedExtents;
  std::uint64_t Ops = 0;
  for (std::uint64_t Lba = 0; Lba + OpBlocks <= Blocks; Lba += OpBlocks) {
    const auto Seq = Jv.writeBlocks(
        Lba, ByteSpan(Data.data() + Lba * Opts.ChunkSize,
                      OpBlocks * Opts.ChunkSize));
    if (!Seq.ok()) {
      std::printf("write op %llu halted: %s (the crash)\n",
                  static_cast<unsigned long long>(Ops),
                  Seq.status().message());
      break;
    }
    ++Ops;
  }
  if (!Jv.halted() && !Jv.sync().ok()) {
    std::fprintf(stderr, "error: final sync failed\n");
    return 1;
  }
  for (std::uint64_t Lba = 0; Lba + OpBlocks <= Blocks; Lba += OpBlocks) {
    const std::uint64_t Seq = Lba / OpBlocks + 1;
    if (Seq <= Jv.ackedSeq())
      AckedExtents.emplace_back(Lba, OpBlocks);
  }
  std::printf("journaled writes on %s: %llu ops, acked seq %llu, "
              "committed seq %llu, %llu checkpoints%s\n",
              Opts.Plat.Name.c_str(), static_cast<unsigned long long>(Ops),
              static_cast<unsigned long long>(Jv.ackedSeq()),
              static_cast<unsigned long long>(Jv.committedSeq()),
              static_cast<unsigned long long>(Jv.checkpointsTaken()),
              Jv.halted() ? ", HALTED by crash injection" : "");

  // Recovery into a fresh pipeline/volume pair.
  ReductionPipeline FreshPipe(Opts.Plat, pipelineConfigFor(Opts, Mode));
  Volume Restored(FreshPipe, VolConfig);
  const journal::RecoveryReport Report = journal::recoverVolume(
      Opts.JournalPath, Opts.CheckpointPath, FreshPipe, Restored,
      JvConfig.Metrics);
  if (!Report.ok()) {
    std::fprintf(stderr, "error: recovery failed: %s (detail %llu)\n",
                 Report.St.message(),
                 static_cast<unsigned long long>(Report.St.detail()));
    return 1;
  }
  std::printf("recovery: checkpoint %s (seq %llu), %llu records "
              "replayed, %llu skipped, %llu torn bytes discarded, "
              "modelled %.2f ms\n",
              Report.CheckpointLoaded ? "loaded" : "absent",
              static_cast<unsigned long long>(Report.CheckpointSeq),
              static_cast<unsigned long long>(Report.ReplayedRecords),
              static_cast<unsigned long long>(Report.SkippedRecords),
              static_cast<unsigned long long>(Report.DiscardedTailBytes),
              Report.ModelledMicros / 1e3);

  // Every acknowledged extent must read back bit-identical.
  for (const auto &[Lba, Count] : AckedExtents) {
    const auto Read = Restored.readBlocks(Lba, Count);
    if (!Read ||
        !std::equal(Read->begin(), Read->end(),
                    Data.begin() + Lba * Opts.ChunkSize)) {
      std::fprintf(stderr,
                   "error: acked extent at LBA %llu not recovered\n",
                   static_cast<unsigned long long>(Lba));
      return 1;
    }
  }
  std::printf("verified: all %zu acknowledged extents recovered "
              "bit-exact\n",
              AckedExtents.size());
  Faults.summary();
  return Obs.write(Opts) ? 0 : 1;
}

/// One service-demo dispatch run: RunBlocks blocks whose contents are
/// derived from \p Tag (deterministic across invocations).
constexpr std::uint64_t ServeRunBlocks = 8;

ByteVector serveRun(const Options &Opts, std::uint64_t Tag) {
  ByteVector Data(ServeRunBlocks * Opts.ChunkSize);
  for (std::uint64_t I = 0; I < ServeRunBlocks; ++I) {
    Random Rng((Tag + I) * 7919 + Opts.Seed);
    Rng.fillBytes(Data.data() + I * Opts.ChunkSize, Opts.ChunkSize);
  }
  return Data;
}

int commandServe(const Options &OptsIn) {
  Options Opts = OptsIn;
  Opts.Chunking = ChunkingMode::Fixed; // LBA volumes need fixed chunks
  const PipelineMode Mode = resolveMode(Opts);
  ObsOutput Obs;
  FaultSetup Faults;
  ServiceConfig Config;
  Config.Pipeline = pipelineConfigFor(Opts, Mode);
  Config.IndexMemoryBudget = Opts.IndexBudget;
  Config.Policy = Opts.Policy;
  Obs.attach(Opts, Config.Pipeline);
  Faults.attach(Opts, Config.Pipeline);
  VolumeService Service(Opts.Plat, Config);

  // Tenant 0 rewrites one working set every round (a hot, high-
  // locality stream); the rest write fresh blocks (cold streams). With
  // an --index-budget this is the cache tier's decision to make.
  TenantConfig Tenant;
  Tenant.Blocks = std::max<std::uint64_t>(Opts.Rounds * ServeRunBlocks,
                                          ServeRunBlocks);
  Tenant.QuotaBytes = Opts.QuotaBytes;
  std::vector<VolumeService::TenantId> Ids;
  for (unsigned I = 0; I < Opts.Tenants; ++I)
    Ids.push_back(
        Service.addTenant("tenant" + std::to_string(I), Tenant));

  for (std::uint64_t Round = 0; Round < Opts.Rounds; ++Round) {
    for (unsigned I = 0; I < Opts.Tenants; ++I) {
      const bool Hot = I == 0;
      const std::uint64_t Tag =
          Hot ? 1000 : 1'000'000 * I + Round * ServeRunBlocks;
      const ByteVector Run = serveRun(Opts, Tag);
      const std::uint64_t Lba = Hot ? 0 : Round * ServeRunBlocks;
      // Quota rejections are part of the demo, not an error.
      Service.submitWrite(Ids[I], Lba,
                          ByteSpan(Run.data(), Run.size()));
    }
    Service.pump();
  }
  Service.finish();
  const ServiceSweepStats Sweep = Service.sweepDeferred();

  std::printf("service on %s: %u tenants, %llu rounds, policy %s, "
              "budget %s\n\n",
              Opts.Plat.Name.c_str(), Opts.Tenants,
              static_cast<unsigned long long>(Service.rounds()),
              Opts.Policy == CachePolicy::Prioritized ? "prioritized"
                                                      : "lru",
              Opts.IndexBudget == 0
                  ? "unlimited"
                  : formatSize(Opts.IndexBudget).c_str());
  std::printf("%-10s %12s %12s %12s %10s %9s %8s\n", "tenant",
              "admitted", "deferred", "rejected", "locality", "resident",
              "tracked");
  for (const VolumeService::TenantId Id : Ids) {
    const TenantStats Stats = Service.tenantStats(Id);
    std::printf("%-10s %12s %12s %12s %10.3f %9s %8zu\n",
                Stats.Name.c_str(),
                formatSize(Stats.AdmittedBytes).c_str(),
                formatSize(Stats.DeferredBytes).c_str(),
                formatSize(Stats.RejectedBytes).c_str(),
                Stats.LocalityScore, Stats.Resident ? "yes" : "no",
                Stats.TrackedEntries);
  }
  std::printf("\nsweep: %llu tenants, %llu blocks reprocessed, %llu "
              "chunks collected, %llu entries expired\n",
              static_cast<unsigned long long>(Sweep.TenantsSwept),
              static_cast<unsigned long long>(Sweep.BlocksProcessed),
              static_cast<unsigned long long>(Sweep.ChunksCollected),
              static_cast<unsigned long long>(Sweep.EntriesExpired));

  std::printf("\n%s\n", Service.pipeline().report().toString().c_str());
  Faults.summary();
  return Obs.write(Opts) ? 0 : 1;
}

int commandTenant(const Options &OptsIn) {
  Options Opts = OptsIn;
  Opts.Chunking = ChunkingMode::Fixed; // LBA volumes need fixed chunks
  const PipelineMode Mode = resolveMode(Opts);
  const ByteVector Data = makeStream(Opts);
  const std::uint64_t Blocks = Data.size() / Opts.ChunkSize;
  const std::uint64_t ExtentBlocks = 64;

  // Reference: the same stream straight through a Volume.
  ReductionPipeline DirectPipe(Opts.Plat,
                               pipelineConfigFor(Opts, Mode));
  VolumeConfig VolConfig;
  VolConfig.BlockCount = Blocks;
  Volume Direct(DirectPipe, VolConfig);
  for (std::uint64_t Lba = 0; Lba < Blocks; Lba += ExtentBlocks) {
    const std::uint64_t Count = std::min(ExtentBlocks, Blocks - Lba);
    if (!Direct.writeBlocks(Lba,
                            ByteSpan(Data.data() + Lba * Opts.ChunkSize,
                                     Count * Opts.ChunkSize))) {
      std::fprintf(stderr, "error: direct write rejected\n");
      return 1;
    }
  }
  Direct.flush();

  // Candidate: one tenant through the service.
  ServiceConfig Config;
  Config.Pipeline = pipelineConfigFor(Opts, Mode);
  VolumeService Service(Opts.Plat, Config);
  TenantConfig Tenant;
  Tenant.Blocks = Blocks;
  const auto Id = Service.addTenant("tenant0", Tenant);
  for (std::uint64_t Lba = 0; Lba < Blocks; Lba += ExtentBlocks) {
    const std::uint64_t Count = std::min(ExtentBlocks, Blocks - Lba);
    if (!Service.submitWrite(Id,
                             Lba,
                             ByteSpan(Data.data() + Lba * Opts.ChunkSize,
                                      Count * Opts.ChunkSize))) {
      std::fprintf(stderr, "error: service write rejected\n");
      return 1;
    }
  }
  Service.finish();

  const PipelineReport Ref = DirectPipe.report();
  const PipelineReport Svc = Service.pipeline().report();
  std::printf("single-tenant parity on %s: %s stream\n\n",
              Opts.Plat.Name.c_str(), formatSize(Data.size()).c_str());
  bool Match = Ref.UniqueChunks == Svc.UniqueChunks &&
               Ref.DupChunks == Svc.DupChunks &&
               Ref.DupFromBuffer == Svc.DupFromBuffer &&
               Ref.DupFromTree == Svc.DupFromTree &&
               Ref.StoredBytes == Svc.StoredBytes;
  std::printf("%-22s %16s %16s\n", "counter", "direct volume",
              "service");
  const auto Row = [&](const char *Name, std::uint64_t A,
                       std::uint64_t B) {
    std::printf("%-22s %16llu %16llu%s\n", Name,
                static_cast<unsigned long long>(A),
                static_cast<unsigned long long>(B),
                A == B ? "" : "   <-- MISMATCH");
  };
  Row("unique chunks", Ref.UniqueChunks, Svc.UniqueChunks);
  Row("dup chunks", Ref.DupChunks, Svc.DupChunks);
  Row("dup (buffer)", Ref.DupFromBuffer, Svc.DupFromBuffer);
  Row("dup (tree)", Ref.DupFromTree, Svc.DupFromTree);
  Row("stored bytes", Ref.StoredBytes, Svc.StoredBytes);
  static constexpr Resource Lanes[] = {Resource::CpuPool, Resource::Gpu,
                                       Resource::Pcie, Resource::Ssd,
                                       Resource::IndexLock};
  for (const Resource Lane : Lanes) {
    const double A = DirectPipe.ledger().busyMicros(Lane);
    const double B = Service.pipeline().ledger().busyMicros(Lane);
    Match = Match && A == B;
    std::printf("%-22s %16.3f %16.3f%s\n", resourceName(Lane), A, B,
                A == B ? "" : "   <-- MISMATCH");
  }
  const auto DirectRead = Direct.readBlocks(0, Blocks);
  const auto ServiceRead = Service.readBlocks(Id, 0, Blocks);
  const bool BytesMatch = DirectRead && ServiceRead &&
                          *DirectRead == *ServiceRead &&
                          std::equal(DirectRead->begin(),
                                     DirectRead->end(), Data.begin());
  Match = Match && BytesMatch;
  std::printf("\nread-back: %s\n",
              BytesMatch ? "byte-exact on both paths"
                         : "MISMATCH between paths");
  if (!Match) {
    std::fprintf(stderr, "error: service diverged from the direct "
                         "volume path\n");
    return 1;
  }
  std::printf("parity: PASS — service results and ledger charges are "
              "bit-identical\n");
  return 0;
}

} // namespace

int commandTrace(const Options &OptsIn) {
  Options Opts = OptsIn;
  Opts.Chunking = ChunkingMode::Fixed; // LBA volumes need fixed chunks
  const PipelineMode Mode = resolveMode(Opts);
  ObsOutput Obs;
  FaultSetup Faults;
  PipelineConfig Config = pipelineConfigFor(Opts, Mode);
  Obs.attach(Opts, Config);
  Faults.attach(Opts, Config);
  ReductionPipeline Pipeline(Opts.Plat, Config);
  VolumeConfig VolConfig;
  VolConfig.BlockCount = Opts.Bytes / Opts.ChunkSize;
  Volume Vol(Pipeline, VolConfig);

  TraceLog Log;
  if (!Opts.TracePath.empty()) {
    std::FILE *File = std::fopen(Opts.TracePath.c_str(), "rb");
    if (!File) {
      std::fprintf(stderr, "error: cannot open trace %s\n",
                   Opts.TracePath.c_str());
      return 1;
    }
    std::string Text;
    char Buffer[4096];
    std::size_t Read;
    while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
      Text.append(Buffer, Read);
    std::fclose(File);
    const auto Parsed = TraceLog::parse(Text);
    if (!Parsed) {
      std::fprintf(stderr, "error: malformed trace file\n");
      return 1;
    }
    Log = *Parsed;
  } else {
    TraceSynthesisConfig Synth;
    Synth.Operations = Opts.TraceOps;
    Synth.VolumeBlocks = VolConfig.BlockCount;
    Synth.Seed = Opts.Seed;
    Log = TraceLog::synthesize(Synth);
  }

  // Reads replay through the batched restore pipeline (the write path
  // stays the volume's own).
  restore::VolumeReader Reader(Vol, readConfigFor(Opts));
  const TraceRunStats Stats = replayTrace(Vol, Log, &Reader.pipeline());
  Vol.collectGarbage();
  Vol.flush();
  // Under a fault plan, scrub-and-repair: injected destage bit-flips
  // are expected and repairable from the cache; plain scrub would
  // report them as (unexplained) corruption.
  Volume::ScrubReport Scrub;
  if (Faults.Injector) {
    const Volume::ScrubRepairReport Repair = Vol.scrubAndRepair();
    Scrub.ChunksScanned = Repair.ChunksScanned;
    Scrub.CorruptChunks = Repair.LostChunks; // repaired ones healed
    Scrub.BadLocations = Repair.LostLocations;
    std::printf("scrub-and-repair: %llu corrupt, %llu repaired, %llu "
                "lost\n",
                static_cast<unsigned long long>(Repair.CorruptChunks),
                static_cast<unsigned long long>(Repair.RepairedChunks),
                static_cast<unsigned long long>(Repair.LostChunks));
  } else {
    Scrub = Vol.scrub();
  }
  const VolumeStats VolStats = Vol.stats();

  std::printf("replayed %zu records: %llu writes, %llu reads, %llu "
              "trims (%llu out of range)\n",
              Log.Records.size(),
              static_cast<unsigned long long>(Stats.Writes),
              static_cast<unsigned long long>(Stats.Reads),
              static_cast<unsigned long long>(Stats.Trims),
              static_cast<unsigned long long>(Stats.OutOfRange));
  std::printf("verification: %llu read failures, %llu content "
              "mismatches; scrub: %llu/%llu corrupt\n",
              static_cast<unsigned long long>(Stats.ReadFailures),
              static_cast<unsigned long long>(Stats.VerifyFailures),
              static_cast<unsigned long long>(Scrub.CorruptChunks),
              static_cast<unsigned long long>(Scrub.ChunksScanned));
  std::printf("space: %s logical -> %s physical (amplification %.2f)\n",
              formatSize(VolStats.LogicalBytes).c_str(),
              formatSize(VolStats.PhysicalBytes).c_str(),
              VolStats.spaceAmplification());
  std::printf("%s\n", Pipeline.report().toString().c_str());
  // Read-side counters only: the restore busy window here overlaps
  // the replay's writes, so its makespan would describe the mix, not
  // the reads.
  const restore::ReadReport ReadStats = Reader.pipeline().report();
  std::printf("restore reads: mode %s, %llu chunks, cache hits %.0f%%, "
              "coalesced runs %llu, decode batches cpu=%llu warp=%llu\n",
              restore::decodeModeName(Reader.pipeline().effectiveMode()),
              static_cast<unsigned long long>(ReadStats.ChunksRequested),
              ReadStats.cacheHitRate() * 100.0,
              static_cast<unsigned long long>(ReadStats.CoalescedRuns),
              static_cast<unsigned long long>(ReadStats.CpuBatches),
              static_cast<unsigned long long>(ReadStats.WarpBatches));
  Faults.summary();
  if (!Obs.write(Opts))
    return 1;
  return Stats.clean() && Scrub.CorruptChunks == 0 ? 0 : 1;
}

int commandReplay(const Options &OptsIn) {
  Options Opts = OptsIn;
  Opts.Chunking = ChunkingMode::Fixed; // LBA volumes need fixed chunks
  const PipelineMode Mode = resolveMode(Opts);
  ObsOutput Obs;
  FaultSetup Faults;
  PipelineConfig Config = pipelineConfigFor(Opts, Mode);
  if (Opts.FtlOn) {
    ssd::FtlConfig Ftl;
    Ftl.Blocks = Opts.FtlBlocks;
    Ftl.PagesPerBlock = Opts.FtlPagesPerBlock;
    Ftl.OverprovisionPct = Opts.FtlOverprovisionPct;
    if (!ssd::isValidFtlConfig(Ftl)) {
      std::fprintf(stderr, "error: invalid FTL geometry\n");
      return 2;
    }
    Config.Ftl = Ftl;
  }
  Obs.attach(Opts, Config);
  Faults.attach(Opts, Config);
  ReductionPipeline Pipeline(Opts.Plat, Config);
  VolumeConfig VolConfig;
  VolConfig.BlockCount = Opts.Bytes / Opts.ChunkSize;
  Volume Vol(Pipeline, VolConfig);

  TraceLog Log;
  if (!Opts.TracePath.empty()) {
    std::FILE *File = std::fopen(Opts.TracePath.c_str(), "rb");
    if (!File) {
      std::fprintf(stderr, "error: cannot open trace %s\n",
                   Opts.TracePath.c_str());
      return 1;
    }
    std::string Text;
    char Buffer[4096];
    std::size_t Read;
    while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
      Text.append(Buffer, Read);
    std::fclose(File);
    const auto Parsed = TraceLog::parseChecked(Text);
    if (!Parsed) {
      std::fprintf(stderr, "error: %s (line %llu) in %s\n",
                   Parsed.status().message(),
                   static_cast<unsigned long long>(Parsed.status().detail()),
                   Opts.TracePath.c_str());
      return 1;
    }
    const fault::Status Valid = Parsed->validate(VolConfig.BlockCount);
    if (!Valid.ok()) {
      std::fprintf(stderr, "error: %s (record %llu) in %s\n",
                   Valid.message(),
                   static_cast<unsigned long long>(Valid.detail()),
                   Opts.TracePath.c_str());
      return 1;
    }
    Log = *Parsed;
  } else {
    ScenarioConfig Scen;
    Scen.Shape = Opts.Scenario;
    Scen.Operations = Opts.TraceOps;
    Scen.VolumeBlocks = VolConfig.BlockCount;
    Scen.Seed = Opts.Seed;
    Log = synthesizeScenario(Scen);
  }

  ReplayConfig Replay;
  Replay.RawWrites = Opts.RawWrites;
  Replay.GcEveryOps = Opts.GcEvery;
  const TimedReplayReport Report = replayTraceTimed(Vol, Log, Replay);
  const TraceRunStats &Stats = Report.Stats;

  std::printf("replayed %zu records (%s writes): %llu writes, %llu "
              "reads, %llu trims (%llu out of range)\n",
              Log.Records.size(), Opts.RawWrites ? "raw" : "reduced",
              static_cast<unsigned long long>(Stats.Writes),
              static_cast<unsigned long long>(Stats.Reads),
              static_cast<unsigned long long>(Stats.Trims),
              static_cast<unsigned long long>(Stats.OutOfRange));
  std::printf("verification: %llu read failures, %llu content "
              "mismatches\n",
              static_cast<unsigned long long>(Stats.ReadFailures),
              static_cast<unsigned long long>(Stats.VerifyFailures));
  if (Report.GcRuns)
    std::printf("volume GC: %llu passes collected %llu chunks\n",
                static_cast<unsigned long long>(Report.GcRuns),
                static_cast<unsigned long long>(Report.ChunksCollected));
  std::printf("latency (modelled, open-loop): p50 %.1f us, p95 %.1f us, "
              "p99 %.1f us, mean %.1f us, max %.1f us\n",
              Report.P50Us, Report.P95Us, Report.P99Us, Report.MeanUs,
              Report.MaxUs);
  std::printf("makespan %.2f ms over %.2f ms of arrivals (service %.2f "
              "ms)\n",
              Report.WallUs / 1000.0,
              Log.Records.empty()
                  ? 0.0
                  : static_cast<double>(Log.Records.back().ArrivalUs) /
                        1000.0,
              Report.ServiceUs / 1000.0);

  const SsdModel &Ssd = Pipeline.ssd();
  if (const ssd::Ftl *Ftl = Ssd.ftl()) {
    const ssd::Ftl::Counters &C = Ftl->counters();
    std::printf("ftl: measured WA %.3f (%llu host + %llu GC pages), "
                "%llu erases in %llu GC runs, %llu wear migrations\n",
                Ftl->measuredWaf(),
                static_cast<unsigned long long>(C.HostPages),
                static_cast<unsigned long long>(C.GcPages),
                static_cast<unsigned long long>(C.Erases),
                static_cast<unsigned long long>(C.GcRuns),
                static_cast<unsigned long long>(C.WearMigrations));
    std::printf("ftl: erase spread %llu (wear-level bound %u), %llu "
                "free blocks, %.2f%% of erase budget used\n",
                static_cast<unsigned long long>(Ftl->eraseSpread()),
                Ftl->config().WearDeltaLimit,
                static_cast<unsigned long long>(Ftl->freeBlocks()),
                Ftl->lifetimeFractionUsed() * 100.0);
    const double Used = Ftl->lifetimeFractionUsed();
    if (Used > 0.0)
      std::printf("ftl: device lifetime ~%.0fx this workload\n",
                  1.0 / Used);
    std::string Why;
    if (!Ftl->checkInvariants(&Why)) {
      std::fprintf(stderr, "error: FTL invariant violated: %s\n",
                   Why.c_str());
      return 1;
    }
  } else {
    std::printf("ssd: constant-WA model, %s NAND written (endurance "
                "ratio %.3f)\n",
                formatSize(Ssd.nandBytesWritten()).c_str(),
                Ssd.enduranceRatio());
  }
  Faults.summary();
  if (!Obs.write(Opts))
    return 1;
  return Stats.clean() ? 0 : 1;
}

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return 2;
  }
  if (Opts.Command == "info")
    return commandInfo();
  if (Opts.Command == "calibrate")
    return commandCalibrate(Opts);
  if (Opts.Command == "run")
    return commandRun(Opts);
  if (Opts.Command == "volume")
    return commandVolume(Opts);
  if (Opts.Command == "trace")
    return commandTrace(Opts);
  if (Opts.Command == "replay")
    return commandReplay(Opts);
  if (Opts.Command == "restore")
    return commandRestore(Opts);
  if (Opts.Command == "recover")
    return commandRecover(Opts);
  if (Opts.Command == "serve")
    return commandServe(Opts);
  if (Opts.Command == "tenant")
    return commandTenant(Opts);
  std::fprintf(stderr, "error: unknown command '%s'\n",
               Opts.Command.c_str());
  usage();
  return 2;
}
