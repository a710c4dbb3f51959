//===----------------------------------------------------------------------===//
///
/// \file
/// E12 — portable multi-backend reduction framework: the HPDR-style
/// auto-tuning splitter vs the static single-backend modes across a
/// mixed-workload sweep (the E6 workload grid), plus modelled
/// multi-GPU scaling of the device backend.
///
/// Every sweep point runs three ways over the same stream: the split
/// forced to CPU-only (the oracle), forced to GPU-only, and the
/// auto-tuned split. The gates are the subsystem's acceptance bars:
///
///   * outcomes (chunks, recipes) are bit-identical across every row
///     of a point — the splitter never changes what is stored, only
///     who computes it;
///   * the auto split's wall throughput is >= the best static mode on
///     EVERY sweep point (2% modelling tolerance);
///   * the device backend's compute makespan scales >= 1.8x from one
///     modelled GPU to two on a GPU-bound stream, with busy charges
///     invariant across the device count.
///
/// Emits bench_backend.json. `--smoke` runs a reduced stream over a
/// two-point sweep — the CI variant.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "backend/AutoSplitter.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

using namespace padre;
using namespace padre::bench;

namespace {

/// One workload corner of the sweep (the E6 grid's mixed points).
struct SweepPoint {
  const char *Name;
  double DedupRatio;
  double CompressRatio;
};

/// How a point is executed.
enum class RunKind {
  BackCpu,  ///< forced CPU-only split (the oracle)
  BackGpu,  ///< forced GPU-only split
  BackAuto, ///< auto-tuned split
};

const char *runKindName(RunKind Kind) {
  switch (Kind) {
  case RunKind::BackCpu:
    return "backend-cpu";
  case RunKind::BackGpu:
    return "backend-gpu";
  case RunKind::BackAuto:
    return "backend-auto";
  }
  return "?";
}

/// A backend's tuner rate in B/us, or "n/a" (JSON: null) when the
/// backend ran no chunks: its rate is then only the tuner's static seed
/// quote.
std::string rateCell(double BytesPerUs, std::uint64_t Chunks,
                     bool Json = false) {
  if (Chunks == 0)
    return Json ? "null" : "n/a";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), Json ? "%.3f" : "%.1f", BytesPerUs);
  return Buf;
}

struct RunResult {
  PipelineReport Report;
  /// Order-sensitive checksum over the recipe (locations + sizes).
  std::uint64_t RecipeSum = 0;
  /// Raw per-lane busy micros (full run, not baselined).
  double BusyUs[ResourceCount] = {};
  double SchedWallUs = 0.0;
  backend::SplitterStats Split;
};

struct Row {
  const char *Point;
  RunKind Kind;
  RunResult R;
};

std::uint64_t recipeChecksum(const StreamRecipe &Recipe) {
  std::uint64_t Sum = 0xcbf29ce484222325ull;
  for (std::size_t I = 0; I < Recipe.ChunkLocations.size(); ++I) {
    Sum = (Sum ^ Recipe.ChunkLocations[I]) * 0x100000001b3ull;
    Sum = (Sum ^ Recipe.ChunkSizes[I]) * 0x100000001b3ull;
  }
  return Sum;
}

RunResult runPoint(const SweepPoint &Point, RunKind Kind, bool Smoke,
                   unsigned GpuDevices = 1, bool ScalingStream = false) {
  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.BufferCapacityPerBin = 8;
  Config.PipelineDepth = 4;
  backend::BackendConfig Backend;
  Backend.GpuDevices = GpuDevices;
  Backend.Split = Kind == RunKind::BackCpu   ? backend::SplitMode::CpuOnly
                  : Kind == RunKind::BackGpu ? backend::SplitMode::GpuOnly
                                             : backend::SplitMode::Auto;
  Config.Backend = Backend;
  if (ScalingStream) {
    // The multi-GPU rows: a GPU-bound stream — dedup off so compression
    // dominates, deep batches so each one spans several device
    // sub-batches worth of round-robin work.
    Config.DedupEnabled = false;
    Config.BatchChunks = 2048;
  }

  WorkloadConfig Load;
  Load.BlockSize = 4096;
  Load.TotalBytes = Smoke ? (ScalingStream ? 8ull << 20 : 8ull << 20)
                          : (ScalingStream ? 16ull << 20 : 20ull << 20);
  Load.DedupRatio = ScalingStream ? 1.0 : Point.DedupRatio;
  Load.CompressRatio = Point.CompressRatio;
  Load.Seed = ScalingStream ? 92 : 1234;
  const ByteVector Data = VdbenchStream(Load).generateAll();
  // The sweep's warmup covers the tuner's convergence (a handful of
  // batches): the measured phase reports the steady-state split.
  const std::uint64_t Warmup =
      ScalingStream ? 0 : (Smoke ? 3ull << 20 : 4ull << 20);

  ReductionPipeline Pipeline(Platform::paper(), Config);
  if (Warmup)
    Pipeline.write(ByteSpan(Data.data(), Warmup));
  Pipeline.resetMeasurement();
  Pipeline.write(ByteSpan(Data.data() + Warmup, Data.size() - Warmup));
  Pipeline.finish();

  RunResult Result;
  Result.Report = Pipeline.report();
  Result.RecipeSum = recipeChecksum(Pipeline.recipe());
  for (unsigned R = 0; R < ResourceCount; ++R)
    Result.BusyUs[R] =
        Pipeline.ledger().busyMicros(static_cast<Resource>(R));
  Result.SchedWallUs = Pipeline.scheduler().wallMicros();
  if (const backend::AutoSplitter *Splitter = Pipeline.splitter())
    Result.Split = Splitter->stats();
  return Result;
}

bool writeJson(const char *Path, const std::vector<Row> &Rows,
               double ScaleX) {
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  std::fprintf(File, "{\n  \"bench\": \"backend\",\n"
                     "  \"multi_gpu_makespan_scale_1to2\": %.3f,\n"
                     "  \"rows\": [\n",
               ScaleX);
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(
        File,
        "    {\"point\": \"%s\", \"run\": \"%s\", \"wall_mbps\": %.3f, "
        "\"makespan_sec\": %.9f, \"busy_mbps\": %.3f, "
        "\"stored_bytes\": %llu, \"unique_chunks\": %llu, "
        "\"split_fraction\": %.4f, \"cpu_rate_bpus\": %s, "
        "\"gpu_rate_bpus\": %s}%s\n",
        R.Point, runKindName(R.Kind), R.R.Report.WallThroughputMBps,
        R.R.Report.MakespanSec, R.R.Report.ThroughputMBps,
        static_cast<unsigned long long>(R.R.Report.StoredBytes),
        static_cast<unsigned long long>(R.R.Report.UniqueChunks),
        R.R.Split.Fraction,
        rateCell(R.R.Split.CpuRateBytesPerUs, R.R.Split.CpuChunks, true)
            .c_str(),
        rateCell(R.R.Split.GpuRateBytesPerUs, R.R.Split.GpuChunks, true)
            .c_str(),
        I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(File, "  ]\n}\n");
  std::fclose(File);
  return true;
}

/// Functional identity: the splitter never changes WHAT is stored —
/// recipes and dedup outcomes match the oracle exactly. (Stored bytes
/// are backend-specific: the GPU codec's token stream differs from the
/// CPU's by a fraction of a percent; tests/test_backend.cpp pins each
/// forced split's stored bytes and charges to golden figures.)
bool expectOutcomeIdentical(const char *Point, const RunResult &A,
                            const RunResult &B, const char *What) {
  if (A.RecipeSum == B.RecipeSum &&
      A.Report.LogicalChunks == B.Report.LogicalChunks &&
      A.Report.UniqueChunks == B.Report.UniqueChunks &&
      A.Report.DupChunks == B.Report.DupChunks)
    return true;
  std::fprintf(stderr, "FAIL: %s/%s outcomes differ from the oracle\n",
               Point, What);
  return false;
}

/// Device-count invariance: the aux lanes only redistribute capacity —
/// busy charges and stored bytes match to the bit (the wall is MEANT
/// to move).
bool expectBusyIdentical(const char *Point, const RunResult &A,
                         const RunResult &B, const char *What) {
  bool Ok = A.Report.StoredBytes == B.Report.StoredBytes;
  for (unsigned R = 0; R < ResourceCount; ++R)
    Ok = Ok && A.BusyUs[R] == B.BusyUs[R];
  if (!Ok)
    std::fprintf(stderr,
                 "FAIL: %s/%s busy charges vary with the device count\n",
                 Point, What);
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  banner("E12", Smoke ? "multi-backend splitter (smoke sweep)"
                      : "multi-backend splitter — auto split vs static "
                        "modes, multi-GPU scaling");

  const SweepPoint FullSweep[] = {
      {"dup-heavy", 4.0, 2.0},    {"balanced", 2.0, 2.0},
      {"compress-heavy", 1.2, 3.0}, {"low-reduction", 1.2, 1.3},
  };
  const SweepPoint SmokeSweep[] = {
      {"balanced", 2.0, 2.0},
      {"low-reduction", 1.2, 1.3},
  };
  const std::span<const SweepPoint> Sweep =
      Smoke ? std::span<const SweepPoint>(SmokeSweep)
            : std::span<const SweepPoint>(FullSweep);

  std::vector<Row> Rows;
  bool Pass = true;

  std::printf("%-14s %-12s %10s %10s %8s %9s %9s\n", "point", "run",
              "wall MB/s", "busy MB/s", "frac", "cpu B/us", "gpu B/us");
  for (const SweepPoint &Point : Sweep) {
    const RunResult Cpu = runPoint(Point, RunKind::BackCpu, Smoke);
    const RunResult Gpu = runPoint(Point, RunKind::BackGpu, Smoke);
    const RunResult Auto = runPoint(Point, RunKind::BackAuto, Smoke);
    Rows.push_back({Point.Name, RunKind::BackCpu, Cpu});
    Rows.push_back({Point.Name, RunKind::BackGpu, Gpu});
    Rows.push_back({Point.Name, RunKind::BackAuto, Auto});

    for (const Row &R : {Row{Point.Name, RunKind::BackCpu, Cpu},
                         Row{Point.Name, RunKind::BackGpu, Gpu},
                         Row{Point.Name, RunKind::BackAuto, Auto}})
      std::printf(
          "%-14s %-12s %10.1f %10.1f %8.2f %9s %9s\n", R.Point,
          runKindName(R.Kind), R.R.Report.WallThroughputMBps,
          R.R.Report.ThroughputMBps, R.R.Split.Fraction,
          rateCell(R.R.Split.CpuRateBytesPerUs, R.R.Split.CpuChunks)
              .c_str(),
          rateCell(R.R.Split.GpuRateBytesPerUs, R.R.Split.GpuChunks)
              .c_str());

    // Gate 1: every run of a point stores the same thing as the
    // forced-CPU oracle.
    Pass &= expectOutcomeIdentical(Point.Name, Cpu, Gpu, "backend-gpu");
    Pass &= expectOutcomeIdentical(Point.Name, Cpu, Auto, "backend-auto");

    // Gate 3: the auto split beats (or matches, within the 2% model
    // tolerance) the best static mode at every sweep point.
    const double BestStatic = std::max(Cpu.Report.WallThroughputMBps,
                                       Gpu.Report.WallThroughputMBps);
    if (Auto.Report.WallThroughputMBps < BestStatic * 0.98) {
      std::fprintf(stderr,
                   "FAIL: %s auto %.1f MB/s below best static %.1f MB/s\n",
                   Point.Name, Auto.Report.WallThroughputMBps, BestStatic);
      Pass = false;
    }
  }

  // Multi-GPU scaling: the GPU-only backend on a GPU-bound stream,
  // one modelled device vs two. Compute makespan must scale >= 1.8x
  // while the busy charges stay bit-identical (the aux lanes only
  // redistribute capacity, never the work).
  const SweepPoint ScalePoint{"gpu-bound", 1.0, 4.0};
  const RunResult Gpu1 =
      runPoint(ScalePoint, RunKind::BackGpu, Smoke, /*GpuDevices=*/1,
               /*ScalingStream=*/true);
  const RunResult Gpu2 =
      runPoint(ScalePoint, RunKind::BackGpu, Smoke, /*GpuDevices=*/2,
               /*ScalingStream=*/true);
  Rows.push_back({ScalePoint.Name, RunKind::BackGpu, Gpu1});
  Rows.push_back({ScalePoint.Name, RunKind::BackGpu, Gpu2});
  const double ScaleX = Gpu2.Report.MakespanSec > 0.0
                            ? Gpu1.Report.MakespanSec /
                                  Gpu2.Report.MakespanSec
                            : 0.0;
  std::printf("\nmulti-GPU compute makespan, 1 -> 2 devices: %.2fx\n",
              ScaleX);
  Pass &= expectOutcomeIdentical("gpu-bound", Gpu1, Gpu2, "2-gpu");
  Pass &= expectBusyIdentical("gpu-bound", Gpu1, Gpu2, "2-gpu");
  if (ScaleX < 1.8) {
    std::fprintf(stderr,
                 "FAIL: multi-GPU makespan scaling %.2fx below the 1.8x "
                 "acceptance bar\n",
                 ScaleX);
    Pass = false;
  }

  const char *JsonPath = "bench_backend.json";
  if (!writeJson(JsonPath, Rows, ScaleX))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  else
    std::printf("json: %s (%zu rows)\n", JsonPath, Rows.size());

  std::printf(Pass ? "PASS: backend gates met\n"
                   : "FAIL: backend gates not met\n");
  return Pass ? 0 : 1;
}
