//===----------------------------------------------------------------------===//
///
/// \file
/// E6 — pipelined batch scheduler: wall throughput vs in-flight window
/// depth for every integration mode (dedup 2.0, compression 2.0).
/// Depth 1 is the serial stage chain; deeper windows overlap batch N's
/// destage with batch N+1's compression and batch N+2's dedup
/// (Fig. 1's intra-batch overlap lifted across batches). The busy
/// charges and functional results are depth-invariant — only the
/// dependency-constrained wall time moves — so the speedup column
/// isolates the scheduling win.
///
/// Emits bench_pipeline.json (machine-readable rows) next to the
/// binary's working directory. Exit status is the acceptance gate:
/// nonzero unless depth 4 strictly beats depth 1 on gpu-compress wall
/// throughput (and, in the full run, by the >= 1.3x bar).
///
/// `bench_pipeline --smoke` runs a reduced stream and only the
/// gpu-compress depth {1,4} pair — the CI variant.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace padre;
using namespace padre::bench;

namespace {

struct Row {
  PipelineMode Mode;
  std::size_t Depth;
  PipelineReport Report;
};

bool writeJson(const char *Path, const std::vector<Row> &Rows) {
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  std::fprintf(File, "{\n  \"bench\": \"pipeline\",\n  \"rows\": [\n");
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(
        File,
        "    {\"mode\": \"%s\", \"depth\": %zu, \"wall_sec\": %.9f, "
        "\"wall_mbps\": %.3f, \"wall_kiops\": %.3f, "
        "\"makespan_sec\": %.9f, \"busy_mbps\": %.3f, "
        "\"hidden_cpu_sec\": %.9f, \"hidden_gpu_sec\": %.9f, "
        "\"hidden_pcie_sec\": %.9f, \"hidden_ssd_sec\": %.9f}%s\n",
        pipelineModeName(R.Mode), R.Depth, R.Report.WallSec,
        R.Report.WallThroughputMBps, R.Report.WallThroughputIops / 1e3,
        R.Report.MakespanSec, R.Report.ThroughputMBps,
        R.Report.SchedHiddenSec[static_cast<unsigned>(Resource::CpuPool)],
        R.Report.SchedHiddenSec[static_cast<unsigned>(Resource::Gpu)],
        R.Report.SchedHiddenSec[static_cast<unsigned>(Resource::Pcie)],
        R.Report.SchedHiddenSec[static_cast<unsigned>(Resource::Ssd)],
        I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(File, "  ]\n}\n");
  std::fclose(File);
  return true;
}

const PipelineReport *find(const std::vector<Row> &Rows, PipelineMode Mode,
                           std::size_t Depth) {
  for (const Row &R : Rows)
    if (R.Mode == Mode && R.Depth == Depth)
      return &R.Report;
  return nullptr;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  banner("E6", Smoke ? "pipelined batch scheduler (smoke: gpu-compress, "
                       "depth 1 vs 4)"
                     : "pipelined batch scheduler — wall throughput vs "
                       "window depth");

  const std::size_t Depths[] = {1, 2, 4, 8};
  std::vector<Row> Rows;
  for (unsigned M = 0; M < PipelineModeCount; ++M) {
    const auto Mode = static_cast<PipelineMode>(M);
    if (Smoke && Mode != PipelineMode::GpuCompress)
      continue;
    for (const std::size_t Depth : Depths) {
      if (Smoke && Depth != 1 && Depth != 4)
        continue;
      RunSpec Spec;
      Spec.Mode = Mode;
      Spec.PipelineDepth = Depth;
      if (Smoke) {
        Spec.WarmupBytes = 1ull << 20;
        Spec.MeasureBytes = 4ull << 20;
      }
      Rows.push_back({Mode, Depth, runSpec(Platform::paper(), Spec)});
    }
  }

  std::printf("%-14s %6s %12s %12s %12s %10s\n", "mode", "depth",
              "wall (s)", "wall MB/s", "busy MB/s", "speedup");
  for (const Row &R : Rows) {
    const PipelineReport *Serial = find(Rows, R.Mode, 1);
    const double Speedup =
        Serial && R.Report.WallSec > 0.0
            ? Serial->WallSec / R.Report.WallSec
            : 0.0;
    std::printf("%-14s %6zu %12.4f %12.1f %12.1f %9.2fx\n",
                pipelineModeName(R.Mode), R.Depth, R.Report.WallSec,
                R.Report.WallThroughputMBps, R.Report.ThroughputMBps,
                Speedup);
  }

  const char *JsonPath = "bench_pipeline.json";
  if (!writeJson(JsonPath, Rows))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  else
    std::printf("\njson: %s (%zu rows)\n", JsonPath, Rows.size());

  // Acceptance gate: the window must actually buy wall throughput on
  // the paper's best integration mode.
  const PipelineReport *D1 = find(Rows, PipelineMode::GpuCompress, 1);
  const PipelineReport *D4 = find(Rows, PipelineMode::GpuCompress, 4);
  if (!D1 || !D4 || D1->WallSec <= 0.0 || D4->WallSec <= 0.0) {
    std::fprintf(stderr, "error: missing gpu-compress depth 1/4 rows\n");
    return 1;
  }
  const double Gain = D1->WallSec / D4->WallSec;
  std::printf("\ngpu-compress depth 4 vs 1: %.2fx wall throughput\n", Gain);
  if (D4->WallThroughputMBps <= D1->WallThroughputMBps) {
    std::fprintf(stderr,
                 "FAIL: depth 4 does not beat depth 1 on gpu-compress\n");
    return 1;
  }
  if (!Smoke && Gain < 1.3) {
    std::fprintf(stderr, "FAIL: depth 4 speedup %.2fx below the 1.3x "
                         "acceptance bar\n",
                 Gain);
    return 1;
  }
  std::printf("PASS: pipelining gate met\n");
  return 0;
}
