//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the experiment benches: steady-state pipeline
/// runs over vdbench-style streams and paper-vs-measured row printing.
/// Every bench regenerates one table/figure from the paper's §4 (see
/// DESIGN.md §4 and EXPERIMENTS.md).
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BENCH_BENCHUTIL_H
#define PADRE_BENCH_BENCHUTIL_H

#include "core/ReductionPipeline.h"
#include "workload/VdbenchStream.h"

#include <cstdio>

namespace padre {
namespace bench {

/// Default experiment knobs (scaled-down stream; see DESIGN.md §1).
struct RunSpec {
  PipelineMode Mode = PipelineMode::CpuOnly;
  bool DedupEnabled = true;
  bool CompressEnabled = true;
  double DedupRatio = 2.0;
  double CompressRatio = 2.0;
  std::size_t ChunkSize = 4096;
  std::uint64_t WarmupBytes = 4ull << 20;
  std::uint64_t MeasureBytes = 12ull << 20;
  std::uint64_t Seed = 1234;
  unsigned BinBits = 8;
  std::size_t BufferCapacityPerBin = 8;
  std::size_t BatchChunks = 256;
  /// In-flight write batches for the pipelined scheduler (E6).
  /// Depth 1 reproduces the serial stage chain exactly.
  std::size_t PipelineDepth = 4;
  /// Optional observability sinks (non-owning). When set, the measured
  /// phase records spans/metrics — spans from the warmup are cleared by
  /// resetMeasurement alongside the ledger.
  obs::TraceRecorder *Trace = nullptr;
  obs::MetricsRegistry *Metrics = nullptr;
};

/// Runs one steady-state pipeline measurement.
inline PipelineReport runSpec(const Platform &Plat, const RunSpec &Spec) {
  PipelineConfig Config;
  Config.Mode = Spec.Mode;
  Config.ChunkSize = Spec.ChunkSize;
  Config.DedupEnabled = Spec.DedupEnabled;
  Config.CompressEnabled = Spec.CompressEnabled;
  Config.Dedup.Index.BinBits = Spec.BinBits;
  Config.Dedup.Index.BufferCapacityPerBin = Spec.BufferCapacityPerBin;
  Config.BatchChunks = Spec.BatchChunks;
  Config.PipelineDepth = Spec.PipelineDepth;
  Config.Trace = Spec.Trace;
  Config.Metrics = Spec.Metrics;

  WorkloadConfig Load;
  Load.BlockSize = Spec.ChunkSize;
  Load.TotalBytes = Spec.WarmupBytes + Spec.MeasureBytes;
  Load.DedupRatio = Spec.DedupRatio;
  Load.CompressRatio = Spec.CompressRatio;
  Load.Seed = Spec.Seed;
  const VdbenchStream Stream(Load);
  const ByteVector Data = Stream.generateAll();

  ReductionPipeline Pipeline(Plat, Config);
  Pipeline.write(ByteSpan(Data.data(), Spec.WarmupBytes));
  Pipeline.resetMeasurement();
  Pipeline.write(ByteSpan(Data.data() + Spec.WarmupBytes,
                          Spec.MeasureBytes));
  return Pipeline.report();
}

/// Prints the bench banner.
inline void banner(const char *Id, const char *Title) {
  std::printf("================================================================"
              "================\n");
  std::printf("%s — %s\n", Id, Title);
  std::printf("platform: %s (modelled time; see EXPERIMENTS.md)\n",
              Platform::paper().Name.c_str());
  std::printf("================================================================"
              "================\n");
}

/// Prints one "paper vs measured" comparison row.
inline void paperRow(const char *Label, const char *PaperValue,
                     const char *MeasuredValue) {
  std::printf("  %-38s paper: %-18s measured: %s\n", Label, PaperValue,
              MeasuredValue);
}

} // namespace bench
} // namespace padre

#endif // PADRE_BENCH_BENCHUTIL_H
