//===----------------------------------------------------------------------===//
///
/// \file
/// Shared scaffolding of the padre benchmark: clocks, client-side spans,
/// the round loop every workload runs, and the result a run prints.
///
/// A run is a sequence of *rounds*. Each round sets up fresh state from
/// the seed, runs a fixed amount of timed work as a closed loop (one
/// client thread, each op issued after the previous one returns), then
/// checks every output against a reference model outside the timed
/// phase. Rounds of one seed see identical inputs, so their modelled
/// and counted results must be identical too; host-clock results are
/// reported as medians over rounds.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/ReductionPipeline.h"
#include "obs/MetricsRegistry.h"
#include "obs/TraceRecorder.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using padre::ByteSpan;
using padre::ByteVector;

/// Host wall clock (steady), seconds since an arbitrary epoch.
double wallSec();
/// Process CPU time (all threads), seconds.
double cpuSec();

/// Command-line options of one run.
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Timed-phase budget: rounds repeat until their timed phases add up
  /// to at least this many seconds.
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch directory for journal/checkpoint files and trace output.
  std::string WorkDir = ".";
};

/// Spans the benchmark records around each call it makes into padre
/// (host wall clock). Only kept when tracing; durations are always
/// returned so callers can use them as latency samples.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled), Origin(wallSec()) {}

  /// Records [Begin, End) (wall seconds) under \p Name, a string
  /// literal. Returns the duration in microseconds.
  double add(const char *Name, double Begin, double End);

  /// Chrome trace_event JSON of every span.
  bool writeChromeJson(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    double BeginUs;
    double DurUs;
  };
  bool Enabled;
  double Origin;
  std::vector<Span> Spans;
};

/// Quantile \p Q in [0, 1] of \p Values (nearest rank); 0 when empty.
double quantile(std::vector<double> Values, double Q);
double median(std::vector<double> Values);

/// Observability sinks attached to a pipeline in traced rounds.
struct ObsSinks {
  padre::obs::TraceRecorder Trace;
  padre::obs::MetricsRegistry Metrics;
  void attach(padre::PipelineConfig &Config) {
    Config.Trace = &Trace;
    Config.Metrics = &Metrics;
  }
};

/// What a workload hands the layer replay: chunks it wrote and the
/// pipeline configuration that wrote them.
struct ReplayInput {
  /// Logical chunks the workload wrote (ChunkSize bytes each), capped.
  std::vector<ByteVector> Chunks;
  /// Encoded store blocks, as read from the store after the round.
  std::vector<ByteVector> Blocks;
  padre::PipelineConfig Config;
};

/// The outcome of one round.
struct RoundResult {
  double SetupSec = 0.0;
  /// Host wall time of the timed phase (including its final flush,
  /// sync or sweep).
  double TimedSec = 0.0;
  /// Process CPU time of the timed phase.
  double CpuSec = 0.0;
  std::uint64_t Ops = 0;
  /// User bytes acknowledged (writes) or verified (reads) while timed.
  std::uint64_t UserBytes = 0;
  /// Per-op latency samples (µs) behind op_p50_us / op_p90_us.
  std::vector<double> OpUs;
  /// Modelled or counted values: identical in every round of a seed.
  std::map<std::string, double> Det;
  /// Host-clock per-layer values: reported as the median over rounds.
  std::map<std::string, double> Host;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Errors;

  void fail(const std::string &Why) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
};

/// Context a workload's round function receives.
struct RoundContext {
  const Options &Opts;
  /// True when padre's own TraceRecorder/MetricsRegistry are attached
  /// this round (odd rounds of a traced run).
  bool Traced = false;
  SpanLog &Spans;
  /// Non-null in the first traced round: the workload fills it for the
  /// layer replay.
  ReplayInput *Replay = nullptr;
  /// Wall time the round began (setup starts here).
  double StartSec = 0.0;
};

/// A workload: its manifest parameters and its round function.
struct Workload {
  std::string Name;
  std::map<std::string, std::string> Params;
  std::function<RoundResult(RoundContext &)> Round;
};

Workload makeIngest(const Options &Opts);
Workload makeRestore(const Options &Opts);
Workload makeChurn(const Options &Opts);
Workload makeTenants(const Options &Opts);

/// Replays \p In through each layer's public function on one thread and
/// returns the host CPU cost per unit of each.
std::map<std::string, double> replayLayers(const ReplayInput &In);

//===----------------------------------------------------------------===//
// Helpers shared by the workloads.
//===----------------------------------------------------------------===//

/// Modelled lane busy times and trace-stage totals of a pipeline, as
/// deterministic per-layer values (sim.*).
void recordSim(padre::ReductionPipeline &Pipe,
               const double BaselineUs[], const ObsSinks *Sinks,
               std::map<std::string, double> &Det);

/// Snapshot of every lane's busy clock (µs), for recordSim baselines.
void laneBaseline(padre::ReductionPipeline &Pipe, double Out[]);

/// Write-report derived deterministic values shared by every workload
/// that writes: index and compress outcomes and reduction ratios.
void recordWriteReport(const padre::PipelineReport &R,
                       std::map<std::string, double> &Det);

/// Index memory of the pipeline's fingerprint index (MB).
double indexMemoryMb(const padre::ReductionPipeline &Pipe);

/// Copies up to \p MaxChunks logical chunks of \p Stream and up to
/// \p MaxChunks stored blocks of \p Pipe into \p In.
void captureReplay(ReplayInput &In, ByteSpan Stream,
                   const padre::ReductionPipeline &Pipe,
                   std::size_t MaxChunks);

/// Derives the seed of one input stream (\p Salt) from the run's seed.
std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Salt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
