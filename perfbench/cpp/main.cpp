//===----------------------------------------------------------------------===//
///
/// \file
/// padre_bench: runs one workload of the padre benchmark and prints one
/// JSON object with its correctness verdict, op counts, metrics and
/// manifest. perfbench/run.py builds this binary, runs it and turns the
/// object into the benchmark's result line.
///
/// Usage:
///   padre_bench --workload ingest|restore|churn|tenants --seed N
///               --seconds S --trace 0|1 [--workdir DIR]
///
/// With --trace 1 odd rounds attach padre's TraceRecorder and
/// MetricsRegistry, client spans are kept and written to DIR, and the
/// layer replay runs after the rounds.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "sim/Platform.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sys/resource.h>

using namespace perfbench;

namespace {

/// Rounds never start after this much wall time, so a run ends well
/// inside its 180 s limit whatever --seconds asks for.
constexpr double WallCapSec = 120.0;

/// Latency percentiles are taken per window of this many consecutive
/// ops and reported as the median over windows: a burst of interference
/// from outside the process moves a few windows, not the median. The
/// end-to-end tail is the p90 (100 samples beyond it per window), not
/// the p99: a 64 KiB read waits on wake-ups of the 8-thread pool, and on
/// a shared host with fewer cores its p99 tracks the scheduler.
constexpr std::size_t WindowOps = 1000;

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  bool HaveWorkload = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I];
    const char *Value = Argv[I + 1];
    if (Key == "--workload") {
      Opts.Workload = Value;
      HaveWorkload = true;
    } else if (Key == "--seed") {
      Opts.Seed = std::strtoull(Value, nullptr, 10);
    } else if (Key == "--seconds") {
      Opts.Seconds = std::strtod(Value, nullptr);
    } else if (Key == "--trace") {
      Opts.Trace = std::string(Value) == "1";
    } else if (Key == "--workdir") {
      Opts.WorkDir = Value;
    } else {
      return false;
    }
  }
  return HaveWorkload && (Argc % 2) == 1 && Opts.Seconds > 0.0;
}

Workload makeWorkload(const Options &Opts, bool &Known) {
  Known = true;
  if (Opts.Workload == "ingest")
    return makeIngest(Opts);
  if (Opts.Workload == "restore")
    return makeRestore(Opts);
  if (Opts.Workload == "churn")
    return makeChurn(Opts);
  if (Opts.Workload == "tenants")
    return makeTenants(Opts);
  Known = false;
  return {};
}

void printJsonString(const std::string &S) {
  std::putchar('"');
  for (const char C : S) {
    if (C == '"' || C == '\\')
      std::putchar('\\');
    if (static_cast<unsigned char>(C) >= 0x20)
      std::putchar(C);
  }
  std::putchar('"');
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace

int main(int Argc, char **Argv) {
  const double ProcessStart = wallSec();
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::fprintf(stderr, "usage: padre_bench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  bool Known = false;
  const Workload W = makeWorkload(Opts, Known);
  if (!Known) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 Opts.Workload.c_str());
    return 2;
  }

  // Round 0 warms caches and lazy set-up; it is checked like every
  // round but its host timings are left out of the medians. A traced
  // run alternates untraced and traced rounds so the two can be
  // compared (obs.trace_overhead_frac).
  SpanLog Spans(Opts.Trace);
  ReplayInput Replay;
  bool HaveReplay = false;
  std::vector<RoundResult> Rounds;
  const unsigned MinRounds = Opts.Trace ? 5 : 4;
  double TimedTotal = 0.0;
  for (unsigned I = 0;; ++I) {
    const bool Done = Rounds.size() >= MinRounds && TimedTotal >= Opts.Seconds;
    if (Done || (Rounds.size() >= 2 && wallSec() - ProcessStart > WallCapSec))
      break;
    RoundContext Ctx{Opts, Opts.Trace && I % 2 == 1, Spans, nullptr,
                     I == 0 ? ProcessStart : wallSec()};
    if (Ctx.Traced && !HaveReplay) {
      Ctx.Replay = &Replay;
      HaveReplay = true;
    }
    Rounds.push_back(W.Round(Ctx));
    const RoundResult &R = Rounds.back();
    if (I > 0)
      TimedTotal += R.TimedSec;
    std::fprintf(stderr,
                 "round %u%s: setup %.3f s, timed %.3f s, %.1f MB/s, "
                 "p50 %.0f us, %" PRIu64 " failed\n",
                 I, Ctx.Traced ? " (traced)" : "", R.SetupSec, R.TimedSec,
                 static_cast<double>(R.UserBytes) / 1e6 / R.TimedSec,
                 quantile(R.OpUs, 0.5), R.Failed);
  }

  // Correctness: op failures, oracle mismatches, and any deterministic
  // value that differs between rounds of the same seed.
  std::uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
  std::map<std::string, double> Det;
  for (const RoundResult &R : Rounds) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    for (const std::string &E : R.Errors)
      if (Errors.size() < 8)
        Errors.push_back(E);
    for (const auto &[Name, Value] : R.Det) {
      auto [It, Inserted] = Det.emplace(Name, Value);
      if (!Inserted && It->second != Value) {
        ++Failed;
        if (Errors.size() < 8)
          Errors.push_back("nondeterministic " + Name);
      }
    }
  }

  // Host-clock aggregates over the measured rounds (all but round 0).
  std::map<std::string, double> M = Det;
  std::vector<double> Setup, Mbps, OpsPerSec, P50, P90, Parallelism;
  std::vector<double> MbpsPlain, MbpsTraced;
  std::map<std::string, std::vector<double>> Host;
  std::size_t Samples = 0;
  for (std::size_t I = 0; I < Rounds.size(); ++I) {
    const RoundResult &R = Rounds[I];
    Setup.push_back(R.SetupSec);
    if (I == 0)
      continue;
    const double Mb = static_cast<double>(R.UserBytes) / 1e6 / R.TimedSec;
    Mbps.push_back(Mb);
    (I % 2 == 1 && Opts.Trace ? MbpsTraced : MbpsPlain).push_back(Mb);
    OpsPerSec.push_back(static_cast<double>(R.Ops) / R.TimedSec);
    if (R.OpUs.size() < WindowOps) {
      ++Failed;
      Errors.push_back("too few latency samples in a round for a window");
    }
    for (std::size_t B = 0; B + WindowOps <= R.OpUs.size(); B += WindowOps) {
      const std::vector<double> Window(R.OpUs.begin() + B,
                                       R.OpUs.begin() + B + WindowOps);
      P50.push_back(quantile(Window, 0.50));
      P90.push_back(quantile(Window, 0.90));
      Samples += WindowOps;
    }
    Parallelism.push_back(R.CpuSec / R.TimedSec);
    for (const auto &[Name, Value] : R.Host)
      Host[Name].push_back(Value);
  }
  M["setup_s"] = median(Setup);
  M["user_mbps"] = median(Mbps);
  M["ops_per_s"] = median(OpsPerSec);
  M["op_p50_us"] = median(P50);
  M["op_p90_us"] = median(P90);
  M["peak_rss_mb"] = peakRssMb();
  M["util.pool_parallelism"] = median(Parallelism);
  M["client.op_samples"] = static_cast<double>(Samples);
  for (const auto &[Name, Values] : Host)
    M[Name] = median(Values);

  if (Opts.Trace) {
    M["obs.trace_overhead_frac"] =
        1.0 - median(MbpsTraced) / median(MbpsPlain);
    for (const auto &[Name, Value] : replayLayers(Replay))
      M[Name] = Value;
    // How much of the write path's process CPU the replayed layers
    // account for; the remainder is pool dispatch, copies, scheduler
    // replay and the ledger.
    const double Total = M["core.write_cpu_ns_per_chunk"];
    const double Encode = Replay.Config.Mode == padre::PipelineMode::CpuOnly
                              ? M["compress.lz_encode_ns_per_chunk"]
                              : M["compress.lane_encode_ns_per_chunk"];
    const double Replayed =
        M["chunk.split_ns_per_mb"] * 4096e-6 +
        M["hash.fingerprint_ns_per_chunk"] + M["index.batch_ns_per_chunk"] +
        (1.0 - M["index.dup_frac"]) *
            (Encode + M["hash.crc32c_ns_per_kib"] * 4.0 /
                          std::max(1.0, M["compress.ratio"]));
    M["core.unattributed_cpu_ns_per_chunk"] = Total - Replayed;
    M["core.accounted_frac"] = Total > 0.0 ? Replayed / Total : 0.0;
    Spans.writeChromeJson(Opts.WorkDir + "/client_spans.json");
  }
  M["client.error_rate"] =
      Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                : 0.0;

  std::printf("{\"workload\":");
  printJsonString(W.Name);
  std::printf(",\"seed\":%" PRIu64 ",\"trace\":%d,\"correct\":%s,"
              "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"rounds\":%zu,\"pool_threads\":%u,\"errors\":[",
              Opts.Seed, Opts.Trace ? 1 : 0,
              Failed == 0 && Attempted > 0 ? "true" : "false", Attempted,
              Failed, Rounds.size(), padre::Platform::paper().Model.Cpu.Threads);
  for (std::size_t I = 0; I < Errors.size(); ++I) {
    if (I)
      std::putchar(',');
    printJsonString(Errors[I]);
  }
  std::printf("],\"params\":{");
  bool First = true;
  for (const auto &[Key, Value] : W.Params) {
    if (!First)
      std::putchar(',');
    First = false;
    printJsonString(Key);
    std::putchar(':');
    printJsonString(Value);
  }
  std::printf("},\"build\":{\"type\":");
  printJsonString(PERFBENCH_BUILD_TYPE);
  std::printf(",\"cxx_flags\":");
  printJsonString(PERFBENCH_CXX_FLAGS);
  std::printf(",\"compiler\":");
  printJsonString(PERFBENCH_COMPILER);
  std::printf("},\"metrics\":{");
  First = true;
  for (const auto &[Name, Value] : M) {
    if (!First)
      std::putchar(',');
    First = false;
    printJsonString(Name);
    // JSON has no NaN or infinity; run.py rejects the null.
    if (std::isfinite(Value))
      std::printf(":%.17g", Value);
    else
      std::printf(":null");
  }
  std::printf("}}\n");
  return 0;
}
