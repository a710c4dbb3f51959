//===----------------------------------------------------------------------===//
///
/// \file
/// Clocks, spans, quantiles and the shared per-layer recorders.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "index/FingerprintIndex.h"
#include "util/Random.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

using namespace padre;

namespace perfbench {

double wallSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSec() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double SpanLog::add(const char *Name, double Begin, double End) {
  const double DurUs = (End - Begin) * 1e6;
  if (Enabled)
    Spans.push_back({Name, (Begin - Origin) * 1e6, DurUs});
  return DurUs;
}

bool SpanLog::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[", F);
  for (std::size_t I = 0; I < Spans.size(); ++I)
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 I ? "," : "", Spans[I].Name, Spans[I].BeginUs,
                 Spans[I].DurUs);
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  const std::size_t Rank = static_cast<std::size_t>(
      std::ceil(Q * static_cast<double>(Values.size())));
  const std::size_t Index = Rank == 0 ? 0 : Rank - 1;
  std::nth_element(Values.begin(), Values.begin() + Index, Values.end());
  return Values[Index];
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

void laneBaseline(ReductionPipeline &Pipe, double Out[]) {
  for (unsigned R = 0; R < ResourceCount; ++R)
    Out[R] = Pipe.ledger().busyMicros(static_cast<Resource>(R));
}

void recordSim(ReductionPipeline &Pipe, const double BaselineUs[],
               const ObsSinks *Sinks, std::map<std::string, double> &Det) {
  double Now[ResourceCount];
  laneBaseline(Pipe, Now);
  const auto Busy = [&](Resource R) {
    const unsigned I = static_cast<unsigned>(R);
    return (Now[I] - BaselineUs[I]) * 1e-6;
  };
  Det["sim.cpu_busy_s"] = Busy(Resource::CpuPool);
  Det["sim.gpu_busy_s"] = Busy(Resource::Gpu);
  Det["sim.pcie_busy_s"] = Busy(Resource::Pcie);
  Det["sim.ssd_busy_s"] = Busy(Resource::Ssd);
  if (!Sinks)
    return;
  // Stage totals from padre's own trace, summed over lanes. The names
  // are the stage spans of the write, read, journal and FTL paths.
  static const std::pair<const char *, const char *> Stages[] = {
      {"chunk", "chunk"},
      {"dedup", "dedup"},
      {"compress", "compress"},
      {"destage", "destage"},
      {"restore:fetch", "restore-fetch"},
      {"restore:decode", "restore-decode"},
      {"journal:commit", "journal-commit"},
      {"ckpt:write", "ckpt-write"},
      {"ftl:gc", "ftl-gc"}};
  std::map<std::string_view, double> Totals;
  for (const obs::TraceSpan &S : Sinks->Trace.spans())
    if (std::string_view(S.Category) != obs::CategorySched)
      Totals[S.Name] += S.DurUs;
  for (const auto &[Span, Metric] : Stages)
    Det[std::string("sim.stage.") + Metric + "_s"] = Totals[Span] * 1e-6;
}

void recordWriteReport(const PipelineReport &R,
                       std::map<std::string, double> &Det) {
  const auto Frac = [](double A, double B) { return B > 0.0 ? A / B : 0.0; };
  const double Dup = static_cast<double>(R.DupChunks);
  Det["index.dup_frac"] = Frac(Dup, static_cast<double>(R.LogicalChunks));
  Det["index.buffer_hit_frac"] = Frac(static_cast<double>(R.DupFromBuffer), Dup);
  Det["index.tree_hit_frac"] = Frac(static_cast<double>(R.DupFromTree), Dup);
  Det["compress.ratio"] = R.CompressRatio;
  Det["compress.raw_fallback_frac"] =
      Frac(static_cast<double>(R.RawFallbacks),
           static_cast<double>(R.UniqueChunks));
  double Busy = 0.0, Hidden = 0.0;
  for (unsigned L = 0; L < ResourceCount; ++L) {
    Busy += R.SchedBusySec[L];
    Hidden += R.SchedHiddenSec[L];
  }
  Det["sim.hidden_frac"] = Frac(Hidden, Busy);
}

double indexMemoryMb(const ReductionPipeline &Pipe) {
  const DedupEngine *Engine = Pipe.dedupEngine();
  return Engine ? static_cast<double>(Engine->index().memoryBytes()) / 1e6
                : 0.0;
}

void captureReplay(ReplayInput &In, ByteSpan Stream,
                   const ReductionPipeline &Pipe, std::size_t MaxChunks) {
  const std::size_t Chunk = Pipe.config().ChunkSize;
  for (std::size_t Off = 0;
       Off + Chunk <= Stream.size() && In.Chunks.size() < MaxChunks;
       Off += Chunk)
    In.Chunks.emplace_back(Stream.begin() + Off, Stream.begin() + Off + Chunk);
  Pipe.store().forEach([&](std::uint64_t, ByteSpan Block) {
    if (In.Blocks.size() < MaxChunks)
      In.Blocks.emplace_back(Block.begin(), Block.end());
  });
  In.Config = Pipe.config();
  In.Config.Trace = nullptr;
  In.Config.Metrics = nullptr;
}

std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Salt) {
  std::uint64_t State = Seed * 0x9E3779B97F4A7C15ULL + Salt;
  return Random::splitMix64(State);
}

} // namespace perfbench
