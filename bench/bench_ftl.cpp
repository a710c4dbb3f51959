//===----------------------------------------------------------------------===//
///
/// \file
/// E9 — the FTL under shaped workloads: measured write amplification
/// replaces the cost model's constant when the page-level FTL runs
/// beneath the SSD model. Three questions, each a gate:
///
///   1. Does workload shape drive WA the way NAND folklore says?
///      Sequential overwrite passes retire whole blocks (WA -> 1);
///      skewed-hot random overwrites leave mixed-validity blocks that
///      GC must copy out of (WA > sequential).
///   2. Does inline reduction extend device lifetime? The same shaped
///      stream with dedup+compression on must program fewer pages,
///      amplify less, and burn a smaller fraction of the erase budget.
///   3. Parity: with the FTL *disabled* the constant-WA accounting must
///      reproduce the pre-FTL NAND byte counts bit-exactly (golden
///      values captured before the FTL existed).
///
/// Emits bench_ftl.json. `--smoke` runs a reduced scenario sweep.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/TraceRunner.h"
#include "core/Volume.h"
#include "workload/Scenario.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

using namespace padre;
using namespace padre::bench;

namespace {

/// Pre-FTL golden NAND accounting (ops=3000, blocks=4096, seed=42,
/// default PipelineConfig on Platform::paper()). Captured from the
/// tree immediately before the FTL landed; the constant-WA path must
/// keep reproducing these bit-exactly.
constexpr std::uint64_t GoldenHostBytes = 33517568ull;
constexpr std::uint64_t GoldenReducedNand = 153074ull;
constexpr std::uint64_t GoldenRawNand = 35330106ull;

/// Shared geometry: a 2048-block volume over a 64-block/64-page FTL
/// (16 MiB raw NAND, ~13 MiB logical after 12% OP + reserve), so every
/// scenario wraps the device several times and GC must run.
constexpr std::uint64_t VolumeBlocks = 2048;

ssd::FtlConfig ftlGeometry() {
  ssd::FtlConfig Ftl;
  Ftl.Blocks = 64;
  Ftl.PagesPerBlock = 64;
  Ftl.OverprovisionPct = 12.0;
  return Ftl;
}

struct ScenarioOutcome {
  const char *Shape = "";
  double Waf = 0.0;
  double P50Us = 0.0;
  double P99Us = 0.0;
  std::uint64_t Erases = 0;
  std::uint64_t EraseSpread = 0;
  double LifetimeFraction = 0.0;
  /// Whole-device lifetime in units of "this workload" (host bytes /
  /// erase-budget fraction burned). Infinite when no erase happened.
  double LifetimeX = 0.0;
  bool Clean = false;
  bool InvariantsOk = false;
};

ScenarioOutcome runScenario(ScenarioShape Shape, std::uint64_t Operations,
                            bool Reduced) {
  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.Ftl = ftlGeometry();
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Volume Vol(Pipeline, VolumeConfig{VolumeBlocks});

  ScenarioConfig Scen;
  Scen.Shape = Shape;
  Scen.Operations = Operations;
  Scen.VolumeBlocks = VolumeBlocks;
  Scen.Seed = 7;
  const TraceLog Log = synthesizeScenario(Scen);

  ReplayConfig Replay;
  Replay.RawWrites = !Reduced;
  Replay.GcEveryOps = 64; // invalidate dead chunks as the stream runs
  const TimedReplayReport Report = replayTraceTimed(Vol, Log, Replay);

  const ssd::Ftl *Ftl = Pipeline.ssd().ftl();
  ScenarioOutcome Out;
  Out.Shape = scenarioShapeName(Shape);
  Out.Waf = Ftl->measuredWaf();
  Out.P50Us = Report.P50Us;
  Out.P99Us = Report.P99Us;
  Out.Erases = Ftl->counters().Erases;
  Out.EraseSpread = Ftl->eraseSpread();
  Out.LifetimeFraction = Ftl->lifetimeFractionUsed();
  Out.LifetimeX = Out.LifetimeFraction > 0.0
                      ? 1.0 / Out.LifetimeFraction
                      : 0.0;
  Out.Clean = Report.Stats.clean();
  Out.InvariantsOk = Ftl->checkInvariants(nullptr);
  return Out;
}

/// Replays the pre-FTL golden harness byte-for-byte: default pipeline
/// (no FTL), synthesized trace, reduced then raw replay.
bool runParityGate() {
  bool Pass = true;
  // Reduced replay through replayTrace + flush.
  {
    ReductionPipeline Pipeline(Platform::paper(), PipelineConfig{});
    Volume Vol(Pipeline, VolumeConfig{4096});
    TraceSynthesisConfig T;
    T.Operations = 3000;
    T.VolumeBlocks = 4096;
    T.Seed = 42;
    const TraceLog Log = TraceLog::synthesize(T);
    const TraceRunStats Stats = replayTrace(Vol, Log);
    Vol.flush();
    const std::uint64_t Host = Pipeline.ssd().hostBytesWritten();
    const std::uint64_t Nand = Pipeline.ssd().nandBytesWritten();
    if (Host != GoldenHostBytes || Nand != GoldenReducedNand ||
        !Stats.clean()) {
      std::fprintf(stderr,
                   "FAIL: reduced parity host=%llu nand=%llu "
                   "(want %llu/%llu)\n",
                   static_cast<unsigned long long>(Host),
                   static_cast<unsigned long long>(Nand),
                   static_cast<unsigned long long>(GoldenHostBytes),
                   static_cast<unsigned long long>(GoldenReducedNand));
      Pass = false;
    }
  }
  // Raw replay: writes via writeBlocksRaw, trims applied, reads skipped.
  {
    ReductionPipeline Pipeline(Platform::paper(), PipelineConfig{});
    Volume Vol(Pipeline, VolumeConfig{4096});
    TraceSynthesisConfig T;
    T.Operations = 3000;
    T.VolumeBlocks = 4096;
    T.Seed = 42;
    const TraceLog Log = TraceLog::synthesize(T);
    ByteVector Buf;
    for (const TraceRecord &R : Log.Records) {
      if (R.Lba + R.Blocks > Vol.blockCount())
        continue;
      if (R.Op == TraceOp::Write) {
        Buf.resize(static_cast<std::size_t>(R.Blocks) * 4096);
        for (std::uint32_t I = 0; I < R.Blocks; ++I)
          fillTraceBlock(R.ContentTag,
                         MutableByteSpan(Buf.data() + I * 4096, 4096));
        Vol.writeBlocksRaw(R.Lba, ByteSpan(Buf.data(), Buf.size()));
      } else if (R.Op == TraceOp::Trim) {
        Vol.trim(R.Lba, R.Blocks);
      }
    }
    Vol.flush();
    const std::uint64_t Host = Pipeline.ssd().hostBytesWritten();
    const std::uint64_t Nand = Pipeline.ssd().nandBytesWritten();
    if (Host != GoldenHostBytes || Nand != GoldenRawNand) {
      std::fprintf(stderr,
                   "FAIL: raw parity host=%llu nand=%llu "
                   "(want %llu/%llu)\n",
                   static_cast<unsigned long long>(Host),
                   static_cast<unsigned long long>(Nand),
                   static_cast<unsigned long long>(GoldenHostBytes),
                   static_cast<unsigned long long>(GoldenRawNand));
      Pass = false;
    }
  }
  return Pass;
}

bool writeJson(const char *Path,
               const std::vector<ScenarioOutcome> &Shapes,
               const ScenarioOutcome &ReductionOff,
               const ScenarioOutcome &ReductionOn, bool ParityPass) {
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  std::fprintf(File, "{\n  \"experiment\": \"E9\",\n  \"shapes\": [\n");
  for (std::size_t I = 0; I < Shapes.size(); ++I) {
    const ScenarioOutcome &S = Shapes[I];
    std::fprintf(File,
                 "    {\"shape\": \"%s\", \"waf\": %.4f, \"p50_us\": "
                 "%.1f, \"p99_us\": %.1f, \"erases\": %llu, "
                 "\"erase_spread\": %llu, \"lifetime_fraction\": "
                 "%.6f}%s\n",
                 S.Shape, S.Waf, S.P50Us, S.P99Us,
                 static_cast<unsigned long long>(S.Erases),
                 static_cast<unsigned long long>(S.EraseSpread),
                 S.LifetimeFraction, I + 1 < Shapes.size() ? "," : "");
  }
  std::fprintf(File,
               "  ],\n  \"reduction\": {\n"
               "    \"off\": {\"waf\": %.4f, \"lifetime_fraction\": "
               "%.6f},\n"
               "    \"on\": {\"waf\": %.4f, \"lifetime_fraction\": "
               "%.6f}\n  },\n"
               "  \"parity_pass\": %s\n}\n",
               ReductionOff.Waf, ReductionOff.LifetimeFraction,
               ReductionOn.Waf, ReductionOn.LifetimeFraction,
               ParityPass ? "true" : "false");
  std::fclose(File);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  banner("E9", Smoke ? "page-level FTL under shaped workloads (smoke)"
                     : "page-level FTL under shaped workloads — "
                       "measured WA, latency, device lifetime");

  //===------------------------------------------------------------===//
  // 1. Write amplification by workload shape (reduction off: the FTL
  //    sees every host block, so the shape's overwrite pattern is the
  //    only variable).
  //===------------------------------------------------------------===//
  // Ops stay at full scale even in smoke: below ~2 device wraps GC
  // never has to copy and every WA converges to 1.0, which would make
  // the shape gate vacuous. Smoke trims the shape sweep instead.
  const std::uint64_t Ops = 4000;
  const std::vector<ScenarioShape> Sweep =
      Smoke ? std::vector<ScenarioShape>{ScenarioShape::Sequential,
                                         ScenarioShape::SkewedHot}
            : std::vector<ScenarioShape>{
                  ScenarioShape::Sequential, ScenarioShape::UniformRandom,
                  ScenarioShape::SkewedHot, ScenarioShape::BurstyHot,
                  ScenarioShape::DayNight};
  std::vector<ScenarioOutcome> Shapes;
  std::printf("\nWA by shape (%llu ops, raw writes, 64-block FTL, "
              "12%% OP):\n%-14s %8s %10s %10s %8s %8s %10s\n",
              static_cast<unsigned long long>(Ops), "shape", "WA",
              "p50 (us)", "p99 (us)", "erases", "spread", "lifetime");
  for (const ScenarioShape Shape : Sweep) {
    Shapes.push_back(runScenario(Shape, Ops, /*Reduced=*/false));
    const ScenarioOutcome &S = Shapes.back();
    std::printf("%-14s %8.3f %10.1f %10.1f %8llu %8llu %9.0fx\n",
                S.Shape, S.Waf, S.P50Us, S.P99Us,
                static_cast<unsigned long long>(S.Erases),
                static_cast<unsigned long long>(S.EraseSpread),
                S.LifetimeX);
  }

  //===------------------------------------------------------------===//
  // 2. Reduction on vs off over the skewed-hot shape.
  //===------------------------------------------------------------===//
  const ScenarioOutcome Off =
      runScenario(ScenarioShape::SkewedHot, Ops, /*Reduced=*/false);
  const ScenarioOutcome On =
      runScenario(ScenarioShape::SkewedHot, Ops, /*Reduced=*/true);
  std::printf("\nreduction on vs off (skewed-hot):\n"
              "%-14s %8s %12s %14s\n", "pipeline", "WA", "erases",
              "budget used");
  std::printf("%-14s %8.3f %12llu %13.2f%%\n", "raw", Off.Waf,
              static_cast<unsigned long long>(Off.Erases),
              Off.LifetimeFraction * 100.0);
  std::printf("%-14s %8.3f %12llu %13.2f%%\n", "reduced", On.Waf,
              static_cast<unsigned long long>(On.Erases),
              On.LifetimeFraction * 100.0);

  //===------------------------------------------------------------===//
  // 3. Constant-WA parity (FTL disabled).
  //===------------------------------------------------------------===//
  const bool ParityPass = runParityGate();
  std::printf("\nconstant-WA parity (FTL off): %s\n",
              ParityPass ? "bit-exact with pre-FTL goldens" : "FAILED");

  const char *JsonPath = "bench_ftl.json";
  if (!writeJson(JsonPath, Shapes, Off, On, ParityPass))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  else
    std::printf("json: %s\n", JsonPath);

  //===------------------------------------------------------------===//
  // Acceptance gates.
  //===------------------------------------------------------------===//
  bool Pass = ParityPass;
  const ScenarioOutcome &Seq = Shapes.front();
  for (const ScenarioOutcome &S : Shapes) {
    if (!S.Clean || !S.InvariantsOk) {
      std::fprintf(stderr, "FAIL: %s replay not clean or FTL "
                           "invariants broken\n",
                   S.Shape);
      Pass = false;
    }
  }
  // Gate 1: hot random overwrites must amplify more than sequential
  // overwrite passes.
  const ScenarioOutcome *Skewed = nullptr;
  for (const ScenarioOutcome &S : Shapes)
    if (std::strcmp(S.Shape, "skewed-hot") == 0)
      Skewed = &S;
  if (!Skewed || !(Skewed->Waf > Seq.Waf)) {
    std::fprintf(stderr, "FAIL: skewed-hot WA (%.3f) not above "
                         "sequential (%.3f)\n",
                 Skewed ? Skewed->Waf : 0.0, Seq.Waf);
    Pass = false;
  }
  // Gate 2: reduction must lower WA and burn less of the erase budget
  // (longer device lifetime) on the same stream.
  if (!(On.Waf < Off.Waf) ||
      !(On.LifetimeFraction < Off.LifetimeFraction)) {
    std::fprintf(stderr, "FAIL: reduction did not help: WA %.3f -> "
                         "%.3f, budget %.4f%% -> %.4f%%\n",
                 Off.Waf, On.Waf, Off.LifetimeFraction * 100.0,
                 On.LifetimeFraction * 100.0);
    Pass = false;
  }

  std::printf("\n");
  paperRow("WA vs workload shape", "skewed > sequential",
           Pass ? "reproduced" : "see FAIL lines");
  paperRow("inline reduction on endurance", "fewer NAND programs",
           On.LifetimeFraction < Off.LifetimeFraction ? "reproduced"
                                                      : "NOT reproduced");
  return Pass ? 0 : 1;
}
