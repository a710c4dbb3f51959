//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-backend splitter property tests (ctest -L backend). The
/// correctness bar for src/backend: every integration mode's forced
/// split must reproduce the golden figures of the single-engine
/// compress stage it replaced (stored bytes, ledger charges, the
/// scheduled timeline and latency percentiles), every interior split
/// point must keep results and recipes bit-identical to the serial
/// oracle, the tuner must be deterministic under replay, charges must
/// not depend on the modelled device count, and fault plans must drain
/// the overlap window with bit-exact CPU-fallback results.
///
//===----------------------------------------------------------------------===//

#include "backend/AutoSplitter.h"
#include "backend/GpuBackend.h"
#include "core/ReductionPipeline.h"
#include "fault/FaultInjector.h"
#include "fault/FaultPlan.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

using namespace padre;

namespace {

ByteVector makeStream(std::uint64_t Bytes, std::uint64_t Seed = 91) {
  WorkloadConfig Config;
  Config.TotalBytes = Bytes;
  Config.DedupRatio = 2.0;
  Config.CompressRatio = 2.0;
  Config.Seed = Seed;
  return VdbenchStream(Config).generateAll();
}

/// A pipeline whose split is forced from \p Mode (no explicit
/// PipelineConfig::Backend).
PipelineConfig modeConfig(PipelineMode Mode, std::size_t Depth = 4) {
  PipelineConfig Config;
  Config.Mode = Mode;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.BufferCapacityPerBin = 8;
  Config.PipelineDepth = Depth;
  return Config;
}

PipelineConfig backendConfig(backend::SplitMode Split, double Fraction = 1.0,
                             unsigned GpuDevices = 1, std::size_t Depth = 4) {
  PipelineConfig Config = modeConfig(PipelineMode::CpuOnly, Depth);
  backend::BackendConfig Backend;
  Backend.Split = Split;
  Backend.Fraction = Fraction;
  Backend.GpuDevices = GpuDevices;
  Config.Backend = Backend;
  return Config;
}

/// Everything two runs are diffed on.
struct RunResult {
  StreamRecipe Recipe;
  std::uint64_t StoredBytes = 0;
  ByteVector ReadBack;
  std::array<double, ResourceCount> BusyUs{};
  std::array<double, ResourceCount> SchedUs{};
  double WallUs = 0.0;
  double MakespanSec = 0.0;
  std::uint64_t KernelLaunches = 0;
  PipelineReport Report;
  backend::SplitterStats Stats;
};

RunResult runOnce(const PipelineConfig &Config, const ByteVector &Data) {
  ReductionPipeline Pipeline(Platform::paper(), Config);
  EXPECT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  EXPECT_TRUE(Pipeline.finish().ok());
  RunResult Result;
  Result.Recipe = Pipeline.recipe();
  Result.Report = Pipeline.report();
  Result.StoredBytes = Result.Report.StoredBytes;
  Result.MakespanSec = Result.Report.MakespanSec;
  Result.KernelLaunches = Result.Report.KernelLaunches;
  for (unsigned R = 0; R < ResourceCount; ++R) {
    Result.BusyUs[R] = Pipeline.ledger().busyMicros(static_cast<Resource>(R));
    Result.SchedUs[R] =
        Pipeline.ledger().laneScheduledMicros(static_cast<Resource>(R));
  }
  Result.WallUs = Pipeline.scheduler().wallMicros();
  EXPECT_EQ(Pipeline.scheduler().inFlight(), 0u);
  if (Pipeline.splitter())
    Result.Stats = Pipeline.splitter()->stats();
  const auto Restored = Pipeline.readBack();
  EXPECT_TRUE(Restored.has_value());
  if (Restored)
    Result.ReadBack = *Restored;
  return Result;
}

/// Results + recipes: the any-split-point bar.
void expectSameResults(const RunResult &Oracle, const RunResult &Candidate) {
  EXPECT_EQ(Oracle.Recipe.ChunkLocations, Candidate.Recipe.ChunkLocations);
  EXPECT_EQ(Oracle.Recipe.ChunkSizes, Candidate.Recipe.ChunkSizes);
  EXPECT_EQ(Oracle.ReadBack, Candidate.ReadBack);
  EXPECT_EQ(Oracle.Report.UniqueChunks, Candidate.Report.UniqueChunks);
  EXPECT_EQ(Oracle.Report.DupChunks, Candidate.Report.DupChunks);
}

/// Full identity: the {0,1} pass-through bar — everything above plus
/// stored bytes, per-lane busy charges and the scheduled timeline.
void expectBitIdentical(const RunResult &Oracle, const RunResult &Candidate) {
  expectSameResults(Oracle, Candidate);
  EXPECT_EQ(Oracle.StoredBytes, Candidate.StoredBytes);
  for (unsigned R = 0; R < ResourceCount; ++R) {
    SCOPED_TRACE(resourceName(static_cast<Resource>(R)));
    EXPECT_DOUBLE_EQ(Oracle.BusyUs[R], Candidate.BusyUs[R]);
    EXPECT_DOUBLE_EQ(Oracle.SchedUs[R], Candidate.SchedUs[R]);
  }
  EXPECT_DOUBLE_EQ(Oracle.WallUs, Candidate.WallUs);
}

constexpr double Fractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};

/// What the single-engine compress stage (one CompressEngine per
/// pipeline, replayed by endStage(Compress)) produced for one
/// integration mode on makeStream(8 MiB) with modeConfig — recorded
/// before that stage folded into the splitter, printed at %.17g. Every
/// figure but the wall is the same at depth 1 and 4.
struct ClassicGolden {
  std::uint64_t StoredBytes;
  double BusyUs[ResourceCount];
  double SchedUs[ResourceCount];
  double WallUs[2]; ///< at PipelineDepth 1 and 4
  double LatencyP50Us;
  double LatencyP99Us;
  std::uint64_t RawFallbacks;
  std::uint64_t KernelLaunches;
};

constexpr ClassicGolden CpuOnlyGolden = {
    2153563,
    {186056.02900000001, 0, 0, 12135.211000000001, 0},
    {23257.003625000001, 0, 0, 12135.21037499999, 0},
    {35082.089000000036, 29089.313999999998},
    39.874638379942141,
    165.64255319148936,
    0,
    0};

constexpr ClassicGolden GpuDedupGolden = {
    2153563,
    {171639.09700000001, 11613.583000000001, 1980.704, 12135.211000000001,
     0},
    {21454.887125000001, 11613.583000000001, 1980.7039999999956,
     12135.21037499999, 0},
    {38830.595200000229, 27297.017899999999},
    109.82363315696648,
    239.55185995623634,
    0,
    148};

constexpr ClassicGolden GpuCompressGolden = {
    2240459,
    {97081.173999999999, 9391.237000000001, 831.11900000000003, 12406.76, 0},
    {12135.14675, 9391.2367999999988, 831.11787500000003, 12406.760374999987,
     0},
    {34454.136800000007, 23629.465049999995},
    39.874638379942141,
    1448.7609022556389,
    0,
    8};

constexpr ClassicGolden GpuBothGolden = {
    2240459,
    {90944.389999999999, 18703.25, 2051.4079999999999, 12406.76, 0},
    {11368.04875, 18703.253919999985, 2051.4068749999983, 12406.760374999987,
     0},
    {36992.240460000037, 26388.878669999973},
    139.45378151260505,
    1925.7023255813954,
    0,
    72};

/// Asserts \p Run (at \p Depth) reproduces \p Golden exactly.
void expectGolden(const ClassicGolden &Golden, std::size_t Depth,
                  const RunResult &Run) {
  SCOPED_TRACE("depth " + std::to_string(Depth));
  EXPECT_EQ(Run.StoredBytes, Golden.StoredBytes);
  for (unsigned R = 0; R < ResourceCount; ++R) {
    SCOPED_TRACE(resourceName(static_cast<Resource>(R)));
    EXPECT_DOUBLE_EQ(Run.BusyUs[R], Golden.BusyUs[R]);
    EXPECT_DOUBLE_EQ(Run.SchedUs[R], Golden.SchedUs[R]);
  }
  EXPECT_DOUBLE_EQ(Run.WallUs, Golden.WallUs[Depth == 1 ? 0 : 1]);
  EXPECT_DOUBLE_EQ(Run.Report.LatencyP50Us, Golden.LatencyP50Us);
  EXPECT_DOUBLE_EQ(Run.Report.LatencyP99Us, Golden.LatencyP99Us);
  EXPECT_EQ(Run.Report.RawFallbacks, Golden.RawFallbacks);
  EXPECT_EQ(Run.KernelLaunches, Golden.KernelLaunches);
}

/// Runs \p Mode at depth 1 and 4 (split forced from the mode) and, when
/// given, the equivalent explicit \p Split, against \p Golden.
void expectModeGolden(PipelineMode Mode, const ClassicGolden &Golden,
                      std::optional<backend::SplitMode> Split) {
  const ByteVector Data = makeStream(8ull << 20);
  for (const std::size_t Depth : {std::size_t(1), std::size_t(4)}) {
    const RunResult FromMode = runOnce(modeConfig(Mode, Depth), Data);
    EXPECT_EQ(FromMode.ReadBack, Data);
    expectGolden(Golden, Depth, FromMode);
    if (Split)
      expectGolden(Golden, Depth,
                   runOnce(backendConfig(*Split, 1.0, 1, Depth), Data));
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Forced splits: every integration mode vs the single-engine goldens
//===----------------------------------------------------------------------===//

TEST(BackendPassThrough, CpuOnlyBitIdenticalToClassicCpu) {
  expectModeGolden(PipelineMode::CpuOnly, CpuOnlyGolden,
                   backend::SplitMode::CpuOnly);
}

TEST(BackendPassThrough, GpuOnlyBitIdenticalToClassicGpuCompress) {
  expectModeGolden(PipelineMode::GpuCompress, GpuCompressGolden,
                   backend::SplitMode::GpuOnly);
}

TEST(BackendPassThrough, GpuDedupBitIdenticalToClassicGpuDedup) {
  expectModeGolden(PipelineMode::GpuDedup, GpuDedupGolden, std::nullopt);
}

TEST(BackendPassThrough, GpuBothBitIdenticalToClassicGpuBoth) {
  expectModeGolden(PipelineMode::GpuBoth, GpuBothGolden, std::nullopt);
}

TEST(BackendPassThrough, FixedEndpointsMatchForcedModes) {
  const ByteVector Data = makeStream(4ull << 20);
  expectBitIdentical(runOnce(backendConfig(backend::SplitMode::CpuOnly), Data),
                     runOnce(backendConfig(backend::SplitMode::Fixed, 0.0),
                             Data));
  expectBitIdentical(runOnce(backendConfig(backend::SplitMode::GpuOnly), Data),
                     runOnce(backendConfig(backend::SplitMode::Fixed, 1.0),
                             Data));
}

//===----------------------------------------------------------------------===//
// Every split point: results and recipes never depend on the cut
//===----------------------------------------------------------------------===//

TEST(BackendSplit, ResultsBitIdenticalAtEveryFraction) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult Oracle = runOnce(modeConfig(PipelineMode::CpuOnly), Data);
  ASSERT_EQ(Oracle.ReadBack, Data);
  for (const unsigned Devices : {1u, 2u}) {
    for (const double Fraction : Fractions) {
      SCOPED_TRACE("devices " + std::to_string(Devices) + " fraction " +
                   std::to_string(Fraction));
      const RunResult Split = runOnce(
          backendConfig(backend::SplitMode::Fixed, Fraction, Devices), Data);
      expectSameResults(Oracle, Split);
    }
  }
}

TEST(BackendSplit, AutoModeResultsMatchOracle) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult Oracle = runOnce(modeConfig(PipelineMode::CpuOnly), Data);
  for (const unsigned Devices : {1u, 2u}) {
    SCOPED_TRACE("devices " + std::to_string(Devices));
    const RunResult Auto = runOnce(
        backendConfig(backend::SplitMode::Auto, 1.0, Devices), Data);
    expectSameResults(Oracle, Auto);
    EXPECT_GT(Auto.Stats.Batches, 0u);
  }
}

TEST(BackendSplit, ChargesScheduleAndWallReconcile) {
  const ByteVector Data = makeStream(8ull << 20);
  const unsigned Threads = Platform::paper().Model.Cpu.Threads;
  for (const double Fraction : Fractions) {
    SCOPED_TRACE("fraction " + std::to_string(Fraction));
    const RunResult Split =
        runOnce(backendConfig(backend::SplitMode::Fixed, Fraction, 1), Data);
    // The sliced replay must stay lossless: scheduled lane totals equal
    // the ledger's charges (CPU normalized by pool width), and the wall
    // can never undercut any lane's occupancy.
    EXPECT_NEAR(Split.SchedUs[static_cast<unsigned>(Resource::CpuPool)],
                Split.BusyUs[static_cast<unsigned>(Resource::CpuPool)] /
                    Threads,
                1.0);
    for (const Resource R : {Resource::Gpu, Resource::Pcie, Resource::Ssd,
                             Resource::IndexLock})
      EXPECT_NEAR(Split.SchedUs[static_cast<unsigned>(R)],
                  Split.BusyUs[static_cast<unsigned>(R)], 1.0)
          << resourceName(R);
    for (unsigned R = 0; R < ResourceCount; ++R)
      EXPECT_GE(Split.WallUs + 1e-6, Split.SchedUs[R]);
  }
}

//===----------------------------------------------------------------------===//
// Modelled device count: charges invariant, makespan scales
//===----------------------------------------------------------------------===//

TEST(BackendMultiGpu, BusyChargesInvariantAcrossDeviceCount) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult One =
      runOnce(backendConfig(backend::SplitMode::GpuOnly, 1.0, 1), Data);
  const RunResult Two =
      runOnce(backendConfig(backend::SplitMode::GpuOnly, 1.0, 2), Data);
  expectSameResults(One, Two);
  EXPECT_EQ(One.StoredBytes, Two.StoredBytes);
  // Busy accumulators are shared across mirrored lanes — work charged,
  // not where it ran — so the device count must not change any charge.
  for (unsigned R = 0; R < ResourceCount; ++R) {
    SCOPED_TRACE(resourceName(static_cast<Resource>(R)));
    EXPECT_DOUBLE_EQ(One.BusyUs[R], Two.BusyUs[R]);
  }
}

TEST(BackendMultiGpu, ComputeMakespanScalesWithDevices) {
  // GPU-bound shape: dedup off, big batches — the compute makespan is
  // the device lanes' occupancy, which halves across two devices.
  WorkloadConfig Shape;
  Shape.TotalBytes = 16ull << 20;
  Shape.DedupRatio = 1.0;
  Shape.CompressRatio = 2.0;
  Shape.Seed = 92;
  const ByteVector Data = VdbenchStream(Shape).generateAll();
  PipelineConfig Config = backendConfig(backend::SplitMode::GpuOnly, 1.0, 1);
  Config.DedupEnabled = false;
  Config.BatchChunks = 2048;
  const RunResult One = runOnce(Config, Data);
  Config.Backend->GpuDevices = 2;
  const RunResult Two = runOnce(Config, Data);
  expectSameResults(One, Two);
  ASSERT_GT(Two.MakespanSec, 0.0);
  EXPECT_GE(One.MakespanSec / Two.MakespanSec, 1.5);
}

TEST(BackendMultiGpu, PipelinedSubBatchesMatchOneGpu) {
  // Deep batches under Auto: each batch spans more compression
  // sub-batches than devices, so every device replays several
  // per-sub-batch records on its own lanes. On this stream the 2-GPU
  // tuner routes every chunk to the devices, so charges must equal a
  // forced single-GPU run of the same batches.
  const ByteVector Data = makeStream(8ull << 20);
  PipelineConfig Config = backendConfig(backend::SplitMode::GpuOnly);
  Config.BatchChunks = 1024;
  const RunResult One = runOnce(Config, Data);
  Config.Backend->Split = backend::SplitMode::Auto;
  Config.Backend->GpuDevices = 2;
  const RunResult Two = runOnce(Config, Data);
  ASSERT_EQ(Two.Stats.CpuChunks, 0u);
  EXPECT_GT(Two.KernelLaunches, 2 * Two.Stats.Batches);
  expectSameResults(One, Two);
  EXPECT_EQ(One.StoredBytes, Two.StoredBytes);
  EXPECT_EQ(One.KernelLaunches, Two.KernelLaunches);
  const unsigned Threads = Platform::paper().Model.Cpu.Threads;
  for (unsigned R = 0; R < ResourceCount; ++R) {
    SCOPED_TRACE(resourceName(static_cast<Resource>(R)));
    EXPECT_DOUBLE_EQ(One.BusyUs[R], Two.BusyUs[R]);
    // Lossless replay across the aux device lanes.
    const double Width =
        R == static_cast<unsigned>(Resource::CpuPool) ? Threads : 1.0;
    EXPECT_NEAR(Two.SchedUs[R], Two.BusyUs[R] / Width, 1.0);
  }
}

//===----------------------------------------------------------------------===//
// Tuner: deterministic under replay, observes real rates
//===----------------------------------------------------------------------===//

TEST(BackendTuner, DeterministicUnderReplay) {
  const ByteVector Data = makeStream(8ull << 20);
  for (const unsigned Devices : {1u, 2u}) {
    SCOPED_TRACE("devices " + std::to_string(Devices));
    const RunResult First = runOnce(
        backendConfig(backend::SplitMode::Auto, 1.0, Devices), Data);
    const RunResult Second = runOnce(
        backendConfig(backend::SplitMode::Auto, 1.0, Devices), Data);
    expectBitIdentical(First, Second);
    EXPECT_DOUBLE_EQ(First.Stats.Fraction, Second.Stats.Fraction);
    EXPECT_DOUBLE_EQ(First.Stats.CpuRateBytesPerUs,
                     Second.Stats.CpuRateBytesPerUs);
    EXPECT_DOUBLE_EQ(First.Stats.GpuRateBytesPerUs,
                     Second.Stats.GpuRateBytesPerUs);
    EXPECT_EQ(First.Stats.Batches, Second.Stats.Batches);
    EXPECT_EQ(First.Stats.CpuChunks, Second.Stats.CpuChunks);
    EXPECT_EQ(First.Stats.GpuChunks, Second.Stats.GpuChunks);
  }
}

TEST(BackendTuner, ObservesRatesAndRoutesWork) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult Auto =
      runOnce(backendConfig(backend::SplitMode::Auto, 1.0, 1), Data);
  EXPECT_GT(Auto.Stats.CpuRateBytesPerUs, 0.0);
  EXPECT_GT(Auto.Stats.GpuRateBytesPerUs, 0.0);
  // On the paper platform the GPU compresses literals ~13x faster per
  // byte than a CPU thread; the tuner must discover a device-heavy
  // split, not sit on the seed.
  EXPECT_GT(Auto.Stats.Fraction, 0.5);
  EXPECT_GT(Auto.Stats.GpuChunks, Auto.Stats.CpuChunks);
}

TEST(BackendTuner, WindowClampAndConfigSurvive) {
  const ByteVector Data = makeStream(2ull << 20);
  PipelineConfig Config = backendConfig(backend::SplitMode::Auto);
  Config.Backend->TunerWindow = 0; // clamps to 1 (pure last-batch rate)
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());
  ASSERT_NE(Pipeline.splitter(), nullptr);
  EXPECT_EQ(Pipeline.splitter()->config().TunerWindow, 1u);
  EXPECT_EQ(Pipeline.gpuDeviceCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Pool width: the lane kernel body runs chunk-parallel, priced serially
//===----------------------------------------------------------------------===//

namespace {

/// One unpipelined gpu-compress slice over \p Data, on a fresh ledger
/// and a pool of \p Workers threads.
struct KernelRun {
  std::vector<CompressedChunk> Out;
  std::vector<BatchScheduler::CompressSlice> Slices;
  std::array<double, ResourceCount> BusyUs{};
};

KernelRun compressOnPool(unsigned Workers, const ByteVector &Data) {
  const CostModel Model = Platform::paper().Model;
  ResourceLedger Ledger;
  ThreadPool Pool(Workers);
  GpuDevice Device(Model, Ledger);
  backend::GpuBackend Backend(Model, Ledger, Pool, Device,
                              CompressEngineConfig());
  std::vector<ChunkView> Views;
  for (std::size_t Offset = 0; Offset < Data.size(); Offset += 4096)
    Views.push_back(ChunkView{
        ByteSpan(Data.data() + Offset, std::min<std::size_t>(
                                           4096, Data.size() - Offset)),
        Offset});
  KernelRun Run;
  Run.Out.resize(Views.size());
  Backend.executeSlice(Views, 0, Views.size(), Run.Out, Run.Slices,
                       /*Pipelined=*/false);
  for (unsigned R = 0; R < ResourceCount; ++R)
    Run.BusyUs[R] = Ledger.busyMicros(static_cast<Resource>(R));
  return Run;
}

} // namespace

TEST(BackendPoolWidth, GpuLaneKernelIdenticalOnOneAndEightWorkers) {
  // Three sub-batches of lane kernels. The kernel time is summed in
  // chunk order whatever the pool width, so blocks, per-chunk
  // latencies, device ops and every ledger charge are bit-equal.
  const ByteVector Data = makeStream(3ull << 20);
  const KernelRun One = compressOnPool(1, Data);
  const KernelRun Eight = compressOnPool(8, Data);
  ASSERT_EQ(One.Out.size(), Eight.Out.size());
  for (std::size_t I = 0; I < One.Out.size(); ++I) {
    SCOPED_TRACE("chunk " + std::to_string(I));
    EXPECT_EQ(One.Out[I].Block, Eight.Out[I].Block);
    EXPECT_EQ(One.Out[I].StoredRaw, Eight.Out[I].StoredRaw);
    EXPECT_EQ(One.Out[I].LatencyUs, Eight.Out[I].LatencyUs);
  }
  ASSERT_EQ(One.Slices.size(), 1u);
  ASSERT_EQ(Eight.Slices.size(), 1u);
  const std::vector<GpuOp> &OneOps = One.Slices[0].Ops;
  const std::vector<GpuOp> &EightOps = Eight.Slices[0].Ops;
  ASSERT_EQ(OneOps.size(), 9u); // H2D, kernel, D2H per sub-batch
  ASSERT_EQ(OneOps.size(), EightOps.size());
  for (std::size_t I = 0; I < OneOps.size(); ++I) {
    EXPECT_EQ(OneOps[I].Op, EightOps[I].Op);
    EXPECT_EQ(OneOps[I].Micros, EightOps[I].Micros);
  }
  EXPECT_EQ(One.BusyUs[static_cast<unsigned>(Resource::Gpu)],
            Eight.BusyUs[static_cast<unsigned>(Resource::Gpu)]);
  EXPECT_EQ(One.BusyUs[static_cast<unsigned>(Resource::Pcie)],
            Eight.BusyUs[static_cast<unsigned>(Resource::Pcie)]);
  // The CPU refinement pass books its per-chunk costs sliced by the
  // modelled Cpu.Threads, not by the host pool, so it is bit-equal too.
  EXPECT_EQ(One.BusyUs[static_cast<unsigned>(Resource::CpuPool)],
            Eight.BusyUs[static_cast<unsigned>(Resource::CpuPool)]);
}

//===----------------------------------------------------------------------===//
// Fault drain: device faults fall back bit-exactly, window empties
//===----------------------------------------------------------------------===//

namespace {

void runBackendFaultDrain(const char *PlanSpec, unsigned Devices) {
  SCOPED_TRACE(std::string(PlanSpec) + " devices " + std::to_string(Devices));
  fault::FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(fault::parseFaultPlan(PlanSpec, Plan, Error)) << Error;
  const ByteVector Data = makeStream(4ull << 20);
  const RunResult Clean = runOnce(modeConfig(PipelineMode::CpuOnly), Data);
  fault::FaultInjector Injector(Plan);
  PipelineConfig Config =
      backendConfig(backend::SplitMode::Auto, 1.0, Devices);
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  const fault::Status WriteStatus =
      Pipeline.write(ByteSpan(Data.data(), Data.size()));
  const fault::Status FinishStatus = Pipeline.finish();
  EXPECT_EQ(Pipeline.scheduler().inFlight(), 0u);
  if (!WriteStatus.ok() || !FinishStatus.ok())
    return;
  // Device faults re-compress the slice on the CPU: outcomes, recipes
  // and the decoded stream stay bit-exact to the fault-free oracle.
  EXPECT_EQ(Pipeline.recipe().ChunkLocations, Clean.Recipe.ChunkLocations);
  EXPECT_EQ(Pipeline.recipe().ChunkSizes, Clean.Recipe.ChunkSizes);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

} // namespace

TEST(BackendFaultDrain, GpuKernelEcc) {
  for (const unsigned Devices : {1u, 2u})
    runBackendFaultDrain("seed=21;gpu-kernel:ecc:p=0.05", Devices);
}

TEST(BackendFaultDrain, GpuKernelHang) {
  for (const unsigned Devices : {1u, 2u})
    runBackendFaultDrain("seed=22;gpu-kernel:hang:every=9", Devices);
}

TEST(BackendFaultDrain, GpuDmaCorrupt) {
  for (const unsigned Devices : {1u, 2u})
    runBackendFaultDrain("seed=23;gpu-dma:dma-corrupt:p=0.05", Devices);
}

TEST(BackendFaultDrain, SsdWriteError) {
  for (const unsigned Devices : {1u, 2u})
    runBackendFaultDrain("seed=24;ssd-write:error:p=0.02", Devices);
}
