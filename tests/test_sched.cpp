//===----------------------------------------------------------------------===//
///
/// \file
/// Pipelined batch scheduler tests (ctest -L sched): the in-flight
/// window changes *when* modelled time lands, never what the pipeline
/// does. Depth sweeps must keep recipes, stored bytes and per-lane
/// busy charges bit-identical while the dependency-constrained wall
/// time shrinks monotonically; the scheduled per-lane totals must
/// reconcile exactly with the ledger's charges; and fault-recovery
/// paths must drain the window cleanly at every depth.
///
//===----------------------------------------------------------------------===//

#include "core/BatchScheduler.h"
#include "core/ReductionPipeline.h"
#include "fault/FaultInjector.h"
#include "fault/FaultPlan.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

using namespace padre;

namespace {

ByteVector makeStream(std::uint64_t Bytes, std::uint64_t Seed = 77) {
  WorkloadConfig Config;
  Config.TotalBytes = Bytes;
  Config.DedupRatio = 2.0;
  Config.CompressRatio = 2.0;
  Config.Seed = Seed;
  return VdbenchStream(Config).generateAll();
}

PipelineConfig configFor(PipelineMode Mode, std::size_t Depth) {
  PipelineConfig Config;
  Config.Mode = Mode;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.BufferCapacityPerBin = 8;
  Config.PipelineDepth = Depth;
  return Config;
}

/// Everything a depth sweep compares between two runs.
struct RunResult {
  StreamRecipe Recipe;
  std::uint64_t StoredBytes = 0;
  ByteVector ReadBack;
  std::array<double, ResourceCount> BusyUs{};
  std::array<double, ResourceCount> SchedUs{};
  double WallUs = 0.0;
  std::size_t InFlight = 0;
  PipelineReport Report;
};

RunResult runOnce(PipelineMode Mode, std::size_t Depth,
                  const ByteVector &Data) {
  ReductionPipeline Pipeline(Platform::paper(), configFor(Mode, Depth));
  EXPECT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  EXPECT_TRUE(Pipeline.finish().ok());

  RunResult Result;
  Result.Recipe = Pipeline.recipe();
  Result.Report = Pipeline.report();
  Result.StoredBytes = Result.Report.StoredBytes;
  for (unsigned R = 0; R < ResourceCount; ++R) {
    Result.BusyUs[R] = Pipeline.ledger().busyMicros(static_cast<Resource>(R));
    Result.SchedUs[R] =
        Pipeline.ledger().laneScheduledMicros(static_cast<Resource>(R));
  }
  Result.WallUs = Pipeline.scheduler().wallMicros();
  Result.InFlight = Pipeline.scheduler().inFlight();
  const auto Restored = Pipeline.readBack();
  EXPECT_TRUE(Restored.has_value());
  if (Restored)
    Result.ReadBack = *Restored;
  return Result;
}

constexpr std::size_t Depths[] = {1, 2, 4, 8};

} // namespace

//===----------------------------------------------------------------------===//
// Depth-sweep determinism
//===----------------------------------------------------------------------===//

TEST(SchedDepthSweep, ResultsBitIdenticalAcrossDepths) {
  const ByteVector Data = makeStream(8ull << 20);
  for (unsigned M = 0; M < PipelineModeCount; ++M) {
    const auto Mode = static_cast<PipelineMode>(M);
    const RunResult Serial = runOnce(Mode, 1, Data);
    EXPECT_EQ(Serial.ReadBack, Data) << pipelineModeName(Mode);
    for (const std::size_t Depth : Depths) {
      if (Depth == 1)
        continue;
      const RunResult Deep = runOnce(Mode, Depth, Data);
      SCOPED_TRACE(std::string(pipelineModeName(Mode)) + " depth " +
                   std::to_string(Depth));
      EXPECT_EQ(Deep.Recipe.ChunkLocations, Serial.Recipe.ChunkLocations);
      EXPECT_EQ(Deep.Recipe.ChunkSizes, Serial.Recipe.ChunkSizes);
      EXPECT_EQ(Deep.StoredBytes, Serial.StoredBytes);
      EXPECT_EQ(Deep.ReadBack, Serial.ReadBack);
      // Charged time is depth-invariant: pipelining only reorders it.
      for (unsigned R = 0; R < ResourceCount; ++R)
        EXPECT_DOUBLE_EQ(Deep.BusyUs[R], Serial.BusyUs[R])
            << resourceName(static_cast<Resource>(R));
    }
  }
}

TEST(SchedDepthSweep, WallTimeMonotoneNonIncreasing) {
  const ByteVector Data = makeStream(8ull << 20);
  for (unsigned M = 0; M < PipelineModeCount; ++M) {
    const auto Mode = static_cast<PipelineMode>(M);
    double PrevWallUs = 0.0;
    for (const std::size_t Depth : Depths) {
      const RunResult Result = runOnce(Mode, Depth, Data);
      SCOPED_TRACE(std::string(pipelineModeName(Mode)) + " depth " +
                   std::to_string(Depth));
      EXPECT_GT(Result.WallUs, 0.0);
      if (Depth > 1) {
        EXPECT_LE(Result.WallUs, PrevWallUs + 1e-6);
      }
      // The wall can never undercut any single lane's occupancy.
      for (unsigned R = 0; R < ResourceCount; ++R)
        EXPECT_GE(Result.WallUs + 1e-6, Result.SchedUs[R]);
      PrevWallUs = Result.WallUs;
    }
  }
}

TEST(SchedDepthSweep, DepthFourBeatsSerialOnGpuCompress) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult Serial = runOnce(PipelineMode::GpuCompress, 1, Data);
  const RunResult Deep = runOnce(PipelineMode::GpuCompress, 4, Data);
  EXPECT_LT(Deep.WallUs, Serial.WallUs);
  EXPECT_GT(Deep.Report.WallThroughputMBps, Serial.Report.WallThroughputMBps);
}

//===----------------------------------------------------------------------===//
// Charge reconciliation
//===----------------------------------------------------------------------===//

TEST(SchedReconcile, ScheduledTotalsMatchLedgerCharges) {
  const ByteVector Data = makeStream(8ull << 20);
  const unsigned Threads = Platform::paper().Model.Cpu.Threads;
  for (unsigned M = 0; M < PipelineModeCount; ++M) {
    const auto Mode = static_cast<PipelineMode>(M);
    for (const std::size_t Depth : Depths) {
      ReductionPipeline Pipeline(Platform::paper(), configFor(Mode, Depth));
      ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
      ASSERT_TRUE(Pipeline.finish().ok());
      SCOPED_TRACE(std::string(pipelineModeName(Mode)) + " depth " +
                   std::to_string(Depth));
      // CPU occupancy is normalized by the pool width; every other lane
      // replays its charges one-to-one. Tolerance covers the per-charge
      // integer-ns quantization and the sub-nanosecond schedule skips.
      EXPECT_NEAR(Pipeline.ledger().laneScheduledMicros(Resource::CpuPool),
                  Pipeline.ledger().busyMicros(Resource::CpuPool) / Threads,
                  1.0);
      for (const Resource R : {Resource::Gpu, Resource::Pcie, Resource::Ssd,
                               Resource::IndexLock})
        EXPECT_NEAR(Pipeline.ledger().laneScheduledMicros(R),
                    Pipeline.ledger().busyMicros(R), 1.0)
            << resourceName(R);
    }
  }
}

TEST(SchedReconcile, OverlapAccountingIsConsistent) {
  const ByteVector Data = makeStream(8ull << 20);
  ReductionPipeline Pipeline(Platform::paper(),
                             configFor(PipelineMode::GpuCompress, 4));
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());
  const ScheduleOverlap Overlap = Pipeline.scheduler().overlap();
  for (unsigned R = 0; R < ResourceCount; ++R) {
    SCOPED_TRACE(resourceName(static_cast<Resource>(R)));
    EXPECT_NEAR(Overlap.BusySec[R] * 1e6,
                Pipeline.ledger().laneScheduledMicros(static_cast<Resource>(R)),
                1.0);
    EXPECT_GE(Overlap.HiddenSec[R], 0.0);
    EXPECT_LE(Overlap.HiddenSec[R], Overlap.BusySec[R] + 1e-9);
  }
  // At depth 4 on gpu-compress, some GPU time must actually hide
  // behind concurrent CPU/SSD work — the whole point of the window.
  EXPECT_GT(Overlap.HiddenSec[static_cast<unsigned>(Resource::Gpu)], 0.0);
}

//===----------------------------------------------------------------------===//
// Window lifecycle
//===----------------------------------------------------------------------===//

TEST(SchedWindow, DrainsCleanlyAfterFinish) {
  const ByteVector Data = makeStream(4ull << 20);
  for (const std::size_t Depth : Depths) {
    const RunResult Result = runOnce(PipelineMode::GpuCompress, Depth, Data);
    EXPECT_EQ(Result.InFlight, 0u) << "depth " << Depth;
    EXPECT_EQ(Result.Report.PipelineDepth, Depth);
  }
}

TEST(SchedWindow, ResetMeasurementResetsTimeline) {
  const ByteVector Data = makeStream(4ull << 20);
  ReductionPipeline Pipeline(Platform::paper(),
                             configFor(PipelineMode::GpuCompress, 4));
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_GT(Pipeline.scheduler().wallMicros(), 0.0);
  Pipeline.resetMeasurement();
  EXPECT_DOUBLE_EQ(Pipeline.scheduler().wallMicros(), 0.0);
  EXPECT_EQ(Pipeline.scheduler().batchesScheduled(), 0u);
  for (unsigned R = 0; R < ResourceCount; ++R)
    EXPECT_DOUBLE_EQ(
        Pipeline.ledger().laneScheduledMicros(static_cast<Resource>(R)), 0.0);
  // A post-reset write schedules fresh from t=0.
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());
  EXPECT_GT(Pipeline.scheduler().wallMicros(), 0.0);
  EXPECT_EQ(Pipeline.scheduler().inFlight(), 0u);
}

//===----------------------------------------------------------------------===//
// Fault drain: the window must empty under every fault class, whether
// the run recovers (bounded retries) or surfaces a typed error.
//===----------------------------------------------------------------------===//

namespace {

void runFaultDrain(const char *PlanSpec, bool VerifyWhenOk = true) {
  SCOPED_TRACE(PlanSpec);
  fault::FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(fault::parseFaultPlan(PlanSpec, Plan, Error)) << Error;
  const ByteVector Data = makeStream(4ull << 20);
  for (const std::size_t Depth : {std::size_t(1), std::size_t(4)}) {
    fault::FaultInjector Injector(Plan);
    PipelineConfig Config = configFor(PipelineMode::GpuBoth, Depth);
    Config.Faults = &Injector;
    ReductionPipeline Pipeline(Platform::paper(), Config);
    const fault::Status WriteStatus =
        Pipeline.write(ByteSpan(Data.data(), Data.size()));
    const fault::Status FinishStatus = Pipeline.finish();
    // Recovered or not, no batch may be left mid-window.
    EXPECT_EQ(Pipeline.scheduler().inFlight(), 0u) << "depth " << Depth;
    if (VerifyWhenOk && WriteStatus.ok() && FinishStatus.ok()) {
      EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())))
          << "depth " << Depth;
    }
  }
}

} // namespace

TEST(SchedFaultDrain, SsdReadError) {
  runFaultDrain("seed=11;ssd-read:error:p=0.02");
}

TEST(SchedFaultDrain, SsdWriteError) {
  runFaultDrain("seed=12;ssd-write:error:p=0.02");
}

TEST(SchedFaultDrain, SsdWriteTimeout) {
  runFaultDrain("seed=13;ssd-write:timeout:p=0.02");
}

TEST(SchedFaultDrain, GpuKernelEcc) {
  runFaultDrain("seed=14;gpu-kernel:ecc:p=0.05");
}

TEST(SchedFaultDrain, GpuKernelHang) {
  runFaultDrain("seed=15;gpu-kernel:hang:every=9");
}

TEST(SchedFaultDrain, GpuDmaCorrupt) {
  runFaultDrain("seed=16;gpu-dma:dma-corrupt:p=0.05");
}

TEST(SchedFaultDrain, DestageBitflip) {
  // Bit flips corrupt stored payloads *silently* — only the scrub path
  // detects them — so the drain check runs without read-back verify.
  runFaultDrain("seed=17;destage:bitflip:every=31", /*VerifyWhenOk=*/false);
}
