//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-injection and graceful-degradation tests: deterministic
/// replay of seeded fault schedules, typed-error surfacing, bounded
/// retry recovery, GPU->CPU fallback bit-exactness, destage corruption
/// and scrub-and-repair. Labelled `fault` (ctest -L fault).
///
//===----------------------------------------------------------------------===//

#include "core/ReductionPipeline.h"
#include "core/Volume.h"
#include "restore/ReadPipeline.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

using namespace padre;

namespace {

ByteVector makeStream(std::uint64_t Bytes, double Dedup = 2.0,
                      double Compress = 2.0, std::uint64_t Seed = 21) {
  WorkloadConfig Config;
  Config.TotalBytes = Bytes;
  Config.DedupRatio = Dedup;
  Config.CompressRatio = Compress;
  Config.Seed = Seed;
  return VdbenchStream(Config).generateAll();
}

PipelineConfig pipelineConfig(PipelineMode Mode) {
  PipelineConfig Config;
  Config.Mode = Mode;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.BufferCapacityPerBin = 8;
  return Config;
}

fault::FaultRule rule(fault::FaultSite Site, fault::FaultKind Kind) {
  fault::FaultRule Rule;
  Rule.Site = Site;
  Rule.Kind = Kind;
  return Rule;
}

/// Reads one chunk through the pipeline's restore engine, keeping the
/// failure class.
fault::Expected<ByteVector> readTyped(ReductionPipeline &Pipeline,
                                      std::uint64_t Location) {
  std::vector<ByteVector> Out;
  std::vector<restore::ReadFailure> Failures;
  if (!Pipeline.reader().readLocations(
          std::span<const std::uint64_t>(&Location, 1), Out, &Failures))
    return fault::Status::error(Failures.front().Code, Location);
  return std::move(Out.front());
}

/// Scrubs one chunk (with repair) and returns its outcome.
ScrubOutcome scrubOne(ReductionPipeline &Pipeline, std::uint64_t Location,
                      const Fingerprint &Fp) {
  const ChunkRecord Record{Location, 1, Fp};
  return Pipeline.scrub(std::span<const ChunkRecord>(&Record, 1),
                        /*Repair=*/true)
      .front();
}

/// Every resource lane's busy time, for bit-identity comparisons.
std::array<double, ResourceCount> busyTimes(ReductionPipeline &Pipeline) {
  std::array<double, ResourceCount> Busy{};
  for (unsigned R = 0; R < ResourceCount; ++R)
    Busy[R] = Pipeline.ledger().busyMicros(static_cast<Resource>(R));
  return Busy;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan parsing
//===----------------------------------------------------------------------===//

TEST(FaultPlanParse, AcceptsFullMiniLanguage) {
  fault::FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(fault::parseFaultPlan(
      "seed=7;retries=2;backoff-us=50;timeout-us=250;hang-us=1000;"
      "ssd-read:error:p=0.25;ssd-write:timeout:at=3,1;gpu-kernel:hang:"
      "every=10;gpu-dma:dma-corrupt:p=0.5;destage:bitflip:at=0",
      Plan, Error))
      << Error;
  EXPECT_EQ(Plan.Seed, 7u);
  EXPECT_EQ(Plan.Policy.MaxRetries, 2u);
  EXPECT_DOUBLE_EQ(Plan.Policy.RetryBackoffUs, 50.0);
  EXPECT_DOUBLE_EQ(Plan.Policy.SsdTimeoutUs, 250.0);
  EXPECT_DOUBLE_EQ(Plan.Policy.GpuHangTimeoutUs, 1000.0);
  ASSERT_EQ(Plan.Rules.size(), 5u);
  EXPECT_EQ(Plan.Rules[0].Site, fault::FaultSite::SsdRead);
  EXPECT_EQ(Plan.Rules[0].Kind, fault::FaultKind::LatentSectorError);
  EXPECT_DOUBLE_EQ(Plan.Rules[0].Probability, 0.25);
  // at= lists are kept sorted.
  ASSERT_EQ(Plan.Rules[1].AtOps.size(), 2u);
  EXPECT_EQ(Plan.Rules[1].AtOps[0], 1u);
  EXPECT_EQ(Plan.Rules[1].AtOps[1], 3u);
  EXPECT_EQ(Plan.Rules[2].EveryN, 10u);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  fault::FaultPlan Plan;
  std::string Error;
  // Unknown site, unknown kind, bad trigger, kind/site mismatch.
  EXPECT_FALSE(fault::parseFaultPlan("nvme:error:p=0.1", Plan, Error));
  EXPECT_FALSE(fault::parseFaultPlan("ssd-read:melt:p=0.1", Plan, Error));
  EXPECT_FALSE(fault::parseFaultPlan("ssd-read:error:soon", Plan, Error));
  EXPECT_FALSE(fault::parseFaultPlan("gpu-kernel:bitflip:p=0.1", Plan,
                                     Error));
  EXPECT_FALSE(fault::parseFaultPlan("ssd-read:error:p=1.5", Plan, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(FaultPlanParse, ValidityMatrixMatchesPhysics) {
  using fault::FaultKind;
  using fault::FaultSite;
  EXPECT_TRUE(faultKindValidAt(FaultSite::SsdRead,
                               FaultKind::LatentSectorError));
  EXPECT_TRUE(faultKindValidAt(FaultSite::SsdWrite, FaultKind::IoTimeout));
  EXPECT_TRUE(faultKindValidAt(FaultSite::GpuKernel,
                               FaultKind::GpuKernelHang));
  EXPECT_TRUE(faultKindValidAt(FaultSite::GpuDma,
                               FaultKind::GpuDmaCorrupt));
  EXPECT_TRUE(faultKindValidAt(FaultSite::Destage,
                               FaultKind::PayloadBitFlip));
  EXPECT_FALSE(faultKindValidAt(FaultSite::GpuKernel,
                                FaultKind::LatentSectorError));
  EXPECT_FALSE(faultKindValidAt(FaultSite::SsdRead,
                                FaultKind::GpuEccError));
  EXPECT_FALSE(faultKindValidAt(FaultSite::Destage,
                                FaultKind::IoTimeout));
}

//===----------------------------------------------------------------------===//
// Deterministic replay
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, SameSeedReplaysBitIdentically) {
  fault::FaultPlan Plan;
  Plan.Seed = 1234;
  auto Rule = rule(fault::FaultSite::SsdRead,
                   fault::FaultKind::LatentSectorError);
  Rule.Probability = 0.3;
  Plan.Rules.push_back(Rule);

  fault::FaultInjector A(Plan), B(Plan);
  for (int I = 0; I < 2000; ++I) {
    const auto FaultA = A.sample(fault::FaultSite::SsdRead);
    const auto FaultB = B.sample(fault::FaultSite::SsdRead);
    ASSERT_EQ(FaultA.has_value(), FaultB.has_value()) << "op " << I;
    if (FaultA) {
      EXPECT_EQ(FaultA->Kind, FaultB->Kind);
      EXPECT_EQ(FaultA->RandomBits, FaultB->RandomBits);
    }
  }
  EXPECT_EQ(A.injectedTotal(), B.injectedTotal());
  // p=0.3 over 2000 ops: the count concentrates near 600.
  EXPECT_GT(A.injectedTotal(), 450u);
  EXPECT_LT(A.injectedTotal(), 750u);
}

TEST(FaultInjectorTest, DifferentSeedsDifferentSchedules) {
  fault::FaultPlan Plan;
  auto Rule = rule(fault::FaultSite::SsdRead,
                   fault::FaultKind::LatentSectorError);
  Rule.Probability = 0.5;
  Plan.Rules.push_back(Rule);
  Plan.Seed = 1;
  fault::FaultInjector A(Plan);
  Plan.Seed = 2;
  fault::FaultInjector B(Plan);
  int Diverged = 0;
  for (int I = 0; I < 256; ++I)
    Diverged += A.sample(fault::FaultSite::SsdRead).has_value() !=
                B.sample(fault::FaultSite::SsdRead).has_value();
  EXPECT_GT(Diverged, 0);
}

TEST(FaultInjectorTest, ScheduleAndPeriodTriggersFireExactly) {
  fault::FaultPlan Plan;
  auto At = rule(fault::FaultSite::SsdWrite, fault::FaultKind::IoTimeout);
  At.AtOps = {0, 5};
  Plan.Rules.push_back(At);
  auto Every =
      rule(fault::FaultSite::GpuKernel, fault::FaultKind::GpuEccError);
  Every.EveryN = 4;
  Plan.Rules.push_back(Every);

  fault::FaultInjector Injector(Plan);
  std::vector<int> WriteFaults, KernelFaults;
  for (int I = 0; I < 12; ++I) {
    if (Injector.sample(fault::FaultSite::SsdWrite))
      WriteFaults.push_back(I);
    if (Injector.sample(fault::FaultSite::GpuKernel))
      KernelFaults.push_back(I);
  }
  EXPECT_EQ(WriteFaults, (std::vector<int>{0, 5}));
  EXPECT_EQ(KernelFaults, (std::vector<int>{3, 7, 11})); // every 4th op
}

TEST(FaultPipelineTest, SeededEndToEndRunReplaysBitIdentically) {
  // Two full pipeline runs under the same probability plan must charge
  // the same modelled time on every lane and inject the same faults.
  const ByteVector Data = makeStream(2 << 20);
  fault::FaultPlan Plan;
  Plan.Seed = 99;
  auto ReadRule = rule(fault::FaultSite::SsdRead,
                       fault::FaultKind::LatentSectorError);
  ReadRule.Probability = 0.05;
  Plan.Rules.push_back(ReadRule);
  auto WriteRule =
      rule(fault::FaultSite::SsdWrite, fault::FaultKind::IoTimeout);
  WriteRule.Probability = 0.05;
  Plan.Rules.push_back(WriteRule);

  auto Run = [&](std::array<double, ResourceCount> &Busy,
                 std::uint64_t &Injected, std::uint64_t &Retries) {
    fault::FaultInjector Injector(Plan);
    PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
    Config.Faults = &Injector;
    ReductionPipeline Pipeline(Platform::paper(), Config);
    Pipeline.write(ByteSpan(Data.data(), Data.size()));
    Pipeline.finish();
    Pipeline.readBack();
    Busy = busyTimes(Pipeline);
    Injected = Injector.injectedTotal();
    Retries = Pipeline.ssd().retryCount();
  };

  std::array<double, ResourceCount> BusyA{}, BusyB{};
  std::uint64_t InjectedA = 0, InjectedB = 0, RetriesA = 0, RetriesB = 0;
  Run(BusyA, InjectedA, RetriesA);
  Run(BusyB, InjectedB, RetriesB);
  EXPECT_GT(InjectedA, 0u);
  EXPECT_EQ(InjectedA, InjectedB);
  EXPECT_EQ(RetriesA, RetriesB);
  for (unsigned R = 0; R < ResourceCount; ++R)
    EXPECT_DOUBLE_EQ(BusyA[R], BusyB[R]) << "resource " << R;
}

//===----------------------------------------------------------------------===//
// Null plan => bit-identical to no injector at all
//===----------------------------------------------------------------------===//

TEST(FaultPipelineTest, EmptyPlanIsBitIdenticalToNoInjector) {
  const ByteVector Data = makeStream(2 << 20);
  auto Run = [&](fault::FaultInjector *Faults,
                 std::array<double, ResourceCount> &Busy,
                 std::uint64_t &Stored) {
    PipelineConfig Config = pipelineConfig(PipelineMode::GpuCompress);
    Config.Faults = Faults;
    ReductionPipeline Pipeline(Platform::paper(), Config);
    Pipeline.write(ByteSpan(Data.data(), Data.size()));
    Pipeline.finish();
    Pipeline.readBack();
    Busy = busyTimes(Pipeline);
    Stored = Pipeline.store().storedBytes();
  };

  std::array<double, ResourceCount> BusyNone{}, BusyEmpty{};
  std::uint64_t StoredNone = 0, StoredEmpty = 0;
  Run(nullptr, BusyNone, StoredNone);
  fault::FaultInjector Empty(fault::FaultPlan{});
  Run(&Empty, BusyEmpty, StoredEmpty);

  EXPECT_EQ(Empty.injectedTotal(), 0u);
  EXPECT_EQ(StoredNone, StoredEmpty);
  for (unsigned R = 0; R < ResourceCount; ++R)
    EXPECT_DOUBLE_EQ(BusyNone[R], BusyEmpty[R]) << "resource " << R;
}

//===----------------------------------------------------------------------===//
// SSD faults: bounded retry, typed errors, timeout degradation
//===----------------------------------------------------------------------===//

TEST(FaultPipelineTest, TransientSsdReadErrorRetriesAndRecovers) {
  const ByteVector Data = makeStream(1 << 20);
  fault::FaultPlan Plan;
  auto Rule = rule(fault::FaultSite::SsdRead,
                   fault::FaultKind::LatentSectorError);
  Rule.AtOps = {0}; // first read command fails once, retry sees op 1
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  EXPECT_TRUE(
      Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  EXPECT_TRUE(Pipeline.finish().ok());

  const std::uint64_t Loc = Pipeline.recipe().ChunkLocations.front();
  const auto Read = readTyped(Pipeline, Loc);
  ASSERT_TRUE(Read.ok()) << Read.status().message();
  EXPECT_EQ(Injector.injected(fault::FaultKind::LatentSectorError), 1u);
  EXPECT_EQ(Pipeline.ssd().retryCount(), 1u);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

TEST(FaultPipelineTest, PersistentSsdReadErrorSurfacesTypedError) {
  const ByteVector Data = makeStream(1 << 20);
  fault::FaultPlan Plan;
  Plan.Policy.MaxRetries = 2;
  auto Rule = rule(fault::FaultSite::SsdRead,
                   fault::FaultKind::LatentSectorError);
  Rule.Probability = 1.0; // the medium is gone; retries cannot help
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());

  const auto Read =
      readTyped(Pipeline, Pipeline.recipe().ChunkLocations.front());
  ASSERT_FALSE(Read.ok());
  EXPECT_EQ(Read.status().code(), fault::ErrorCode::SsdReadError);
  EXPECT_STREQ(Read.status().message(), "ssd-read-error");
  // Budget respected: 1 initial attempt + MaxRetries re-issues.
  EXPECT_EQ(Pipeline.ssd().retryCount(), 2u);
}

TEST(FaultPipelineTest, ReadBackFailsOnExhaustedSsdRead) {
  const ByteVector Data = makeStream(1 << 20);
  fault::FaultPlan Plan;
  Plan.Policy.MaxRetries = 2;
  auto Rule = rule(fault::FaultSite::SsdRead,
                   fault::FaultKind::LatentSectorError);
  Rule.Probability = 1.0;
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());

  // Every flash read gives up, so the stream cannot be reassembled —
  // the store's intact bytes must not be returned as if they were read.
  EXPECT_FALSE(Pipeline.readBack().has_value());
  EXPECT_FALSE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
  EXPECT_GT(Pipeline.ssd().retryCount(), 0u);
}

TEST(FaultPipelineTest, VerifyReadFailureStoresTheDuplicateFresh) {
  const ByteVector Block = makeStream(4096, 1.0);
  fault::FaultPlan Plan;
  Plan.Policy.MaxRetries = 2;
  auto Rule = rule(fault::FaultSite::SsdRead,
                   fault::FaultKind::LatentSectorError);
  Rule.Probability = 1.0;
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.VerifyDuplicates = true;
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  std::vector<ChunkWriteInfo> First, Second;
  ASSERT_TRUE(
      Pipeline.write(ByteSpan(Block.data(), Block.size()), &First).ok());
  ASSERT_TRUE(
      Pipeline.write(ByteSpan(Block.data(), Block.size()), &Second).ok());
  ASSERT_EQ(First.size(), 1u);
  ASSERT_EQ(Second.size(), 1u);

  // The compare read of the stored copy gave up after its retries: an
  // unverifiable duplicate must not be shared.
  EXPECT_EQ(Pipeline.ssd().retryCount(), 2u);
  EXPECT_EQ(Second[0].Outcome, LookupOutcome::Unique);
  EXPECT_NE(Second[0].Location, First[0].Location);
  EXPECT_EQ(Pipeline.report().VerifyMismatches, 1u);
  EXPECT_EQ(Pipeline.report().UniqueChunks, 2u);
}

TEST(FaultPipelineTest, PersistentSsdWriteErrorFailsWriteButKeepsData) {
  const ByteVector Data = makeStream(1 << 20);
  fault::FaultPlan Plan;
  Plan.Policy.MaxRetries = 1;
  auto Rule =
      rule(fault::FaultSite::SsdWrite, fault::FaultKind::LatentSectorError);
  Rule.Probability = 1.0;
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  const fault::Status Status =
      Pipeline.write(ByteSpan(Data.data(), Data.size()));
  ASSERT_FALSE(Status.ok());
  EXPECT_EQ(Status.code(), fault::ErrorCode::SsdWriteError);
  // The functional store still holds every batch: a destage failure is
  // surfaced, not silently swallowed mid-stream.
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

TEST(FaultPipelineTest, IoTimeoutChargesDegradedLatencyAndRecovers) {
  const ByteVector Data = makeStream(1 << 20);
  auto Run = [&](bool WithTimeout) {
    fault::FaultPlan Plan;
    Plan.Policy.SsdTimeoutUs = 750.0;
    if (WithTimeout) {
      auto Rule =
          rule(fault::FaultSite::SsdRead, fault::FaultKind::IoTimeout);
      Rule.AtOps = {0};
      Plan.Rules.push_back(Rule);
    }
    fault::FaultInjector Injector(Plan);
    PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
    Config.Faults = &Injector;
    ReductionPipeline Pipeline(Platform::paper(), Config);
    Pipeline.write(ByteSpan(Data.data(), Data.size()));
    Pipeline.finish();
    EXPECT_TRUE(
        Pipeline.readChunk(Pipeline.recipe().ChunkLocations.front())
            .has_value());
    return Pipeline.ledger().busyMicros(Resource::Ssd);
  };
  const double Clean = Run(false);
  const double Degraded = Run(true);
  // The stalled attempt + backoff + re-issue all cost modelled time.
  EXPECT_GT(Degraded, Clean + 750.0);
}

//===----------------------------------------------------------------------===//
// GPU faults: transparent CPU fallback, bit-exact output
//===----------------------------------------------------------------------===//

class GpuFaultTest
    : public ::testing::TestWithParam<std::pair<fault::FaultSite,
                                                fault::FaultKind>> {};

TEST_P(GpuFaultTest, WritePathFallsBackToCpuBitExact) {
  const auto [Site, Kind] = GetParam();
  const ByteVector Data = makeStream(2 << 20);
  fault::FaultPlan Plan;
  auto Rule = rule(Site, Kind);
  Rule.Probability = 1.0; // the device is effectively dead
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  obs::MetricsRegistry Metrics;
  PipelineConfig Config = pipelineConfig(PipelineMode::GpuBoth);
  Config.Faults = &Injector;
  Config.Metrics = &Metrics;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());

  // GPU faults never fail a batch — the CPU re-runs it and the stored
  // stream is bit-exact.
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
  EXPECT_GT(Injector.injected(Kind), 0u);

  // The CPU re-run writes the very blocks the lane kernel would have:
  // a fault-free run of the same stream stores identical bytes at
  // identical locations.
  ReductionPipeline Clean(Platform::paper(),
                          pipelineConfig(PipelineMode::GpuBoth));
  ASSERT_TRUE(Clean.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Clean.finish().ok());
  const auto &Locations = Pipeline.recipe().ChunkLocations;
  ASSERT_EQ(Locations, Clean.recipe().ChunkLocations);
  std::size_t Framed = 0;
  for (const std::uint64_t Loc : Locations) {
    const auto Faulted = Pipeline.store().encodedBlock(Loc);
    const auto Reference = Clean.store().encodedBlock(Loc);
    ASSERT_TRUE(Faulted.has_value());
    ASSERT_TRUE(Reference.has_value());
    ASSERT_TRUE(std::equal(Faulted->begin(), Faulted->end(),
                           Reference->begin(), Reference->end()))
        << "location " << Loc;
    const auto View = decodeBlock(*Faulted);
    ASSERT_TRUE(View.has_value());
    Framed += View->Method == BlockMethod::LzFramed;
  }
  EXPECT_GT(Framed, 0u);
  // The degradation is observable.
  std::uint64_t Fallbacks = 0;
  for (const char *Name :
       {"padre_gpu_fallback_total{family=\"compression\"}",
        "padre_gpu_fallback_total{family=\"indexing\"}"})
    if (const obs::Counter *C = Metrics.findCounter(Name))
      Fallbacks += C->value();
  EXPECT_GT(Fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    KernelAndDma, GpuFaultTest,
    ::testing::Values(
        std::pair(fault::FaultSite::GpuKernel,
                  fault::FaultKind::GpuEccError),
        std::pair(fault::FaultSite::GpuKernel,
                  fault::FaultKind::GpuKernelHang),
        std::pair(fault::FaultSite::GpuDma,
                  fault::FaultKind::GpuDmaCorrupt)),
    [](const auto &Info) {
      std::string Name =
          std::string(fault::faultSiteName(Info.param.first)) + "_" +
          fault::faultKindName(Info.param.second);
      for (char &C : Name)
        if (C == '-')
          C = '_'; // gtest names must be identifiers
      return Name;
    });

TEST(FaultRestoreTest, GpuDecodeFaultFallsBackToCpuBitExact) {
  // The paper's best write mode end to end under a flaky device: every
  // other kernel dies, on the write side (lane compression falls back
  // to the CPU writing the same framed blocks) and on the read side
  // (warp decode falls back to the CPU pool).
  const ByteVector Data = makeStream(2 << 20, 1.0); // all unique
  fault::FaultPlan Plan;
  auto Rule =
      rule(fault::FaultSite::GpuKernel, fault::FaultKind::GpuEccError);
  Rule.EveryN = 2;
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::GpuCompress);
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());

  restore::ReadConfig ReadConfig;
  ReadConfig.Mode = restore::DecodeMode::WarpGpu;
  ReadConfig.BatchDepth = 32; // several decode kernels
  restore::ReadPipeline Reader(Pipeline, ReadConfig);
  ASSERT_EQ(Reader.effectiveMode(), restore::DecodeMode::WarpGpu);
  const auto Restored = Reader.readStream(Pipeline.recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data); // every chunk delivered despite the faults
  EXPECT_GT(Reader.gpuDecodeFallbackCount(), 0u);
  const restore::ReadReport Report = Reader.report();
  EXPECT_EQ(Report.DecodeFailures, 0u);
  EXPECT_GT(Report.FramedChunks, 0u);
  EXPECT_EQ(Report.GpuBatches, 0u);
}

TEST(FaultRestoreTest, WarpDecodeFaultEvictsKernelAndFallsBackBitExact) {
  const ByteVector Data = makeStream(2 << 20, 1.0); // all unique
  fault::FaultPlan Plan;
  auto Rule =
      rule(fault::FaultSite::GpuKernel, fault::FaultKind::GpuEccError);
  Rule.EveryN = 2; // every other warp dispatch dies
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Compress.SubBlocks = 4; // v2 framed store
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());

  restore::ReadConfig ReadConfig;
  ReadConfig.Mode = restore::DecodeMode::WarpGpu;
  ReadConfig.BatchDepth = 32; // several sub-batches: evict + relaunch
  restore::ReadPipeline Reader(Pipeline, ReadConfig);
  ASSERT_EQ(Reader.effectiveMode(), restore::DecodeMode::WarpGpu);
  const auto Restored = Reader.readStream(Pipeline.recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data); // CPU retry is authoritative and bit-exact
  EXPECT_GT(Reader.gpuDecodeFallbackCount(), 0u);
  const restore::ReadReport Report = Reader.report();
  EXPECT_EQ(Report.DecodeFailures, 0u);
  EXPECT_GT(Report.WarpBatches, 1u); // faulted AND surviving dispatches
}

TEST(FaultRestoreTest, WarpDmaFaultFallsBackBitExact) {
  const ByteVector Data = makeStream(1 << 20, 1.0);
  fault::FaultPlan Plan;
  auto Rule =
      rule(fault::FaultSite::GpuDma, fault::FaultKind::GpuDmaCorrupt);
  Rule.AtOps = {0}; // the first DMA of the restore run
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Compress.SubBlocks = 4;
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());

  restore::ReadConfig ReadConfig;
  ReadConfig.Mode = restore::DecodeMode::WarpGpu;
  restore::ReadPipeline Reader(Pipeline, ReadConfig);
  const auto Restored = Reader.readStream(Pipeline.recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data);
  EXPECT_GT(Reader.gpuDecodeFallbackCount(), 0u);
}

TEST(FaultPipelineTest, GpuHangChargesHangOccupancy) {
  const ByteVector Data = makeStream(1 << 20, 1.0);
  auto Run = [&](bool WithHang) {
    fault::FaultPlan Plan;
    Plan.Policy.GpuHangTimeoutUs = 5000.0;
    if (WithHang) {
      auto Rule = rule(fault::FaultSite::GpuKernel,
                       fault::FaultKind::GpuKernelHang);
      Rule.AtOps = {0};
      Plan.Rules.push_back(Rule);
    }
    fault::FaultInjector Injector(Plan);
    PipelineConfig Config = pipelineConfig(PipelineMode::GpuCompress);
    Config.Faults = &Injector;
    ReductionPipeline Pipeline(Platform::paper(), Config);
    Pipeline.write(ByteSpan(Data.data(), Data.size()));
    Pipeline.finish();
    EXPECT_TRUE(
        Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
    return Pipeline.ledger().busyMicros(Resource::Gpu);
  };
  const double Clean = Run(false);
  const double Hung = Run(true);
  // The hung kernel occupies the device until the watchdog kills it;
  // the CPU re-run then happens off-GPU, so GPU busy strictly grows.
  EXPECT_GT(Hung, Clean);
}

//===----------------------------------------------------------------------===//
// Destage corruption, CRC detection, scrub-and-repair
//===----------------------------------------------------------------------===//

TEST(FaultScrubTest, DestageBitFlipIsDetectedAndTyped) {
  const ByteVector Data = makeStream(1 << 20, 1.0);
  fault::FaultPlan Plan;
  auto Rule =
      rule(fault::FaultSite::Destage, fault::FaultKind::PayloadBitFlip);
  Rule.AtOps = {3};
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  std::vector<ChunkWriteInfo> Info;
  ASSERT_TRUE(
      Pipeline.write(ByteSpan(Data.data(), Data.size()), &Info).ok());
  ASSERT_TRUE(Pipeline.finish().ok());
  ASSERT_EQ(Injector.injected(fault::FaultKind::PayloadBitFlip), 1u);

  // Exactly one chunk fails its CRC with a typed ChunkCorrupt; all
  // others read back clean.
  std::uint64_t Corrupt = 0;
  for (const ChunkWriteInfo &Chunk : Info) {
    const auto Read = readTyped(Pipeline, Chunk.Location);
    if (!Read.ok()) {
      EXPECT_EQ(Read.status().code(), fault::ErrorCode::ChunkCorrupt);
      ++Corrupt;
      // No cached copy ever existed: the damage is unrepairable.
      EXPECT_EQ(scrubOne(Pipeline, Chunk.Location, Chunk.Fp),
                ScrubOutcome::Lost);
    }
  }
  EXPECT_EQ(Corrupt, 1u);
}

TEST(FaultScrubTest, ScrubRepairsFromFingerprintVerifiedCachedCopy) {
  const ByteVector Data = makeStream(1 << 20, 1.0);
  obs::MetricsRegistry Metrics;
  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.ReadCacheBytes = 32 << 20;
  Config.Metrics = &Metrics;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  std::vector<ChunkWriteInfo> Info;
  ASSERT_TRUE(
      Pipeline.write(ByteSpan(Data.data(), Data.size()), &Info).ok());
  ASSERT_TRUE(Pipeline.finish().ok());

  const std::uint64_t Loc = Info.front().Location;
  const auto Original = Pipeline.readChunk(Loc); // warms the cache
  ASSERT_TRUE(Original.has_value());
  ASSERT_TRUE(Pipeline.corruptChunkForTesting(Loc, 20));

  EXPECT_EQ(scrubOne(Pipeline, Loc, Info.front().Fp),
            ScrubOutcome::Repaired);
  const obs::Counter *Repaired = Metrics.findCounter(
      "padre_scrub_repair_total{outcome=\"repaired\"}");
  ASSERT_NE(Repaired, nullptr);
  EXPECT_EQ(Repaired->value(), 1u);

  // The repaired block reads back bit-exact, off flash, no cache help.
  const auto After = Pipeline.readChunk(Loc, /*BypassCache=*/true);
  ASSERT_TRUE(After.has_value());
  EXPECT_EQ(*After, *Original);
  EXPECT_EQ(scrubOne(Pipeline, Loc, Info.front().Fp),
            ScrubOutcome::Healthy);
}

TEST(FaultScrubTest, VolumeScrubAndRepairEndToEnd) {
  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.ReadCacheBytes = 32 << 20;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  VolumeConfig VolConfig;
  VolConfig.BlockCount = 256;
  Volume Vol(Pipeline, VolConfig);

  const ByteVector Data = makeStream(256 * 4096, 1.0);
  ASSERT_TRUE(Vol.writeBlocks(0, ByteSpan(Data.data(), Data.size())));
  Vol.flush();
  // Warm the cache (every chunk decodes into the front tier), then
  // corrupt two stored blocks behind the cache's back.
  ASSERT_TRUE(Vol.readBlocks(0, Vol.blockCount()).has_value());
  const auto Records = Vol.chunkRecords();
  ASSERT_GE(Records.size(), 2u);
  ASSERT_TRUE(
      Pipeline.corruptChunkForTesting(Records[0].Location, 19));
  ASSERT_TRUE(
      Pipeline.corruptChunkForTesting(Records[1].Location, 23));

  const Volume::ScrubRepairReport Report = Vol.scrubAndRepair();
  EXPECT_EQ(Report.ChunksScanned, Records.size());
  EXPECT_EQ(Report.CorruptChunks, 2u);
  EXPECT_EQ(Report.RepairedChunks, 2u);
  EXPECT_EQ(Report.LostChunks, 0u);
  EXPECT_TRUE(Report.LostLocations.empty());

  // Everything reads back bit-exact after repair.
  const auto After = Vol.readBlocks(0, Vol.blockCount());
  ASSERT_TRUE(After.has_value());
  EXPECT_EQ(*After, Data);
  // And a plain scrub now finds a healthy store.
  EXPECT_EQ(Vol.scrub().CorruptChunks, 0u);
}

//===----------------------------------------------------------------------===//
// Fault metrics surface through the registry
//===----------------------------------------------------------------------===//

TEST(FaultObsTest, InjectionAndRetryCountersExported) {
  const ByteVector Data = makeStream(1 << 20);
  fault::FaultPlan Plan;
  auto Rule = rule(fault::FaultSite::SsdWrite,
                   fault::FaultKind::LatentSectorError);
  Rule.AtOps = {0};
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);

  obs::MetricsRegistry Metrics;
  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Faults = &Injector;
  Config.Metrics = &Metrics;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());

  const obs::Counter *InjectedCounter = Metrics.findCounter(
      "padre_fault_injected_total{kind=\"latent-sector-error\"}");
  ASSERT_NE(InjectedCounter, nullptr);
  EXPECT_EQ(InjectedCounter->value(), 1u);
  const obs::Counter *RetryCounter =
      Metrics.findCounter("padre_retry_total{op=\"write\"}");
  ASSERT_NE(RetryCounter, nullptr);
  EXPECT_EQ(RetryCounter->value(), 1u);
  EXPECT_EQ(Pipeline.ssd().retryCount(), 1u);
}
