//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests for the reduction pipeline: end-to-end write /
/// read-back verification in every integration mode, reduction-ratio
/// accounting, single-operation configurations, warmup reset,
/// endurance bookkeeping, and per-batch arena reuse.
///
//===----------------------------------------------------------------------===//

#include "core/ReductionPipeline.h"
#include "restore/ReadPipeline.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace padre;

namespace {

WorkloadConfig workload(std::uint64_t Bytes, double Dedup, double Compress,
                        std::uint64_t Seed = 21) {
  WorkloadConfig Config;
  Config.TotalBytes = Bytes;
  Config.DedupRatio = Dedup;
  Config.CompressRatio = Compress;
  Config.Seed = Seed;
  return Config;
}

PipelineConfig pipelineConfig(PipelineMode Mode) {
  PipelineConfig Config;
  Config.Mode = Mode;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.BufferCapacityPerBin = 8;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// End-to-end correctness in every mode
//===----------------------------------------------------------------------===//

class ModeTest : public ::testing::TestWithParam<PipelineMode> {};

TEST_P(ModeTest, WriteThenVerifyReadback) {
  const VdbenchStream Stream(workload(8 << 20, 2.0, 2.0));
  const ByteVector Data = Stream.generateAll();

  ReductionPipeline Pipeline(Platform::paper(), pipelineConfig(GetParam()));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

TEST_P(ModeTest, ReductionRatiosNearWorkloadTargets) {
  const VdbenchStream Stream(workload(8 << 20, 2.0, 2.0));
  const ByteVector Data = Stream.generateAll();
  ReductionPipeline Pipeline(Platform::paper(), pipelineConfig(GetParam()));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_NEAR(Report.DedupRatio, 2.0, 0.4);
  EXPECT_NEAR(Report.CompressRatio, 2.0, 0.6);
  EXPECT_GT(Report.ReductionRatio, 2.5); // ~4x minus overheads
  EXPECT_EQ(Report.LogicalBytes, Data.size());
  EXPECT_EQ(Report.LogicalChunks, Data.size() / 4096);
  EXPECT_EQ(Report.UniqueChunks + Report.DupChunks, Report.LogicalChunks);
}

TEST_P(ModeTest, ThroughputAndBusyTimesArePositive) {
  const VdbenchStream Stream(workload(4 << 20, 2.0, 2.0));
  const ByteVector Data = Stream.generateAll();
  ReductionPipeline Pipeline(Platform::paper(), pipelineConfig(GetParam()));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_GT(Report.ThroughputIops, 0.0);
  EXPECT_GT(Report.MakespanSec, 0.0);
  EXPECT_GT(Report.CpuBusySec, 0.0);
  const bool UsesGpu = modeOffloadsDedup(GetParam()) ||
                       modeOffloadsCompression(GetParam());
  EXPECT_EQ(Report.GpuBusySec > 0.0, UsesGpu);
  EXPECT_EQ(Report.KernelLaunches > 0, UsesGpu);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ModeTest,
    ::testing::Values(PipelineMode::CpuOnly, PipelineMode::GpuDedup,
                      PipelineMode::GpuCompress, PipelineMode::GpuBoth),
    [](const ::testing::TestParamInfo<PipelineMode> &Info) {
      std::string Name = pipelineModeName(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Dedup-specific behaviour
//===----------------------------------------------------------------------===//

TEST(Pipeline, DuplicateHeavyStreamStoresFewChunks) {
  const VdbenchStream Stream(workload(4 << 20, 4.0, 1.5));
  const ByteVector Data = Stream.generateAll();
  ReductionPipeline Pipeline(Platform::paper(),
                             pipelineConfig(PipelineMode::CpuOnly));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_NEAR(Report.DedupRatio, 4.0, 1.0);
  EXPECT_EQ(Pipeline.store().chunkCount(), Report.UniqueChunks);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

TEST(Pipeline, RewritingSameStreamIsAllDuplicates) {
  const VdbenchStream Stream(workload(2 << 20, 1.0, 2.0));
  const ByteVector Data = Stream.generateAll();
  ReductionPipeline Pipeline(Platform::paper(),
                             pipelineConfig(PipelineMode::CpuOnly));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  const std::uint64_t StoredAfterFirst = Pipeline.store().chunkCount();
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  EXPECT_EQ(Pipeline.store().chunkCount(), StoredAfterFirst);
  const PipelineReport Report = Pipeline.report();
  EXPECT_NEAR(Report.DedupRatio, 2.0, 0.1);
  // Read-back covers both copies.
  const auto ReadBack = Pipeline.readBack();
  ASSERT_TRUE(ReadBack.has_value());
  EXPECT_EQ(ReadBack->size(), 2 * Data.size());
}

TEST(Pipeline, TemporalLocalityHitsBinBuffer) {
  // A tight dedup window produces duplicates of *recent* blocks, which
  // the bin buffer should catch before the tree (§3.3).
  WorkloadConfig Config = workload(4 << 20, 3.0, 2.0);
  Config.DedupWindowBlocks = 16;
  const ByteVector Data = VdbenchStream(Config).generateAll();
  ReductionPipeline Pipeline(Platform::paper(),
                             pipelineConfig(PipelineMode::CpuOnly));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_GT(Report.DupFromBuffer, Report.DupFromTree);
}

//===----------------------------------------------------------------------===//
// Single-operation configurations (used by benches E2/E3)
//===----------------------------------------------------------------------===//

TEST(Pipeline, DedupOnlyStoresRawBlocks) {
  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.CompressEnabled = false;
  const ByteVector Data =
      VdbenchStream(workload(2 << 20, 2.0, 2.0)).generateAll();
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_NEAR(Report.CompressRatio, 1.0, 0.01);
  EXPECT_GT(Report.DedupRatio, 1.5);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

TEST(Pipeline, CompressionOnlyStoresEveryChunk) {
  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.DedupEnabled = false;
  const ByteVector Data =
      VdbenchStream(workload(2 << 20, 2.0, 2.0)).generateAll();
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_EQ(Report.DupChunks, 0u);
  EXPECT_EQ(Report.UniqueChunks, Report.LogicalChunks);
  EXPECT_GT(Report.CompressRatio, 1.4);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

//===----------------------------------------------------------------------===//
// Measurement mechanics
//===----------------------------------------------------------------------===//

TEST(Pipeline, ResetMeasurementKeepsFunctionalState) {
  const ByteVector Data =
      VdbenchStream(workload(2 << 20, 2.0, 2.0)).generateAll();
  ReductionPipeline Pipeline(Platform::paper(),
                             pipelineConfig(PipelineMode::CpuOnly));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.resetMeasurement();
  EXPECT_EQ(Pipeline.report().LogicalChunks, 0u);
  EXPECT_EQ(Pipeline.report().MakespanSec, 0.0);

  // Rewriting after reset: all duplicates (index survived the reset).
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_EQ(Report.UniqueChunks, 0u);
  EXPECT_EQ(Report.DupChunks, Report.LogicalChunks);
}

TEST(Pipeline, EnduranceCountsInlineSavings) {
  const ByteVector Data =
      VdbenchStream(workload(4 << 20, 2.0, 2.0)).generateAll();
  ReductionPipeline Pipeline(Platform::paper(),
                             pipelineConfig(PipelineMode::CpuOnly));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_EQ(Report.SsdHostBytes, Data.size());
  // Inline reduction: NAND writes well below host writes (§1).
  EXPECT_LT(Report.SsdNandBytes, Report.SsdHostBytes / 2);
}

TEST(Pipeline, ReportStringMentionsKeyFigures) {
  const ByteVector Data =
      VdbenchStream(workload(1 << 20, 2.0, 2.0)).generateAll();
  ReductionPipeline Pipeline(Platform::paper(),
                             pipelineConfig(PipelineMode::CpuOnly));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const std::string Text = Pipeline.report().toString();
  EXPECT_NE(Text.find("throughput"), std::string::npos);
  EXPECT_NE(Text.find("dedup"), std::string::npos);
  EXPECT_NE(Text.find("bottleneck"), std::string::npos);
}

TEST(Pipeline, ChunkSizeEightKib) {
  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.ChunkSize = 8192;
  WorkloadConfig Load = workload(2 << 20, 2.0, 2.0);
  Load.BlockSize = 8192;
  const ByteVector Data = VdbenchStream(Load).generateAll();
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  EXPECT_EQ(Pipeline.report().LogicalChunks, Data.size() / 8192);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

TEST(Pipeline, LatencyPercentilesArePopulatedAndOrdered) {
  const ByteVector Data =
      VdbenchStream(workload(4 << 20, 2.0, 2.0)).generateAll();
  ReductionPipeline Pipeline(Platform::paper(),
                             pipelineConfig(PipelineMode::CpuOnly));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  EXPECT_GT(Report.LatencyP50Us, 0.0);
  EXPECT_LE(Report.LatencyP50Us, Report.LatencyP95Us);
  EXPECT_LE(Report.LatencyP95Us, Report.LatencyP99Us);
  // A CPU-only 4 KiB chunk costs tens of microseconds end to end.
  EXPECT_LT(Report.LatencyP99Us, 1000.0);
}

TEST(Pipeline, GpuCompressTradesLatencyForThroughput) {
  const ByteVector Data =
      VdbenchStream(workload(8 << 20, 1.0, 2.0)).generateAll();
  PipelineConfig CpuConfig = pipelineConfig(PipelineMode::CpuOnly);
  CpuConfig.DedupEnabled = false;
  PipelineConfig GpuConfig = pipelineConfig(PipelineMode::GpuCompress);
  GpuConfig.DedupEnabled = false;

  ReductionPipeline Cpu(Platform::paper(), CpuConfig);
  Cpu.write(ByteSpan(Data.data(), Data.size()));
  ReductionPipeline Gpu(Platform::paper(), GpuConfig);
  Gpu.write(ByteSpan(Data.data(), Data.size()));

  const PipelineReport CpuReport = Cpu.report();
  const PipelineReport GpuReport = Gpu.report();
  // Batched kernels: higher throughput AND higher tail latency.
  EXPECT_GT(GpuReport.ThroughputIops, CpuReport.ThroughputIops);
  EXPECT_GT(GpuReport.LatencyP99Us, CpuReport.LatencyP99Us);
}

TEST(Pipeline, VerifyOnDedupKeepsResultsAndChargesReads) {
  const ByteVector Data =
      VdbenchStream(workload(2 << 20, 2.0, 2.0)).generateAll();
  PipelineConfig Plain = pipelineConfig(PipelineMode::CpuOnly);
  PipelineConfig Verified = Plain;
  Verified.VerifyDuplicates = true;

  ReductionPipeline A(Platform::paper(), Plain);
  A.write(ByteSpan(Data.data(), Data.size()));
  ReductionPipeline B(Platform::paper(), Verified);
  B.write(ByteSpan(Data.data(), Data.size()));

  // Same functional outcome, zero mismatches on a healthy store…
  EXPECT_EQ(B.report().DupChunks, A.report().DupChunks);
  EXPECT_EQ(B.report().VerifyMismatches, 0u);
  EXPECT_TRUE(B.verifyAgainst(ByteSpan(Data.data(), Data.size())));
  // …but every duplicate paid a read-back.
  EXPECT_GT(B.report().SsdBusySec, A.report().SsdBusySec);
  EXPECT_GT(B.report().CpuBusySec, A.report().CpuBusySec);
}

TEST(Pipeline, VerifyOnDedupReadsThroughTheEngineBypassingTheCache) {
  const ByteVector Data =
      VdbenchStream(workload(1 << 20, 1.0, 2.0)).generateAll();
  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.VerifyDuplicates = true;
  Config.ReadCacheBytes = 32 << 20;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  const std::uint64_t Before = Pipeline.reader().report().ChunksRequested;

  // Rewriting the stream makes every chunk a duplicate of an older,
  // already-destaged chunk: each one's compare read is an engine read.
  std::vector<ChunkWriteInfo> Second;
  Pipeline.write(ByteSpan(Data.data(), Data.size()), &Second);
  for (const ChunkWriteInfo &Info : Second)
    ASSERT_NE(Info.Outcome, LookupOutcome::Unique);
  EXPECT_EQ(Pipeline.report().VerifyMismatches, 0u);
  EXPECT_EQ(Pipeline.reader().report().ChunksRequested - Before,
            Second.size());
  // The compare reads bypass the cache: none of them fills it.
  EXPECT_EQ(Pipeline.readCache()->entryCount(), 0u);
}

TEST(Pipeline, VerifyOnDedupCatchesLatentCorruption) {
  // Write a block, corrupt its stored chunk, then rewrite identical
  // content. Without verification the new logical block silently
  // shares the corrupt chunk; with it, the mismatch is detected and
  // the rewrite lands in a fresh, healthy chunk.
  const ByteVector Block = [&] {
    WorkloadConfig Load = workload(4096, 1.0, 2.0);
    return VdbenchStream(Load).generateAll();
  }();

  for (const bool Verify : {false, true}) {
    PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
    Config.VerifyDuplicates = Verify;
    ReductionPipeline Pipeline(Platform::paper(), Config);
    std::vector<ChunkWriteInfo> Infos;
    Pipeline.write(ByteSpan(Block.data(), Block.size()), &Infos);
    ASSERT_EQ(Infos.size(), 1u);
    ASSERT_TRUE(Pipeline.corruptChunkForTesting(Infos[0].Location, 20));

    std::vector<ChunkWriteInfo> Second;
    Pipeline.write(ByteSpan(Block.data(), Block.size()), &Second);
    ASSERT_EQ(Second.size(), 1u);
    if (Verify) {
      EXPECT_EQ(Second[0].Outcome, LookupOutcome::Unique);
      EXPECT_NE(Second[0].Location, Infos[0].Location);
      EXPECT_EQ(Pipeline.report().VerifyMismatches, 1u);
      // The rewritten block reads back clean.
      const auto Chunk = Pipeline.readChunk(Second[0].Location);
      ASSERT_TRUE(Chunk.has_value());
      EXPECT_TRUE(std::equal(Chunk->begin(), Chunk->end(), Block.begin()));
    } else {
      EXPECT_NE(Second[0].Outcome, LookupOutcome::Unique);
      EXPECT_EQ(Second[0].Location, Infos[0].Location); // shares corrupt
      EXPECT_FALSE(Pipeline.readChunk(Second[0].Location).has_value());
    }
  }
}

TEST(Pipeline, DeterministicReportsForIdenticalRuns) {
  // The reproducibility claim: identical input + config => bit-equal
  // modelled measurements (no wall-clock leaks into the ledger).
  const ByteVector Data =
      VdbenchStream(workload(4 << 20, 2.0, 2.0)).generateAll();
  PipelineReport Reports[2];
  for (int Run = 0; Run < 2; ++Run) {
    ReductionPipeline Pipeline(Platform::paper(),
                               pipelineConfig(PipelineMode::GpuBoth));
    Pipeline.write(ByteSpan(Data.data(), Data.size()));
    Pipeline.finish();
    Reports[Run] = Pipeline.report();
  }
  EXPECT_EQ(Reports[0].ThroughputIops, Reports[1].ThroughputIops);
  EXPECT_EQ(Reports[0].CpuBusySec, Reports[1].CpuBusySec);
  EXPECT_EQ(Reports[0].GpuBusySec, Reports[1].GpuBusySec);
  EXPECT_EQ(Reports[0].StoredBytes, Reports[1].StoredBytes);
  EXPECT_EQ(Reports[0].UniqueChunks, Reports[1].UniqueChunks);
  EXPECT_EQ(Reports[0].LatencyP99Us, Reports[1].LatencyP99Us);
}

namespace {

class CdcPipeline : public ::testing::TestWithParam<ChunkingMode> {};

} // namespace

TEST_P(CdcPipeline, RoundTripsWithVariableChunks) {
  const ByteVector Data =
      VdbenchStream(workload(2 << 20, 2.0, 2.0)).generateAll();
  PipelineConfig Config = pipelineConfig(PipelineMode::GpuCompress);
  Config.Chunking = GetParam();
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
  // Variable chunks: counts differ from the fixed-size block count.
  if (GetParam() != ChunkingMode::Fixed) {
    EXPECT_NE(Pipeline.report().LogicalChunks, Data.size() / 4096);
  }
}

TEST_P(CdcPipeline, CdcSurvivesAByteShiftFixedDoesNot) {
  // The canonical CDC property at pipeline level: write a stream, then
  // the same stream with 100 bytes inserted at the front. CDC re-finds
  // almost every chunk; fixed-size chunking finds none.
  WorkloadConfig Load = workload(1 << 20, 1.0, 2.0);
  const ByteVector Original = VdbenchStream(Load).generateAll();
  ByteVector Shifted(100 + Original.size(), 0xEE);
  std::copy(Original.begin(), Original.end(), Shifted.begin() + 100);

  PipelineConfig Config = pipelineConfig(PipelineMode::CpuOnly);
  Config.Chunking = GetParam();
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Original.data(), Original.size()));
  const std::uint64_t UniqueAfterFirst = Pipeline.report().UniqueChunks;
  Pipeline.write(ByteSpan(Shifted.data(), Shifted.size()));
  Pipeline.finish();
  const PipelineReport Report = Pipeline.report();
  const std::uint64_t NewUniques =
      Report.UniqueChunks - UniqueAfterFirst;

  if (GetParam() == ChunkingMode::Fixed) {
    // Every shifted chunk is new: no dedup across the insertion.
    EXPECT_GT(NewUniques, UniqueAfterFirst * 9 / 10);
  } else {
    // CDC boundaries resynchronize: most chunks dedup.
    EXPECT_LT(NewUniques, UniqueAfterFirst / 4);
  }
  // Reconstruction covers both streams regardless.
  ByteVector Both = Original;
  Both.insert(Both.end(), Shifted.begin(), Shifted.end());
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Both.data(), Both.size())));
}

INSTANTIATE_TEST_SUITE_P(Chunkers, CdcPipeline,
                         ::testing::Values(ChunkingMode::Fixed,
                                           ChunkingMode::Rabin,
                                           ChunkingMode::FastCdc),
                         [](const auto &Info) {
                           switch (Info.param) {
                           case ChunkingMode::Fixed:
                             return "fixed";
                           case ChunkingMode::Rabin:
                             return "rabin";
                           default:
                             return "fastcdc";
                           }
                         });

TEST(Pipeline, NoGpuPlatformRunsCpuOnly) {
  const ByteVector Data =
      VdbenchStream(workload(1 << 20, 2.0, 2.0)).generateAll();
  ReductionPipeline Pipeline(Platform::noGpu(),
                             pipelineConfig(PipelineMode::CpuOnly));
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  EXPECT_EQ(Pipeline.report().GpuBusySec, 0.0);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

//===----------------------------------------------------------------------===//
// Per-batch arena reuse
//===----------------------------------------------------------------------===//

TEST(ArenaHotpath, RecipeStableAcrossArenaReuse) {
  // Many small writes => many processBatch calls => many resets of the
  // dedup engine's arena and the pipeline's batch scratch. Recipe
  // entries recorded in earlier batches must be bit-stable (no
  // stale arena-backed refs), and the reassembled stream must verify.
  const ByteVector Data =
      VdbenchStream(workload(1 << 20, 2.0, 2.0, /*Seed=*/99)).generateAll();
  PipelineConfig Config;
  Config.Dedup.Index.BinBits = 8;
  Config.BatchChunks = 16; // small batches -> frequent resets
  ReductionPipeline Pipeline(Platform::paper(), Config);

  const std::size_t Step = 64 * 1024;
  std::vector<std::uint64_t> AfterFirst;
  for (std::size_t Offset = 0; Offset < Data.size(); Offset += Step) {
    const std::size_t Length = std::min(Step, Data.size() - Offset);
    Pipeline.write(ByteSpan(Data.data() + Offset, Length));
    if (Offset == 0) {
      AfterFirst = Pipeline.recipe().ChunkLocations;
      continue;
    }
    // The first write's entries are untouched by later batches.
    ASSERT_GE(Pipeline.recipe().ChunkLocations.size(), AfterFirst.size());
    for (std::size_t I = 0; I < AfterFirst.size(); ++I)
      ASSERT_EQ(Pipeline.recipe().ChunkLocations[I], AfterFirst[I]);
  }
  Pipeline.finish();
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

//===----------------------------------------------------------------------===//
// Host pool width: modelled figures do not depend on it
//===----------------------------------------------------------------------===//

namespace {

/// Every modelled figure of one write-then-read run, by name.
using Figures = std::vector<std::pair<std::string, double>>;

void addPipelineReport(Figures &Out, const PipelineReport &R) {
  const std::pair<const char *, double> Fields[] = {
      {"LogicalBytes", static_cast<double>(R.LogicalBytes)},
      {"LogicalChunks", static_cast<double>(R.LogicalChunks)},
      {"UniqueChunks", static_cast<double>(R.UniqueChunks)},
      {"DupChunks", static_cast<double>(R.DupChunks)},
      {"DupFromBuffer", static_cast<double>(R.DupFromBuffer)},
      {"DupFromTree", static_cast<double>(R.DupFromTree)},
      {"DupFromGpu", static_cast<double>(R.DupFromGpu)},
      {"VerifyMismatches", static_cast<double>(R.VerifyMismatches)},
      {"DedupRatio", R.DedupRatio},
      {"StoredBytes", static_cast<double>(R.StoredBytes)},
      {"RawFallbacks", static_cast<double>(R.RawFallbacks)},
      {"CompressRatio", R.CompressRatio},
      {"ReductionRatio", R.ReductionRatio},
      {"MakespanSec", R.MakespanSec},
      {"ThroughputIops", R.ThroughputIops},
      {"ThroughputMBps", R.ThroughputMBps},
      {"Bottleneck", static_cast<double>(R.Bottleneck)},
      {"CpuBusySec", R.CpuBusySec},
      {"GpuBusySec", R.GpuBusySec},
      {"PcieBusySec", R.PcieBusySec},
      {"SsdBusySec", R.SsdBusySec},
      {"KernelLaunches", static_cast<double>(R.KernelLaunches)},
      {"OffloadFraction", R.OffloadFraction},
      {"LatencyP50Us", R.LatencyP50Us},
      {"LatencyP95Us", R.LatencyP95Us},
      {"LatencyP99Us", R.LatencyP99Us},
      {"SsdHostBytes", static_cast<double>(R.SsdHostBytes)},
      {"SsdNandBytes", static_cast<double>(R.SsdNandBytes)},
      {"WallSec", R.WallSec},
      {"WallThroughputMBps", R.WallThroughputMBps},
      {"WallThroughputIops", R.WallThroughputIops},
  };
  for (const auto &[Name, Value] : Fields)
    Out.emplace_back(std::string("write.") + Name, Value);
  for (unsigned L = 0; L < ResourceCount; ++L) {
    const std::string Lane = resourceName(static_cast<Resource>(L));
    Out.emplace_back("write.SchedBusySec." + Lane, R.SchedBusySec[L]);
    Out.emplace_back("write.SchedHiddenSec." + Lane, R.SchedHiddenSec[L]);
  }
}

void addReadReport(Figures &Out, const restore::ReadReport &R) {
  const std::pair<const char *, double> Fields[] = {
      {"ChunksRequested", static_cast<double>(R.ChunksRequested)},
      {"BytesOut", static_cast<double>(R.BytesOut)},
      {"SsdChunks", static_cast<double>(R.SsdChunks)},
      {"EncodedBytesIn", static_cast<double>(R.EncodedBytesIn)},
      {"CpuBatches", static_cast<double>(R.CpuBatches)},
      {"FramedChunks", static_cast<double>(R.FramedChunks)},
      {"MakespanSec", R.MakespanSec},
      {"ThroughputMBps", R.ThroughputMBps},
      {"CpuBusySec", R.CpuBusySec},
      {"SsdBusySec", R.SsdBusySec},
      {"LatencyP50Us", R.LatencyP50Us},
      {"LatencyP95Us", R.LatencyP95Us},
      {"LatencyP99Us", R.LatencyP99Us},
  };
  for (const auto &[Name, Value] : Fields)
    Out.emplace_back(std::string("read.") + Name, Value);
}

/// Writes \p Data in 40 KiB pieces with content-defined chunks (uneven
/// batches and fractional-nanosecond per-chunk costs, so a charge
/// sliced by the host width would round differently), reads it back on
/// the CPU decoder, and returns the write report, the read report and
/// every ledger busy value.
Figures runAtHostWidth(PipelineMode Mode, unsigned HostWidth,
                       const ByteVector &Data) {
  PipelineConfig Config = pipelineConfig(Mode);
  Config.Chunking = ChunkingMode::FastCdc;
  ReductionPipeline Pipeline(Platform::paper(), Config, HostWidth);
  EXPECT_EQ(Pipeline.pool().size(), HostWidth);
  for (std::size_t Offset = 0; Offset < Data.size(); Offset += 40 << 10)
    EXPECT_TRUE(Pipeline
                    .write(ByteSpan(Data.data() + Offset,
                                    std::min<std::size_t>(40 << 10,
                                                          Data.size() -
                                                              Offset)))
                    .ok());
  EXPECT_TRUE(Pipeline.finish().ok());
  Figures Out;
  addPipelineReport(Out, Pipeline.report());
  restore::ReadConfig ReadCfg;
  ReadCfg.Mode = restore::DecodeMode::Cpu;
  restore::ReadPipeline Reader(Pipeline, ReadCfg);
  EXPECT_EQ(Reader.readStream(Pipeline.recipe()), Data);
  addReadReport(Out, Reader.report());
  for (unsigned L = 0; L < ResourceCount; ++L)
    Out.emplace_back(std::string("ledger.") +
                         resourceName(static_cast<Resource>(L)),
                     Pipeline.ledger().busyMicros(static_cast<Resource>(L)));
  return Out;
}

} // namespace

TEST(PipelineHostWidth, ModelledFiguresIdenticalAtWidthsOneTwoFourEight) {
  // Every site that prices pool work books per-item costs sliced by the
  // modelled Cpu.Threads, so the host width changes no figure, not even
  // by a nanosecond of rounding.
  const ByteVector Data =
      VdbenchStream(workload(1 << 20, 2.0, 2.0, /*Seed=*/7)).generateAll();
  for (PipelineMode Mode : {PipelineMode::CpuOnly, PipelineMode::GpuCompress}) {
    SCOPED_TRACE(pipelineModeName(Mode));
    const Figures One = runAtHostWidth(Mode, 1, Data);
    EXPECT_GT(One.size(), 40u);
    for (unsigned Width : {2u, 4u, 8u}) {
      SCOPED_TRACE("host width " + std::to_string(Width));
      const Figures Other = runAtHostWidth(Mode, Width, Data);
      ASSERT_EQ(One.size(), Other.size());
      for (std::size_t I = 0; I < One.size(); ++I)
        EXPECT_EQ(One[I], Other[I]);
    }
  }
}
