//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the dedup engine and the two compress backends: functional
/// correctness, ledger charging, GPU offload mechanics, flush
/// side-effects, and the adaptive offload controller.
///
//===----------------------------------------------------------------------===//

#include "backend/CpuBackend.h"
#include "backend/GpuBackend.h"
#include "compress/ChunkCodec.h"
#include "core/DedupEngine.h"
#include "util/Random.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

using namespace padre;

namespace {

struct EngineFixture : ::testing::Test {
  CostModel Model;
  ResourceLedger Ledger;
  ThreadPool Pool{4};
  SsdModel Ssd{Model, Ledger};

  DedupEngineConfig dedupConfig(bool Gpu) {
    DedupEngineConfig Config;
    Config.Index.BinBits = 8;
    Config.Index.BufferCapacityPerBin = 8;
    Config.GpuOffload = Gpu;
    return Config;
  }

  /// Builds chunk views over a generated stream.
  static std::vector<ChunkView> viewsOf(const ByteVector &Data,
                                        std::size_t ChunkSize = 4096) {
    std::vector<ChunkView> Views;
    for (std::size_t Offset = 0; Offset < Data.size();
         Offset += ChunkSize)
      Views.push_back(ChunkView{
          ByteSpan(Data.data() + Offset,
                   std::min(ChunkSize, Data.size() - Offset)),
          Offset});
    return Views;
  }

  static std::vector<std::uint64_t> locationsFor(std::size_t Count,
                                                 std::uint64_t Base = 0) {
    std::vector<std::uint64_t> Locations(Count);
    for (std::size_t I = 0; I < Count; ++I)
      Locations[I] = Base + I;
    return Locations;
  }
};

ByteVector streamWithDuplicates(std::size_t Blocks, double DedupRatio,
                                std::uint64_t Seed) {
  WorkloadConfig Config;
  Config.TotalBytes = Blocks * 4096;
  Config.DedupRatio = DedupRatio;
  Config.CompressRatio = 2.0;
  Config.Seed = Seed;
  return VdbenchStream(Config).generateAll();
}

} // namespace

//===----------------------------------------------------------------------===//
// DedupEngine — CPU only
//===----------------------------------------------------------------------===//

TEST_F(EngineFixture, DedupDetectsDuplicatesAcrossBatches) {
  DedupEngine Engine(Model, Ledger, Pool, Ssd, nullptr,
                     dedupConfig(false));
  const ByteVector Data = streamWithDuplicates(64, 1.0, 1);
  const auto Views = viewsOf(Data);

  std::vector<DedupItem> First, Second;
  Engine.processBatch(Views, locationsFor(Views.size()), First);
  for (const DedupItem &Item : First)
    EXPECT_EQ(Item.Outcome, LookupOutcome::Unique);

  Engine.processBatch(Views, locationsFor(Views.size(), 1000), Second);
  for (std::size_t I = 0; I < Second.size(); ++I) {
    EXPECT_NE(Second[I].Outcome, LookupOutcome::Unique);
    EXPECT_EQ(Second[I].Location, First[I].Location)
        << "duplicate must resolve to the original location";
  }
}

TEST_F(EngineFixture, DedupChargesCpuHashAndIndexCosts) {
  DedupEngine Engine(Model, Ledger, Pool, Ssd, nullptr,
                     dedupConfig(false));
  const ByteVector Data = streamWithDuplicates(32, 1.0, 2);
  const auto Views = viewsOf(Data);
  std::vector<DedupItem> Items;
  Engine.processBatch(Views, locationsFor(Views.size()), Items);

  const double Expected =
      32 * (Model.cpuHashUs(4096) + Model.Cpu.IndexProbeUs +
            Model.Cpu.IndexMaintainUs);
  EXPECT_NEAR(Ledger.busySeconds(Resource::CpuPool), Expected * 1e-6,
              Expected * 1e-6 * 0.01);
  EXPECT_EQ(Ledger.busySeconds(Resource::Gpu), 0.0);
}

TEST_F(EngineFixture, SerialIndexingChargesTheLock) {
  DedupEngineConfig Config = dedupConfig(false);
  Config.SerialIndexing = true;
  DedupEngine Engine(Model, Ledger, Pool, Ssd, nullptr, Config);
  const ByteVector Data = streamWithDuplicates(32, 1.0, 21);
  const auto Views = viewsOf(Data);
  std::vector<DedupItem> Items;
  Engine.processBatch(Views, locationsFor(Views.size()), Items);
  // Index work (probe + maintenance) appears on the lock resource.
  const double Expected =
      32 * (Model.Cpu.IndexProbeUs + Model.Cpu.IndexMaintainUs);
  EXPECT_NEAR(Ledger.busySeconds(Resource::IndexLock), Expected * 1e-6,
              Expected * 1e-8);
  // The parallel path (no flag) leaves the lock untouched.
  Ledger.reset();
  DedupEngine Parallel(Model, Ledger, Pool, Ssd, nullptr,
                       dedupConfig(false));
  Parallel.processBatch(Views, locationsFor(Views.size()), Items);
  EXPECT_EQ(Ledger.busySeconds(Resource::IndexLock), 0.0);
}

TEST_F(EngineFixture, DedupFinishFlushesBuffersToSsd) {
  DedupEngine Engine(Model, Ledger, Pool, Ssd, nullptr,
                     dedupConfig(false));
  const ByteVector Data = streamWithDuplicates(32, 1.0, 3);
  const auto Views = viewsOf(Data);
  std::vector<DedupItem> Items;
  Engine.processBatch(Views, locationsFor(Views.size()), Items);
  const double SsdBefore = Ledger.busySeconds(Resource::Ssd);
  Engine.finish();
  EXPECT_GT(Ledger.busySeconds(Resource::Ssd), SsdBefore);
}

TEST_F(EngineFixture, DedupItemsCarryFingerprints) {
  DedupEngine Engine(Model, Ledger, Pool, Ssd, nullptr,
                     dedupConfig(false));
  const ByteVector Data = streamWithDuplicates(8, 1.0, 4);
  const auto Views = viewsOf(Data);
  std::vector<DedupItem> Items;
  Engine.processBatch(Views, locationsFor(Views.size()), Items);
  for (std::size_t I = 0; I < Views.size(); ++I)
    EXPECT_EQ(Items[I].Fp, Fingerprint::ofData(Views[I].Data));
}

//===----------------------------------------------------------------------===//
// DedupEngine — GPU offload
//===----------------------------------------------------------------------===//

TEST_F(EngineFixture, GpuOffloadKeepsResultsCorrect) {
  GpuDevice Device(Model, Ledger);
  DedupEngineConfig Config = dedupConfig(true);
  Config.OffloadInitial = 0.5;
  DedupEngine Engine(Model, Ledger, Pool, Ssd, &Device, Config);

  const ByteVector Data = streamWithDuplicates(512, 2.0, 5);
  const auto Views = viewsOf(Data);

  // Two passes; second pass must find every chunk as a duplicate.
  std::vector<DedupItem> Items;
  std::size_t Processed = 0;
  for (std::size_t Begin = 0; Begin < Views.size(); Begin += 128) {
    const std::size_t End = std::min(Views.size(), Begin + 128);
    Engine.processBatch(
        std::span<const ChunkView>(Views.data() + Begin, End - Begin),
        locationsFor(End - Begin, Processed), Items);
    Processed += End - Begin;
  }
  Engine.finish(); // populate the GPU table fully

  std::vector<DedupItem> Second;
  Engine.processBatch(
      std::span<const ChunkView>(Views.data(), 128),
      locationsFor(128, 100000), Second);
  for (const DedupItem &Item : Second)
    EXPECT_NE(Item.Outcome, LookupOutcome::Unique);
  EXPECT_GT(Ledger.busySeconds(Resource::Gpu), 0.0);
  EXPECT_GT(Device.launches(KernelFamily::Indexing), 0u);
}

TEST_F(EngineFixture, GpuHitsResolveToOriginalLocations) {
  GpuDevice Device(Model, Ledger);
  DedupEngineConfig Config = dedupConfig(true);
  Config.OffloadInitial = 1.0;
  Config.OffloadFloor = 1.0; // force everything through the GPU
  Config.Index.BufferCapacityPerBin = 1; // flush immediately
  DedupEngine Engine(Model, Ledger, Pool, Ssd, &Device, Config);

  const ByteVector Data = streamWithDuplicates(64, 1.0, 6);
  const auto Views = viewsOf(Data);
  std::vector<DedupItem> First, Second;
  Engine.processBatch(Views, locationsFor(Views.size()), First);
  Engine.processBatch(Views, locationsFor(Views.size(), 5000), Second);

  std::size_t GpuResolved = 0;
  for (std::size_t I = 0; I < Second.size(); ++I) {
    EXPECT_NE(Second[I].Outcome, LookupOutcome::Unique);
    EXPECT_EQ(Second[I].Location, First[I].Location);
    GpuResolved += Second[I].Outcome == LookupOutcome::DupGpu;
  }
  // With full offload and immediate flush, the GPU resolves most
  // duplicates before the CPU path.
  EXPECT_GT(GpuResolved, Second.size() / 2);
}

TEST_F(EngineFixture, AdaptiveOffloadStaysWithinBounds) {
  GpuDevice Device(Model, Ledger);
  DedupEngineConfig Config = dedupConfig(true);
  DedupEngine Engine(Model, Ledger, Pool, Ssd, &Device, Config);
  const ByteVector Data = streamWithDuplicates(2048, 2.0, 7);
  const auto Views = viewsOf(Data);
  std::vector<DedupItem> Items;
  std::size_t Processed = 0;
  for (std::size_t Begin = 0; Begin < Views.size(); Begin += 256) {
    const std::size_t End = std::min(Views.size(), Begin + 256);
    Engine.processBatch(
        std::span<const ChunkView>(Views.data() + Begin, End - Begin),
        locationsFor(End - Begin, Processed), Items);
    Processed += End - Begin;
    EXPECT_GE(Engine.offloadFraction(), Config.OffloadFloor);
    EXPECT_LE(Engine.offloadFraction(), Config.OffloadCeiling);
  }
}

//===----------------------------------------------------------------------===//
// Compress backends — CPU pool and GPU lanes
//===----------------------------------------------------------------------===//

namespace {

/// Runs every chunk of \p Chunks through \p Backend as one unpipelined
/// slice, the way a forced split drives it.
std::vector<CompressedChunk> compressAll(backend::ReductionBackend &Backend,
                                         std::span<const ChunkView> Chunks) {
  std::vector<CompressedChunk> Out(Chunks.size());
  std::vector<BatchScheduler::CompressSlice> Slices;
  Backend.executeSlice(Chunks, 0, Chunks.size(), Out, Slices,
                       /*Pipelined=*/false);
  return Out;
}

/// Which compress backend a parameterized case drives.
enum class EngineKind { Cpu, GpuLane };

class BackendTest : public EngineFixture,
                    public ::testing::WithParamInterface<EngineKind> {
protected:
  std::unique_ptr<GpuDevice> Device;

  std::unique_ptr<backend::ReductionBackend> makeBackend() {
    if (GetParam() == EngineKind::Cpu)
      return std::make_unique<backend::CpuBackend>(Model, Ledger, Pool,
                                                   CompressEngineConfig());
    Device = std::make_unique<GpuDevice>(Model, Ledger);
    return std::make_unique<backend::GpuBackend>(Model, Ledger, Pool, *Device,
                                                 CompressEngineConfig());
  }
};

} // namespace

TEST_P(BackendTest, CompressedBlocksDecodeToOriginal) {
  const auto Backend = makeBackend();
  const ByteVector Data = streamWithDuplicates(64, 1.0, 8);
  const auto Views = viewsOf(Data);
  const std::vector<CompressedChunk> Out = compressAll(*Backend, Views);
  ASSERT_EQ(Out.size(), Views.size());
  for (std::size_t I = 0; I < Out.size(); ++I) {
    const auto View =
        decodeBlock(ByteSpan(Out[I].Block.data(), Out[I].Block.size()));
    ASSERT_TRUE(View.has_value()) << I;
    ByteVector Decoded;
    ASSERT_TRUE(decodeChunkPayload(*View, Decoded)) << I;
    EXPECT_TRUE(std::equal(Decoded.begin(), Decoded.end(),
                           Views[I].Data.begin(), Views[I].Data.end()));
  }
}

TEST_P(BackendTest, CompressionSavesSpaceOnCompressibleData) {
  const auto Backend = makeBackend();
  const ByteVector Data = streamWithDuplicates(64, 1.0, 9);
  const auto Views = viewsOf(Data);
  std::uint64_t Stored = 0;
  for (const CompressedChunk &Chunk : compressAll(*Backend, Views))
    Stored += Chunk.Block.size();
  // The workload targets ratio 2; allow a generous band.
  EXPECT_LT(Stored, Data.size() * 3 / 4);
}

TEST_P(BackendTest, EmptyBatchIsFine) {
  const auto Backend = makeBackend();
  std::vector<CompressedChunk> Out;
  std::vector<BatchScheduler::CompressSlice> Slices;
  Backend->executeSlice({}, 0, 0, Out, Slices, /*Pipelined=*/false);
  EXPECT_TRUE(Out.empty());
  EXPECT_TRUE(Slices.empty());
  EXPECT_EQ(Ledger.busyMicros(Resource::CpuPool), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest,
                         ::testing::Values(EngineKind::Cpu,
                                           EngineKind::GpuLane),
                         [](const auto &Info) {
                           return Info.param == EngineKind::Cpu ? "cpu"
                                                                : "gpulane";
                         });

TEST_F(EngineFixture, CpuBackendChargesCpuOnly) {
  backend::CpuBackend Backend(Model, Ledger, Pool, CompressEngineConfig());
  const ByteVector Data = streamWithDuplicates(32, 1.0, 10);
  compressAll(Backend, viewsOf(Data));
  EXPECT_GT(Ledger.busySeconds(Resource::CpuPool), 0.0);
  EXPECT_EQ(Ledger.busySeconds(Resource::Gpu), 0.0);
  EXPECT_EQ(Ledger.busySeconds(Resource::Pcie), 0.0);
}

TEST_F(EngineFixture, GpuBackendChargesGpuPcieAndCpuRefinement) {
  GpuDevice Device(Model, Ledger);
  backend::GpuBackend Backend(Model, Ledger, Pool, Device,
                              CompressEngineConfig());
  const ByteVector Data = streamWithDuplicates(64, 1.0, 11);
  compressAll(Backend, viewsOf(Data));
  EXPECT_GT(Ledger.busySeconds(Resource::Gpu), 0.0);
  EXPECT_GT(Ledger.busySeconds(Resource::Pcie), 0.0);
  EXPECT_GT(Ledger.busySeconds(Resource::CpuPool), 0.0); // refinement
  EXPECT_GT(Device.launches(KernelFamily::Compression), 0u);
  EXPECT_GT(Ledger.bytesToDevice(), 0u);
  EXPECT_GT(Ledger.bytesFromDevice(), 0u);
}

TEST_F(EngineFixture, IncompressibleDataFallsBackToRaw) {
  backend::CpuBackend Backend(Model, Ledger, Pool, CompressEngineConfig());
  ByteVector Data(64 * 4096);
  Random Rng(12);
  Rng.fillBytes(Data.data(), Data.size());
  const std::vector<CompressedChunk> Out =
      compressAll(Backend, viewsOf(Data));
  EXPECT_EQ(Backend.rawFallbacks(), Out.size());
  for (const CompressedChunk &Chunk : Out)
    EXPECT_TRUE(Chunk.StoredRaw);
}

TEST_F(EngineFixture, LockstepChargesDivergentChunksMore) {
  // Two inputs with identical total literal/match bytes, but one has
  // them split evenly across lanes and the other concentrates all the
  // literals in a single lane. Under the SIMT lockstep rule the
  // divergent chunk's wavefront is gated by its slowest lane, so the
  // GPU charge must be strictly higher.
  GpuDevice Device(Model, Ledger);
  CompressEngineConfig Config;
  Config.Lanes.Lanes = 8;
  backend::GpuBackend Backend(Model, Ledger, Pool, Device, Config);

  // Balanced: every 512 B lane is half filler, half noise.
  ByteVector Balanced(4096);
  Random Rng(21);
  for (std::size_t Lane = 0; Lane < 8; ++Lane) {
    std::memset(Balanced.data() + Lane * 512, 0x55, 256);
    Rng.fillBytes(Balanced.data() + Lane * 512 + 256, 256);
  }
  // Divergent: lanes 0-3 pure filler, lanes 4-7 pure noise (same
  // totals: 2 KiB filler, 2 KiB noise).
  ByteVector Divergent(4096);
  std::memset(Divergent.data(), 0x55, 2048);
  Rng.fillBytes(Divergent.data() + 2048, 2048);

  const ChunkView BalancedView{ByteSpan(Balanced.data(), 4096), 0};
  const ChunkView DivergentView{ByteSpan(Divergent.data(), 4096), 0};
  compressAll(Backend, std::span<const ChunkView>(&BalancedView, 1));
  const double BalancedExec =
      Ledger.busySeconds(Resource::Gpu) * 1e6 - Model.Gpu.LaunchUs;
  Ledger.reset();
  compressAll(Backend, std::span<const ChunkView>(&DivergentView, 1));
  const double DivergentExec =
      Ledger.busySeconds(Resource::Gpu) * 1e6 - Model.Gpu.LaunchUs;
  // The literal and match per-byte rates are deliberately close (the
  // calibration in EXPERIMENTS.md), so the lockstep penalty is a
  // few percent here — but it must be strictly and measurably worse.
  EXPECT_GT(DivergentExec, BalancedExec * 1.03);
}

TEST_F(EngineFixture, GpuBatchingRespectsSubBatchSize) {
  Model.Gpu.CompressBatchChunks = 16;
  GpuDevice Device(Model, Ledger);
  backend::GpuBackend Backend(Model, Ledger, Pool, Device,
                              CompressEngineConfig());
  const ByteVector Data = streamWithDuplicates(64, 1.0, 13);
  compressAll(Backend, viewsOf(Data));
  EXPECT_EQ(Device.launches(KernelFamily::Compression), 4u); // 64/16
}
