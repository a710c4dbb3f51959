//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the crash-consistent metadata journal: WAL framing and
/// torn-tail rules, group commit and ack semantics, checkpoint +
/// truncation, the crash-point x recovery matrix (every acknowledged
/// write rebuilt bit-identically, unacknowledged writes cleanly
/// absent), and corruption sweeps over both artefacts.
///
//===----------------------------------------------------------------------===//

#include "compress/Block.h"
#include "fault/FaultInjector.h"
#include "hash/Crc32.h"
#include "journal/JournaledVolume.h"
#include "journal/Recovery.h"
#include "persist/VolumeImage.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

using namespace padre;
using namespace padre::journal;
using padre::fault::CrashPoint;
using padre::fault::ErrorCode;

namespace {

constexpr std::size_t BlockSize = 4096;
constexpr std::uint64_t BlockCount = 128;

struct JournalFixture : ::testing::Test {
  std::string JournalPath;
  std::string CheckpointPath;

  void SetUp() override {
    const std::string Base =
        ::testing::TempDir() + "padre_journal_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    JournalPath = Base + ".wal";
    CheckpointPath = Base + ".ckpt";
  }

  void TearDown() override {
    std::remove(JournalPath.c_str());
    std::remove(CheckpointPath.c_str());
    std::remove((CheckpointPath + ".tmp").c_str());
  }

  static std::unique_ptr<ReductionPipeline> makePipeline() {
    PipelineConfig Config;
    Config.Mode = PipelineMode::CpuOnly;
    Config.Dedup.Index.BinBits = 8;
    return std::make_unique<ReductionPipeline>(Platform::paper(), Config);
  }

  static ByteVector blockOf(std::uint64_t Tag) {
    ByteVector Data(BlockSize);
    Random Rng(Tag * 31337 + 5);
    std::uint8_t Filler[64];
    Rng.fillBytes(Filler, sizeof(Filler));
    for (std::size_t I = 0; I < Data.size(); I += 64)
      if ((I / 64) % 3 == 0)
        Rng.fillBytes(Data.data() + I, 64);
      else
        std::copy(Filler, Filler + 64, Data.data() + I);
    return Data;
  }

  static fault::FaultPlan planOf(const std::string &Spec) {
    fault::FaultPlan Plan;
    std::string Error;
    EXPECT_TRUE(fault::parseFaultPlan(Spec, Plan, Error)) << Error;
    return Plan;
  }

  JournaledVolumeConfig configOf(std::size_t GroupCommitOps = 1,
                                 std::size_t CheckpointEveryOps = 0,
                                 fault::FaultInjector *Faults = nullptr) {
    JournaledVolumeConfig Config;
    Config.JournalPath = JournalPath;
    Config.CheckpointPath = CheckpointPath;
    Config.GroupCommitOps = GroupCommitOps;
    Config.CheckpointEveryOps = CheckpointEveryOps;
    Config.Faults = Faults;
    return Config;
  }
};

/// Reads a whole volume and requires success.
ByteVector readAll(Volume &Vol) {
  const auto Data = Vol.readBlocks(0, Vol.blockCount());
  EXPECT_TRUE(Data.has_value());
  return Data ? *Data : ByteVector();
}

/// Appends raw bytes to a file (corruption helper).
void appendToFile(const std::string &Path, ByteSpan Bytes) {
  std::FILE *File = std::fopen(Path.c_str(), "ab");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), File), Bytes.size());
  std::fclose(File);
}

/// Reads a whole file.
ByteVector slurp(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(File, nullptr);
  if (!File)
    return {};
  std::fseek(File, 0, SEEK_END);
  const long Size = std::ftell(File);
  std::fseek(File, 0, SEEK_SET);
  ByteVector Out(static_cast<std::size_t>(Size));
  EXPECT_EQ(std::fread(Out.data(), 1, Out.size(), File), Out.size());
  std::fclose(File);
  return Out;
}

/// Writes a whole file (truncating).
void dump(const std::string &Path, ByteSpan Bytes) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), File), Bytes.size());
  std::fclose(File);
}

} // namespace

//===--------------------------------------------------------------------===//
// Round trips and ack semantics
//===--------------------------------------------------------------------===//

TEST_F(JournalFixture, JournaledOpsRecoverBitIdentical) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf());
  ASSERT_TRUE(Jv.ctorStatus().ok());

  for (std::uint64_t Op = 0; Op < 24; ++Op) {
    const ByteVector Data = blockOf(Op % 9); // duplicates included
    const auto Seq =
        Jv.writeBlocks((Op * 5) % BlockCount, ByteSpan(Data.data(),
                                                       Data.size()));
    ASSERT_TRUE(Seq.ok());
    EXPECT_LE(*Seq, Jv.ackedSeq()); // per-op commit acks immediately
  }
  Volume::SnapshotId Snap = 0;
  ASSERT_TRUE(Jv.createSnapshot(&Snap).ok());
  ASSERT_TRUE(Jv.trim(5, 3).ok());
  const ByteVector Fresh = blockOf(777);
  ASSERT_TRUE(Jv.writeBlocks(10, ByteSpan(Fresh.data(), Fresh.size())).ok());
  std::size_t Collected = 0;
  ASSERT_TRUE(Jv.collectGarbage(&Collected).ok());

  const ByteVector Before = readAll(Vol);
  const auto SnapBefore = Vol.readSnapshotBlocks(Snap, 0, BlockCount);
  ASSERT_TRUE(SnapBefore.has_value());

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
  ASSERT_TRUE(Report.ok()) << Report.St.message();
  EXPECT_FALSE(Report.CheckpointLoaded);
  EXPECT_EQ(Report.ReplayedRecords, 28u); // 24 + snap + trim + write + gc
  EXPECT_EQ(Report.DiscardedTailBytes, 0u);
  EXPECT_GT(Report.ModelledMicros, 0.0);

  EXPECT_EQ(readAll(Restored), Before);
  const auto SnapAfter = Restored.readSnapshotBlocks(Snap, 0, BlockCount);
  ASSERT_TRUE(SnapAfter.has_value());
  EXPECT_EQ(*SnapAfter, *SnapBefore);
  EXPECT_EQ(Restored.stats().LiveChunks, Vol.stats().LiveChunks);
  EXPECT_EQ(Restored.stats().DeadChunks, Vol.stats().DeadChunks);

  // Refcounts must agree chunk-for-chunk, not just in aggregate.
  for (const auto &Record : Vol.chunkRecords())
    EXPECT_EQ(Restored.refCount(Record.Location), Record.Refs)
        << "location " << Record.Location;
}

TEST_F(JournalFixture, RecoveryWithNoArtefactsIsEmpty) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *Pipeline, Vol);
  EXPECT_TRUE(Report.ok());
  EXPECT_FALSE(Report.CheckpointLoaded);
  EXPECT_EQ(Report.ReplayedRecords, 0u);
  EXPECT_EQ(Vol.stats().MappedBlocks, 0u);
}

TEST_F(JournalFixture, GroupCommitAcksInBatches) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf(/*GroupCommitOps=*/4));
  ASSERT_TRUE(Jv.ctorStatus().ok());

  for (std::uint64_t Op = 0; Op < 3; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
    EXPECT_EQ(Jv.ackedSeq(), 0u) << "acked before the group committed";
  }
  const ByteVector Data = blockOf(3);
  ASSERT_TRUE(Jv.writeBlocks(3, ByteSpan(Data.data(), Data.size())).ok());
  EXPECT_EQ(Jv.ackedSeq(), 4u);

  // A partial group flushes on sync().
  const ByteVector More = blockOf(4);
  ASSERT_TRUE(Jv.writeBlocks(4, ByteSpan(More.data(), More.size())).ok());
  EXPECT_EQ(Jv.ackedSeq(), 4u);
  ASSERT_TRUE(Jv.sync().ok());
  EXPECT_EQ(Jv.ackedSeq(), 5u);
}

TEST_F(JournalFixture, PendingRecordsAreCleanlyAbsentAfterRecovery) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf(/*GroupCommitOps=*/100));

  for (std::uint64_t Op = 0; Op < 5; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  ASSERT_TRUE(Jv.sync().ok());
  // Three more writes stay pooled in memory — the "crash" (abandoning
  // the frontend) loses them, exactly like an unsynced page cache.
  for (std::uint64_t Op = 5; Op < 8; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  EXPECT_EQ(Jv.ackedSeq(), 5u);

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report.ReplayedRecords, 5u);
  for (std::uint64_t Op = 0; Op < 8; ++Op) {
    const auto Read = Restored.readBlocks(Op, 1);
    ASSERT_TRUE(Read.has_value());
    if (Op < 5)
      EXPECT_EQ(*Read, blockOf(Op)) << "acked write lost";
    else
      EXPECT_EQ(*Read, ByteVector(BlockSize, 0)) << "unsynced write leaked";
  }
}

//===--------------------------------------------------------------------===//
// Crash x recovery matrix
//===--------------------------------------------------------------------===//

namespace {

/// Outcome of driving writes into a crash: the last acknowledged
/// content per LBA, plus the LBAs whose post-crash content is allowed
/// to be either old or new (the post-commit durable-but-unacked case).
struct CrashScenario {
  std::vector<ByteVector> Acked; // empty = never acknowledged (zeros)
  /// Lba -> also-allowed content for the interrupted op.
  std::vector<std::pair<std::uint64_t, ByteVector>> Ambiguous;
  bool Crashed = false;
  std::uint64_t AckedSeq = 0;
};

CrashScenario driveUntilCrash(JournaledVolume &Jv, bool AmbiguousOnCrash,
                              std::uint64_t MaxOps) {
  CrashScenario Scenario;
  Scenario.Acked.resize(BlockCount);
  for (std::uint64_t Op = 0; Op < MaxOps; ++Op) {
    const std::uint64_t Lba = (Op * 7) % (BlockCount - 1);
    const ByteVector Data = JournalFixture::blockOf(Op * 13 + 1);
    const auto Seq = Jv.writeBlocks(Lba, ByteSpan(Data.data(), Data.size()));
    if (Seq.ok() && *Seq <= Jv.ackedSeq()) {
      Scenario.Acked[Lba] = Data;
      continue;
    }
    EXPECT_EQ(Seq.status().code(), ErrorCode::Crashed);
    Scenario.Crashed = true;
    if (AmbiguousOnCrash)
      Scenario.Ambiguous.emplace_back(Lba, Data);
    break;
  }
  Scenario.AckedSeq = Jv.ackedSeq();
  return Scenario;
}

/// Recovered content must equal the acknowledged content everywhere,
/// except the ambiguous LBAs, which may also hold the in-flight data.
void expectMatchesScenario(Volume &Restored, const CrashScenario &Scenario) {
  for (std::uint64_t Lba = 0; Lba < BlockCount; ++Lba) {
    const auto Read = Restored.readBlocks(Lba, 1);
    ASSERT_TRUE(Read.has_value());
    const ByteVector &Expected = Scenario.Acked[Lba].empty()
                                     ? ByteVector(BlockSize, 0)
                                     : Scenario.Acked[Lba];
    bool Allowed = *Read == Expected;
    for (const auto &[AmbLba, AmbData] : Scenario.Ambiguous)
      if (AmbLba == Lba && *Read == AmbData)
        Allowed = true;
    EXPECT_TRUE(Allowed) << "LBA " << Lba
                         << " holds neither acked nor in-flight content";
  }
}

} // namespace

TEST_F(JournalFixture, CrashMatrixRecoversExactlyTheAckedPrefix) {
  const struct {
    const char *Point;
    bool Ambiguous; // post-commit: durable but unacknowledged
  } Points[] = {
      {"mid-destage", false},
      {"pre-commit", false},
      {"mid-commit", false},
      {"post-commit", true},
  };
  for (const auto &Point : Points) {
    for (const std::uint64_t At : {0ull, 3ull, 7ull}) {
      SCOPED_TRACE(std::string(Point.Point) + " at=" + std::to_string(At));
      const fault::FaultPlan Plan = planOf(
          "seed=11;crash@" + std::string(Point.Point) +
          ":crash:at=" + std::to_string(At));
      fault::FaultInjector Faults(Plan);
      auto Pipeline = makePipeline();
      Volume Vol(*Pipeline, {BlockCount});
      JournaledVolume Jv(Vol, *Pipeline, configOf(1, 0, &Faults));
      ASSERT_TRUE(Jv.ctorStatus().ok());

      const CrashScenario Scenario =
          driveUntilCrash(Jv, Point.Ambiguous, /*MaxOps=*/16);
      ASSERT_TRUE(Scenario.Crashed);
      ASSERT_TRUE(Jv.halted());
      EXPECT_EQ(Scenario.AckedSeq, At);

      // Recover twice independently: both must satisfy the contract
      // and agree with each other (deterministic replay).
      auto Pipe1 = makePipeline();
      Volume Restored1(*Pipe1, {BlockCount});
      const RecoveryReport Report1 =
          recoverVolume(JournalPath, CheckpointPath, *Pipe1, Restored1);
      ASSERT_TRUE(Report1.ok()) << Report1.St.message();
      expectMatchesScenario(Restored1, Scenario);

      auto Pipe2 = makePipeline();
      Volume Restored2(*Pipe2, {BlockCount});
      const RecoveryReport Report2 =
          recoverVolume(JournalPath, CheckpointPath, *Pipe2, Restored2);
      ASSERT_TRUE(Report2.ok());
      EXPECT_EQ(readAll(Restored1), readAll(Restored2));
      EXPECT_EQ(Report1.ReplayedRecords, Report2.ReplayedRecords);
    }
  }
}

TEST_F(JournalFixture, TornWriteTailIsDiscardedDeterministically) {
  for (const std::uint64_t Seed : {3ull, 17ull, 99ull}) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    const fault::FaultPlan Plan =
        planOf("seed=" + std::to_string(Seed) +
               ";crash@mid-commit:torn-write:at=5");
    fault::FaultInjector Faults(Plan);
    auto Pipeline = makePipeline();
    Volume Vol(*Pipeline, {BlockCount});
    JournaledVolume Jv(Vol, *Pipeline, configOf(1, 0, &Faults));

    const CrashScenario Scenario =
        driveUntilCrash(Jv, /*AmbiguousOnCrash=*/false, 16);
    ASSERT_TRUE(Scenario.Crashed);

    auto FreshPipe = makePipeline();
    Volume Restored(*FreshPipe, {BlockCount});
    const RecoveryReport Report =
        recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
    ASSERT_TRUE(Report.ok()) << Report.St.message();
    EXPECT_EQ(Report.ReplayedRecords, 5u);
    expectMatchesScenario(Restored, Scenario);
  }
}

TEST_F(JournalFixture, BareCrashSiteCountsEveryPoint) {
  // Global ordinal: each write visits mid-destage, pre-commit,
  // mid-commit, post-commit in order, so at=6 is write #1's mid-commit.
  const fault::FaultPlan Plan = planOf("seed=1;crash:crash:at=6");
  fault::FaultInjector Faults(Plan);
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf(1, 0, &Faults));

  const ByteVector D0 = blockOf(1);
  EXPECT_TRUE(Jv.writeBlocks(0, ByteSpan(D0.data(), D0.size())).ok());
  const ByteVector D1 = blockOf(2);
  const auto Seq = Jv.writeBlocks(1, ByteSpan(D1.data(), D1.size()));
  ASSERT_FALSE(Seq.ok());
  EXPECT_EQ(Seq.status().code(), ErrorCode::Crashed);
  EXPECT_EQ(Faults.crashPointOps(CrashPoint::MidCommit), 2u);
}

TEST_F(JournalFixture, MidCheckpointCrashKeepsCheckpointAndSkipsCovered) {
  const fault::FaultPlan Plan =
      planOf("seed=5;crash@mid-checkpoint:crash:at=1");
  fault::FaultInjector Faults(Plan);
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  // Checkpoint every 4 ops; the second checkpoint (op 8) crashes after
  // the image is durable but before the log truncates.
  JournaledVolume Jv(Vol, *Pipeline, configOf(1, 4, &Faults));

  std::uint64_t Op = 0;
  bool Crashed = false;
  std::vector<ByteVector> Acked(BlockCount);
  for (; Op < 32 && !Crashed; ++Op) {
    const std::uint64_t Lba = Op % BlockCount;
    const ByteVector Data = blockOf(Op + 100);
    const auto Seq = Jv.writeBlocks(Lba, ByteSpan(Data.data(), Data.size()));
    if (Seq.ok() && *Seq <= Jv.ackedSeq()) {
      Acked[Lba] = Data;
      continue;
    }
    EXPECT_EQ(Seq.status().code(), ErrorCode::Crashed);
    // The op's record committed before the checkpoint ran: the write
    // itself is durable even though the op errored.
    Acked[Lba] = Data;
    Crashed = true;
  }
  ASSERT_TRUE(Crashed);
  EXPECT_EQ(Jv.checkpointsTaken(), 1u);

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
  ASSERT_TRUE(Report.ok()) << Report.St.message();
  EXPECT_TRUE(Report.CheckpointLoaded);
  EXPECT_GT(Report.SkippedRecords, 0u); // covered residue in the old log
  for (std::uint64_t Lba = 0; Lba < BlockCount; ++Lba) {
    const auto Read = Restored.readBlocks(Lba, 1);
    ASSERT_TRUE(Read.has_value());
    EXPECT_EQ(*Read, Acked[Lba].empty() ? ByteVector(BlockSize, 0)
                                        : Acked[Lba])
        << "LBA " << Lba;
  }
}

//===--------------------------------------------------------------------===//
// Checkpoints
//===--------------------------------------------------------------------===//

TEST_F(JournalFixture, CheckpointTruncatesTheLog) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf(1, /*CheckpointEveryOps=*/8));

  for (std::uint64_t Op = 0; Op < 20; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(
        Jv.writeBlocks(Op % BlockCount, ByteSpan(Data.data(), Data.size()))
            .ok());
  }
  EXPECT_EQ(Jv.checkpointsTaken(), 2u);

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
  ASSERT_TRUE(Report.ok()) << Report.St.message();
  EXPECT_TRUE(Report.CheckpointLoaded);
  EXPECT_EQ(Report.CheckpointSeq, 16u);
  EXPECT_EQ(Report.ReplayedRecords, 4u); // only the post-checkpoint ops
  EXPECT_EQ(readAll(Restored), readAll(Vol));
}

TEST_F(JournalFixture, ExplicitCheckpointAnchorsRecoveredState) {
  // The recover-then-continue pattern: recover, wrap, checkpoint to
  // anchor the rebuilt state, keep writing.
  {
    auto Pipeline = makePipeline();
    Volume Vol(*Pipeline, {BlockCount});
    JournaledVolume Jv(Vol, *Pipeline, configOf());
    for (std::uint64_t Op = 0; Op < 6; ++Op) {
      const ByteVector Data = blockOf(Op);
      ASSERT_TRUE(
          Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
    }
  }
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  ASSERT_TRUE(
      recoverVolume(JournalPath, CheckpointPath, *Pipeline, Vol).ok());

  JournaledVolume Jv(Vol, *Pipeline, configOf());
  ASSERT_TRUE(Jv.ctorStatus().ok()); // truncates the log...
  ASSERT_TRUE(Jv.checkpoint().ok()); // ...so anchor the state first
  const ByteVector Data = blockOf(42);
  ASSERT_TRUE(Jv.writeBlocks(20, ByteSpan(Data.data(), Data.size())).ok());
  const ByteVector Dup = blockOf(0); // duplicate of recovered content
  ASSERT_TRUE(Jv.writeBlocks(21, ByteSpan(Dup.data(), Dup.size())).ok());
  // Dedup continued across the crash: the duplicate shares the
  // recovered chunk.
  EXPECT_EQ(Vol.mapping()[21], Vol.mapping()[0]);

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
  ASSERT_TRUE(Report.ok()) << Report.St.message();
  EXPECT_TRUE(Report.CheckpointLoaded);
  EXPECT_EQ(readAll(Restored), readAll(Vol));
}

TEST_F(JournalFixture, SnapshotIdCounterSurvivesCheckpointAfterDelete) {
  // Create-then-delete advances the snapshot-id counter without
  // leaving a live snapshot for the checkpoint to derive it from; the
  // checkpoint must persist the counter itself so an acknowledged
  // post-checkpoint SnapshotCreate replays with the recorded id
  // instead of reissuing the deleted one.
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf());
  const ByteVector Data = blockOf(1);
  ASSERT_TRUE(Jv.writeBlocks(0, ByteSpan(Data.data(), Data.size())).ok());
  Volume::SnapshotId First = 0;
  ASSERT_TRUE(Jv.createSnapshot(&First).ok());
  ASSERT_TRUE(Jv.deleteSnapshot(First).ok());
  ASSERT_TRUE(Jv.checkpoint().ok());

  Volume::SnapshotId Second = 0;
  ASSERT_TRUE(Jv.createSnapshot(&Second).ok());
  EXPECT_EQ(Second, First + 1);

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
  ASSERT_TRUE(Report.ok()) << Report.St.message();
  EXPECT_TRUE(Report.CheckpointLoaded);
  EXPECT_EQ(Report.ReplayedRecords, 1u); // the post-checkpoint create
  EXPECT_EQ(Restored.snapshotIds(),
            std::vector<Volume::SnapshotId>{Second});
  EXPECT_EQ(Restored.nextSnapshotId(), Vol.nextSnapshotId());
  EXPECT_EQ(readAll(Restored), readAll(Vol));
}

//===--------------------------------------------------------------------===//
// Corruption sweeps — typed errors, never crashes
//===--------------------------------------------------------------------===//

TEST_F(JournalFixture, GarbageTailAfterCommittedRecordsIsDiscarded) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf());
  for (std::uint64_t Op = 0; Op < 6; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  const ByteVector Before = readAll(Vol);

  ByteVector Garbage(37);
  Random Rng(1234);
  Rng.fillBytes(Garbage.data(), Garbage.size());
  appendToFile(JournalPath, ByteSpan(Garbage.data(), Garbage.size()));

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
  ASSERT_TRUE(Report.ok()) << Report.St.message();
  EXPECT_EQ(Report.DiscardedTailBytes, Garbage.size());
  EXPECT_EQ(Report.ReplayedRecords, 6u);
  EXPECT_EQ(readAll(Restored), Before);
}

TEST_F(JournalFixture, JournalBitFlipSweepNeverCrashes) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf());
  for (std::uint64_t Op = 0; Op < 4; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  const ByteVector Pristine = slurp(JournalPath);
  ASSERT_FALSE(Pristine.empty());

  for (std::size_t Offset = 0; Offset < Pristine.size();
       Offset += 211) { // prime stride keeps the sweep affordable
    ByteVector Flipped = Pristine;
    Flipped[Offset] ^= 0x40;
    dump(JournalPath, ByteSpan(Flipped.data(), Flipped.size()));

    auto FreshPipe = makePipeline();
    Volume Restored(*FreshPipe, {BlockCount});
    const RecoveryReport Report =
        recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
    if (Report.ok()) {
      // A flip in the tail truncates the log there: the replayed
      // prefix must still read back cleanly.
      EXPECT_LE(Report.ReplayedRecords, 4u);
      readAll(Restored);
    } else {
      EXPECT_NE(Report.St.code(), ErrorCode::Ok);
    }
  }
}

TEST_F(JournalFixture, JournalTruncationSweepNeverCrashes) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf());
  for (std::uint64_t Op = 0; Op < 4; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  const ByteVector Pristine = slurp(JournalPath);

  for (std::size_t Keep = 0; Keep <= Pristine.size(); Keep += 97) {
    dump(JournalPath, ByteSpan(Pristine.data(), Keep));
    auto FreshPipe = makePipeline();
    Volume Restored(*FreshPipe, {BlockCount});
    const RecoveryReport Report =
        recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
    if (Keep < JournalHeaderSize) {
      EXPECT_FALSE(Report.ok());
      EXPECT_EQ(Report.St.code(), ErrorCode::JournalCorrupt);
    } else if (Report.ok()) {
      EXPECT_LE(Report.ReplayedRecords, 4u);
      readAll(Restored);
    }
  }
}

TEST_F(JournalFixture, CheckpointCorruptionIsRejectedTyped) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf());
  for (std::uint64_t Op = 0; Op < 6; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  ASSERT_TRUE(Jv.checkpoint().ok());
  const ByteVector Pristine = slurp(CheckpointPath);

  for (std::size_t Offset = 0; Offset < Pristine.size(); Offset += 509) {
    ByteVector Flipped = Pristine;
    Flipped[Offset] ^= 0x01;
    dump(CheckpointPath, ByteSpan(Flipped.data(), Flipped.size()));

    auto FreshPipe = makePipeline();
    Volume Restored(*FreshPipe, {BlockCount});
    const RecoveryReport Report =
        recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
    ASSERT_FALSE(Report.ok()) << "flip at " << Offset << " accepted";
    EXPECT_EQ(Report.St.code(), ErrorCode::ImageCorrupt);
  }

  // Truncations and pure garbage are equally typed.
  dump(CheckpointPath, ByteSpan(Pristine.data(), Pristine.size() / 2));
  {
    auto FreshPipe = makePipeline();
    Volume Restored(*FreshPipe, {BlockCount});
    EXPECT_EQ(recoverVolume(JournalPath, CheckpointPath, *FreshPipe,
                            Restored)
                  .St.code(),
              ErrorCode::ImageCorrupt);
  }
  ByteVector Garbage(4096);
  Random Rng(777);
  Rng.fillBytes(Garbage.data(), Garbage.size());
  dump(CheckpointPath, ByteSpan(Garbage.data(), Garbage.size()));
  {
    auto FreshPipe = makePipeline();
    Volume Restored(*FreshPipe, {BlockCount});
    EXPECT_EQ(recoverVolume(JournalPath, CheckpointPath, *FreshPipe,
                            Restored)
                  .St.code(),
              ErrorCode::ImageCorrupt);
  }
}

TEST_F(JournalFixture, CheckpointWithRetiredMethodBlockIsStateMismatch) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf());
  for (std::uint64_t Op = 0; Op < 6; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  ASSERT_TRUE(Jv.checkpoint().ok());
  ByteVector File = slurp(CheckpointPath);

  // Rewrite the embedded image's first block to the retired method 4
  // (record header after the 40-byte superblock, then header byte 2),
  // and re-seal both the image trailer and the checkpoint trailer.
  const std::size_t Record = CheckpointPrefixSize + 40;
  const std::uint64_t Location = loadLe64(File.data() + Record);
  File[Record + 8 + 4 + 4 + Fingerprint::Size + 2] =
      static_cast<std::uint8_t>(BlockMethod::Retired);
  const std::size_t ImageEnd = File.size() - 4;
  storeLe32(File.data() + ImageEnd - 4,
            crc32c(ByteSpan(File.data() + CheckpointPrefixSize,
                            ImageEnd - 4 - CheckpointPrefixSize)));
  storeLe32(File.data() + ImageEnd, crc32c(ByteSpan(File.data(), ImageEnd)));
  dump(CheckpointPath, ByteSpan(File.data(), File.size()));

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *FreshPipe, Restored);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.St.code(), ErrorCode::StateMismatch);
  EXPECT_EQ(Report.St.detail(), Location);
  EXPECT_EQ(Restored.stats().MappedBlocks, 0u);
  EXPECT_EQ(Restored.stats().LiveChunks, 0u);
}

TEST_F(JournalFixture, CheckpointFileIsPrefixImageAndTrailer) {
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolume Jv(Vol, *Pipeline, configOf());
  for (std::uint64_t Op = 0; Op < 6; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  ASSERT_TRUE(Jv.createSnapshot().ok());
  ASSERT_TRUE(Jv.checkpoint().ok());
  const ByteVector File = slurp(CheckpointPath);

  // The image encodes in place after whatever the buffer already holds.
  ByteVector Image;
  ASSERT_TRUE(encodeVolumeImage(Vol, *Pipeline, Image).ok());
  ByteVector Framed = {1, 2, 3};
  ASSERT_TRUE(encodeVolumeImage(Vol, *Pipeline, Framed).ok());
  ASSERT_EQ(Framed.size(), 3 + Image.size());
  EXPECT_TRUE(std::equal(Image.begin(), Image.end(), Framed.begin() + 3));

  ASSERT_EQ(File.size(), CheckpointPrefixSize + Image.size() + 4);
  EXPECT_EQ(loadLe64(File.data()), CheckpointMagic);
  EXPECT_EQ(loadLe32(File.data() + 8), CheckpointVersion);
  EXPECT_EQ(loadLe64(File.data() + 12), Jv.committedSeq());
  EXPECT_EQ(loadLe64(File.data() + 20), Image.size());
  EXPECT_TRUE(std::equal(Image.begin(), Image.end(),
                         File.begin() + CheckpointPrefixSize));
  EXPECT_EQ(loadLe32(File.data() + File.size() - 4),
            crc32c(ByteSpan(File.data(), File.size() - 4)));
}

TEST_F(JournalFixture, GarbageJournalFileIsRejectedTyped) {
  ByteVector Garbage(2048);
  Random Rng(55);
  Rng.fillBytes(Garbage.data(), Garbage.size());
  dump(JournalPath, ByteSpan(Garbage.data(), Garbage.size()));

  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  const RecoveryReport Report =
      recoverVolume(JournalPath, CheckpointPath, *Pipeline, Vol);
  EXPECT_FALSE(Report.ok());
  EXPECT_EQ(Report.St.code(), ErrorCode::JournalCorrupt);
}

//===--------------------------------------------------------------------===//
// Format-level invariants
//===--------------------------------------------------------------------===//

TEST(JournalFormat, SequenceGapIsCorruptNotTorn) {
  ByteVector File;
  JournalHeader Header;
  Header.ChunkSize = BlockSize;
  Header.BlockCount = BlockCount;
  encodeJournalHeader(Header, File);
  JournalRecord A;
  A.Seq = 1;
  A.Type = RecordType::Trim;
  encodeRecord(A, File);
  JournalRecord B;
  B.Seq = 3; // gap: 2 is missing
  B.Type = RecordType::Trim;
  encodeRecord(B, File);

  const auto Scan = scanJournal(ByteSpan(File.data(), File.size()));
  ASSERT_FALSE(Scan.ok());
  EXPECT_EQ(Scan.status().code(), ErrorCode::JournalCorrupt);
}

TEST(JournalFormat, CrcValidGarbagePayloadIsCorruptNotTorn) {
  ByteVector File;
  JournalHeader Header;
  Header.ChunkSize = BlockSize;
  Header.BlockCount = BlockCount;
  encodeJournalHeader(Header, File);
  // A frame whose CRC verifies but whose payload is nonsense (record
  // type 200): tearing cannot produce this.
  ByteVector Payload;
  std::uint8_t SeqBytes[8];
  storeLe64(SeqBytes, 1);
  Payload.insert(Payload.end(), SeqBytes, SeqBytes + 8);
  Payload.push_back(200);
  std::uint8_t Frame[8];
  storeLe32(Frame, static_cast<std::uint32_t>(Payload.size()));
  storeLe32(Frame + 4, crc32c(ByteSpan(Payload.data(), Payload.size())));
  File.insert(File.end(), Frame, Frame + 8);
  appendBytes(File, ByteSpan(Payload.data(), Payload.size()));

  const auto Scan = scanJournal(ByteSpan(File.data(), File.size()));
  ASSERT_FALSE(Scan.ok());
  EXPECT_EQ(Scan.status().code(), ErrorCode::JournalCorrupt);
}

TEST(JournalFormat, HugeElementCountsFailTypedWithoutAllocating) {
  // A CRC-valid WriteBatch whose chunk count claims ~4e9 elements: the
  // decoder must clamp its reservations to what the payload could
  // actually hold and report corruption, not die in std::bad_alloc.
  ByteVector File;
  JournalHeader Header;
  Header.ChunkSize = BlockSize;
  Header.BlockCount = BlockCount;
  encodeJournalHeader(Header, File);
  ByteVector Payload;
  std::uint8_t SeqBytes[8];
  storeLe64(SeqBytes, 1);
  Payload.insert(Payload.end(), SeqBytes, SeqBytes + 8);
  Payload.push_back(0); // RecordType::WriteBatch
  std::uint8_t CountBytes[4];
  storeLe32(CountBytes, 0xFFFFFFFFu);
  Payload.insert(Payload.end(), CountBytes, CountBytes + 4);
  std::uint8_t Frame[8];
  storeLe32(Frame, static_cast<std::uint32_t>(Payload.size()));
  storeLe32(Frame + 4, crc32c(ByteSpan(Payload.data(), Payload.size())));
  File.insert(File.end(), Frame, Frame + 8);
  appendBytes(File, ByteSpan(Payload.data(), Payload.size()));

  const auto Scan = scanJournal(ByteSpan(File.data(), File.size()));
  ASSERT_FALSE(Scan.ok());
  EXPECT_EQ(Scan.status().code(), ErrorCode::JournalCorrupt);
}

TEST(JournalFormat, EveryCutOfTheTailIsTornNotCorrupt) {
  ByteVector File;
  JournalHeader Header;
  Header.ChunkSize = BlockSize;
  Header.BlockCount = BlockCount;
  encodeJournalHeader(Header, File);
  std::vector<std::size_t> FrameEnds;
  for (std::uint64_t Seq = 1; Seq <= 3; ++Seq) {
    JournalRecord Record;
    Record.Seq = Seq;
    Record.Type = RecordType::Trim;
    Record.Lba = Seq;
    Record.Count = 1;
    encodeRecord(Record, File);
    FrameEnds.push_back(File.size());
  }

  for (std::size_t Cut = JournalHeaderSize; Cut <= File.size(); ++Cut) {
    const auto Scan = scanJournal(ByteSpan(File.data(), Cut));
    ASSERT_TRUE(Scan.ok()) << "cut at " << Cut;
    std::size_t ExpectRecords = 0;
    for (const std::size_t End : FrameEnds)
      ExpectRecords += End <= Cut;
    EXPECT_EQ(Scan->Records.size(), ExpectRecords) << "cut at " << Cut;
    const bool CleanCut = Cut == JournalHeaderSize ||
                          Cut == FrameEnds[0] || Cut == FrameEnds[1] ||
                          Cut == FrameEnds[2];
    EXPECT_EQ(Scan->TornBytes > 0, !CleanCut) << "cut at " << Cut;
  }
}

//===--------------------------------------------------------------------===//
// Observability and modelled time
//===--------------------------------------------------------------------===//

TEST_F(JournalFixture, MetricsCountRecordsCommitsAndReplay) {
  obs::MetricsRegistry Metrics;
  auto Pipeline = makePipeline();
  Volume Vol(*Pipeline, {BlockCount});
  JournaledVolumeConfig Config = configOf(/*GroupCommitOps=*/2);
  Config.Metrics = &Metrics;
  JournaledVolume Jv(Vol, *Pipeline, Config);

  for (std::uint64_t Op = 0; Op < 8; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  ASSERT_TRUE(Jv.checkpoint().ok());
  EXPECT_EQ(Metrics.counter("padre_journal_records_total").value(), 8u);
  EXPECT_EQ(Metrics.counter("padre_journal_commits_total").value(), 4u);
  EXPECT_GT(Metrics.counter("padre_journal_bytes_total").value(), 0u);
  EXPECT_EQ(Metrics.counter("padre_journal_checkpoints_total").value(), 1u);

  const ByteVector Tail = blockOf(99);
  ASSERT_TRUE(Jv.writeBlocks(9, ByteSpan(Tail.data(), Tail.size())).ok());
  ASSERT_TRUE(Jv.sync().ok());

  auto FreshPipe = makePipeline();
  Volume Restored(*FreshPipe, {BlockCount});
  const RecoveryReport Report = recoverVolume(
      JournalPath, CheckpointPath, *FreshPipe, Restored, &Metrics);
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Metrics.counter("padre_journal_replayed_records_total").value(),
            Report.ReplayedRecords);
}

TEST_F(JournalFixture, JournalingChargesModelledSsdTime) {
  // Same workload, with and without the journal: the journaled run
  // must charge strictly more SSD time (the commit appends), and the
  // overhead must be far below the data path itself.
  auto Plain = makePipeline();
  Volume PlainVol(*Plain, {BlockCount});
  for (std::uint64_t Op = 0; Op < 16; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(PlainVol.writeBlocks(Op, ByteSpan(Data.data(), Data.size())));
  }
  const double PlainUs = Plain->ledger().busyMicros(Resource::Ssd);

  auto Journaled = makePipeline();
  Volume JournaledVol(*Journaled, {BlockCount});
  JournaledVolume Jv(JournaledVol, *Journaled, configOf());
  for (std::uint64_t Op = 0; Op < 16; ++Op) {
    const ByteVector Data = blockOf(Op);
    ASSERT_TRUE(Jv.writeBlocks(Op, ByteSpan(Data.data(), Data.size())).ok());
  }
  const double JournaledUs = Journaled->ledger().busyMicros(Resource::Ssd);

  EXPECT_GT(JournaledUs, PlainUs);
  // Metadata-only commits: the journal adds well under 100% overhead
  // on a 4 KiB-block write path.
  EXPECT_LT(JournaledUs, PlainUs * 2.0);
}
