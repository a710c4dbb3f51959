//===----------------------------------------------------------------------===//
///
/// \file
/// Journaling frontend implementation: record construction, group
/// commit, checkpointing and the crash-point windows.
///
//===----------------------------------------------------------------------===//

#include "journal/JournaledVolume.h"

#include "persist/VolumeImage.h"

#include <cstdio>
#include <map>
#include <unordered_set>

using namespace padre;
using namespace padre::journal;
using padre::fault::CrashPoint;
using padre::fault::ErrorCode;
using padre::fault::FaultKind;
using padre::fault::Status;

JournaledVolume::JournaledVolume(Volume &Vol, ReductionPipeline &Pipeline,
                                 const JournaledVolumeConfig &Config)
    : Vol(Vol), Pipeline(Pipeline), Config(Config) {
  if (this->Config.GroupCommitOps == 0)
    this->Config.GroupCommitOps = 1;
  if (obs::MetricsRegistry *M = Config.Metrics) {
    RecordsTotal =
        &M->counter("padre_journal_records_total", "Journal records appended");
    CommitsTotal =
        &M->counter("padre_journal_commits_total", "Journal group commits");
    BytesTotal = &M->counter("padre_journal_bytes_total",
                             "Journal bytes written (framed)");
    CheckpointsTotal =
        &M->counter("padre_journal_checkpoints_total", "Checkpoints taken");
  }
  JournalHeader Header;
  Header.ChunkSize = static_cast<std::uint32_t>(Pipeline.config().ChunkSize);
  Header.BlockCount = Vol.blockCount();
  Header.BaseSeq = 1;
  CtorStatus = Journal.create(Config.JournalPath, Header);
}

std::optional<fault::InjectedFault>
JournaledVolume::crashAt(CrashPoint Point) {
  if (!Config.Faults || Halted)
    return std::nullopt;
  std::optional<fault::InjectedFault> Fault = Config.Faults->sampleCrash(Point);
  if (Fault)
    Halted = true;
  return Fault;
}

fault::Expected<std::uint64_t>
JournaledVolume::writeBlocks(std::uint64_t Lba, ByteSpan Data) {
  if (Halted)
    return Status::error(ErrorCode::Crashed);
  const std::size_t BlockSize = Vol.blockSize();
  if (BlockSize == 0 || Data.size() % BlockSize != 0)
    return Status::error(ErrorCode::StateMismatch, Data.size());
  const std::uint64_t Blocks = Data.size() / BlockSize;
  if (Lba + Blocks > Vol.blockCount() || Lba + Blocks < Lba)
    return Status::error(ErrorCode::StateMismatch, Lba);

  // Pre-write mapping snapshot: the overwritten locations feed the
  // record's refcount deltas.
  std::vector<std::uint64_t> OldLocs;
  OldLocs.reserve(Blocks);
  for (std::uint64_t I = 0; I < Blocks; ++I)
    OldLocs.push_back(Vol.mapping()[Lba + I]);

  // (1) Data destage: the pipeline stores the chunks.
  std::vector<ChunkWriteInfo> Infos;
  if (!Vol.writeBlocks(Lba, Data, &Infos))
    return Status::error(ErrorCode::StateMismatch, Lba);
  if (crashAt(CrashPoint::MidDestage))
    return Status::error(ErrorCode::Crashed);

  // (2a) Build the redo record.
  JournalRecord Record;
  Record.Type = RecordType::WriteBatch;
  std::unordered_set<std::uint64_t> Fresh;
  for (const ChunkWriteInfo &Info : Infos) {
    if (Info.Outcome != LookupOutcome::Unique ||
        !Fresh.insert(Info.Location).second)
      continue;
    const std::optional<ByteSpan> Block =
        Pipeline.store().encodedBlock(Info.Location);
    if (!Block) {
      // The destage in (1) already mutated the volume, but no record
      // will be appended for it — from here on the log diverges from
      // volume state, and any further journaled op would bake that
      // divergence into records whose replay validation must fail.
      // Fence the frontend exactly like a crash: only recovery (which
      // replays the committed prefix onto fresh state) is safe.
      Halted = true;
      return Status::error(ErrorCode::ChunkMissing, Info.Location);
    }
    NewChunk Chunk;
    Chunk.Location = Info.Location;
    Chunk.Fp = Info.Fp;
    Chunk.Encoded.assign(Block->begin(), Block->end());
    Record.Chunks.push_back(std::move(Chunk));
  }
  Record.Updates.reserve(Blocks);
  std::map<std::uint64_t, std::int64_t> DeltaMap;
  for (std::uint64_t I = 0; I < Blocks; ++I) {
    MapUpdate Update;
    Update.Lba = Lba + I;
    Update.Location = Infos[I].Location;
    Update.Fp = Infos[I].Fp;
    Record.Updates.push_back(Update);
    ++DeltaMap[Infos[I].Location];
    if (OldLocs[I] != Volume::Unmapped)
      --DeltaMap[OldLocs[I]];
  }
  for (const auto &[Location, Delta] : DeltaMap)
    if (Delta != 0)
      Record.Deltas.push_back({Location, Delta});

  return logAndMaybeCommit(std::move(Record));
}

fault::Expected<std::uint64_t> JournaledVolume::trim(std::uint64_t Lba,
                                                     std::uint64_t Count) {
  if (Halted)
    return Status::error(ErrorCode::Crashed);
  if (!Vol.trim(Lba, Count))
    return Status::error(ErrorCode::StateMismatch, Lba);
  JournalRecord Record;
  Record.Type = RecordType::Trim;
  Record.Lba = Lba;
  Record.Count = Count;
  return logAndMaybeCommit(std::move(Record));
}

fault::Expected<std::uint64_t>
JournaledVolume::createSnapshot(Volume::SnapshotId *IdOut) {
  if (Halted)
    return Status::error(ErrorCode::Crashed);
  const Volume::SnapshotId Id = Vol.createSnapshot();
  if (IdOut)
    *IdOut = Id;
  JournalRecord Record;
  Record.Type = RecordType::SnapshotCreate;
  Record.SnapshotId = Id;
  return logAndMaybeCommit(std::move(Record));
}

fault::Expected<std::uint64_t>
JournaledVolume::deleteSnapshot(Volume::SnapshotId Id) {
  if (Halted)
    return Status::error(ErrorCode::Crashed);
  if (!Vol.deleteSnapshot(Id))
    return Status::error(ErrorCode::StateMismatch, Id);
  JournalRecord Record;
  Record.Type = RecordType::SnapshotDelete;
  Record.SnapshotId = Id;
  return logAndMaybeCommit(std::move(Record));
}

fault::Expected<std::uint64_t>
JournaledVolume::collectGarbage(std::size_t *CollectedOut) {
  if (Halted)
    return Status::error(ErrorCode::Crashed);
  const std::size_t Collected = Vol.collectGarbage();
  if (CollectedOut)
    *CollectedOut = Collected;
  // Chunks are gone from the store (and, with the FTL on, their flash
  // pages invalidated) but no Gc record exists yet — recovery must
  // rebuild a consistent image from the committed prefix alone.
  if (crashAt(CrashPoint::MidGc))
    return Status::error(ErrorCode::Crashed);
  JournalRecord Record;
  Record.Type = RecordType::Gc;
  Record.Collected = Collected;
  return logAndMaybeCommit(std::move(Record));
}

fault::Expected<std::uint64_t>
JournaledVolume::logAndMaybeCommit(JournalRecord Record) {
  const std::uint64_t Seq = Journal.append(std::move(Record));
  if (RecordsTotal)
    RecordsTotal->add(1);
  if (crashAt(CrashPoint::PreCommit))
    return Status::error(ErrorCode::Crashed);
  if (Journal.pendingRecords() >= Config.GroupCommitOps)
    if (const Status St = commitPending(); !St.ok())
      return St;
  ++OpsSinceCheckpoint;
  if (Config.CheckpointEveryOps != 0 &&
      OpsSinceCheckpoint >= Config.CheckpointEveryOps)
    if (const Status St = checkpoint(); !St.ok())
      return St;
  return Seq;
}

fault::Status JournaledVolume::commitPending() {
  if (Journal.pendingRecords() == 0)
    return {};
  if (const std::optional<fault::InjectedFault> Fault =
          crashAt(CrashPoint::MidCommit)) {
    // A crash inside the flush leaves a deterministic partial tail
    // (torn-write kind) or nothing at all; either way the records
    // never became durable.
    std::size_t KeepBytes = 0;
    if (Fault->Kind == FaultKind::TornWrite && Journal.pendingBytes() > 0)
      KeepBytes = Fault->RandomBits % Journal.pendingBytes();
    Journal.tornCommit(KeepBytes);
    return Status::error(ErrorCode::Crashed);
  }
  fault::Expected<MetadataJournal::CommitInfo> Info = Journal.commit();
  if (!Info.ok())
    return Info.status();
  // The chunk payloads were already charged by the destage stage; the
  // modelled commit pays only for the metadata bytes (DESIGN.md §12).
  const Status St = Pipeline.journalWrite(Info->MetaBytes, "journal:commit");
  if (CommitsTotal)
    CommitsTotal->add(1);
  if (BytesTotal)
    BytesTotal->add(Info->FramedBytes);
  if (!St.ok())
    return St;
  if (crashAt(CrashPoint::PostCommit))
    return Status::error(ErrorCode::Crashed);
  AckedSeq = Journal.committedSeq();
  return {};
}

fault::Status JournaledVolume::sync() {
  if (Halted)
    return Status::error(ErrorCode::Crashed);
  return commitPending();
}

fault::Status JournaledVolume::checkpoint() {
  if (Halted)
    return Status::error(ErrorCode::Crashed);
  // The checkpoint covers exactly the committed prefix.
  if (const Status St = commitPending(); !St.ok())
    return St;
  const std::uint64_t Covered = Journal.committedSeq();

  ByteVector Image;
  if (const Status St = encodeVolumeImage(Vol, Pipeline, Image); !St.ok())
    return St;
  const CheckpointFrame Frame =
      frameCheckpoint(Covered, ByteSpan(Image.data(), Image.size()));

  // Temp file + rename: a crash mid-write leaves the previous
  // checkpoint intact; the torn temp file is simply ignored.
  const std::string TmpPath = Config.CheckpointPath + ".tmp";
  std::FILE *File = std::fopen(TmpPath.c_str(), "wb");
  if (!File)
    return Status::error(ErrorCode::IoError);
  const auto Put = [File](ByteSpan Bytes) {
    return std::fwrite(Bytes.data(), 1, Bytes.size(), File) == Bytes.size();
  };
  const bool Written = Put(Frame.Prefix) && Put(Image) &&
                       Put(Frame.Trailer) && std::fflush(File) == 0;
  std::fclose(File);
  if (!Written || std::rename(TmpPath.c_str(), Config.CheckpointPath.c_str()))
    return Status::error(ErrorCode::IoError);

  const Status WriteSt = Pipeline.journalWrite(
      Frame.Prefix.size() + Image.size() + Frame.Trailer.size(),
      "ckpt:write");
  if (!WriteSt.ok())
    return WriteSt;

  // Crash window: checkpoint durable, log not yet truncated. Recovery
  // skips the already-covered records.
  if (crashAt(CrashPoint::MidCheckpoint))
    return Status::error(ErrorCode::Crashed);

  if (const Status St = Journal.truncate(Covered + 1); !St.ok())
    return St;
  ++Checkpoints;
  if (CheckpointsTotal)
    CheckpointsTotal->add(1);
  OpsSinceCheckpoint = 0;
  return {};
}
