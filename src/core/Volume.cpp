//===----------------------------------------------------------------------===//
///
/// \file
/// LBA volume implementation.
///
//===----------------------------------------------------------------------===//

#include "core/Volume.h"

#include "restore/ReadPipeline.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace padre;

Volume::Volume(ReductionPipeline &Pipeline, const VolumeConfig &Config,
               std::shared_ptr<ChunkRefTracker> Tracker)
    : Pipeline(Pipeline), Config(Config),
      BlockSize(Pipeline.config().ChunkSize),
      SharedTracker(Tracker != nullptr),
      Tracker(Tracker ? std::move(Tracker)
                      : std::make_shared<ChunkRefTracker>()),
      Mapping(Config.BlockCount, Unmapped) {
  assert(Config.BlockCount > 0 && "Empty volume");
  assert(Pipeline.config().Chunking == ChunkingMode::Fixed &&
         "LBA volumes require fixed-size chunking");
}

bool Volume::writeBlocks(std::uint64_t Lba, ByteSpan Data,
                         std::vector<ChunkWriteInfo> *InfoOut) {
  return writeBlocksImpl(Lba, Data, /*Raw=*/false, InfoOut);
}

bool Volume::writeBlocksRaw(std::uint64_t Lba, ByteSpan Data) {
  return writeBlocksImpl(Lba, Data, /*Raw=*/true, nullptr);
}

bool Volume::writeBlocksImpl(std::uint64_t Lba, ByteSpan Data, bool Raw,
                             std::vector<ChunkWriteInfo> *InfoOut) {
  assert(Data.size() % BlockSize == 0 &&
         "Writes must be whole blocks (primary-storage granularity)");
  const std::uint64_t Blocks = Data.size() / BlockSize;
  if (Lba + Blocks > Config.BlockCount || Lba + Blocks < Lba)
    return false;

  std::vector<ChunkWriteInfo> Infos;
  Infos.reserve(Blocks);
  if (Raw)
    Pipeline.writeRaw(Data, &Infos);
  else
    Pipeline.write(Data, &Infos);
  assert(Infos.size() == Blocks && "Pipeline chunking disagrees");

  applyChunkWrites(Lba, Infos);
  if (InfoOut)
    InfoOut->insert(InfoOut->end(), Infos.begin(), Infos.end());
  return true;
}

void Volume::applyChunkWrites(std::uint64_t Lba,
                              std::span<const ChunkWriteInfo> Infos) {
  assert(Lba + Infos.size() <= Config.BlockCount && "Range not admitted");
  for (std::size_t I = 0; I < Infos.size(); ++I) {
    // Reference the (new or shared) chunk before dropping the old one
    // so an overwrite-with-identical-content never hits zero refs.
    Tracker->reference(Infos[I]);
    std::uint64_t &Slot = Mapping[Lba + I];
    const std::uint64_t Old = Slot;
    Slot = Infos[I].Location;
    if (Old != Unmapped)
      Tracker->dereference(Old);
  }
}

bool Volume::applyMappingUpdate(std::uint64_t Lba, std::uint64_t Location,
                                const Fingerprint &Fp, bool FreshChunk) {
  if (Lba >= Config.BlockCount)
    return false;
  ChunkWriteInfo Info;
  Info.Location = Location;
  Info.Fp = Fp;
  // A dedup hit replayed onto a dead-but-resident chunk is a revival,
  // exactly as on the original write path; a fresh chunk is not.
  Info.Outcome = FreshChunk ? LookupOutcome::Unique : LookupOutcome::DupTree;
  Tracker->reference(Info);
  std::uint64_t &Slot = Mapping[Lba];
  const std::uint64_t Old = Slot;
  Slot = Location;
  if (Old != Unmapped)
    Tracker->dereference(Old);
  return true;
}

std::optional<ByteVector> Volume::readBlocks(std::uint64_t Lba,
                                             std::uint64_t Count,
                                             restore::ReadPipeline *Engine) {
  return readMapped(Mapping, Lba, Count, Engine);
}

std::optional<ByteVector>
Volume::readMapped(const std::vector<std::uint64_t> &Map, std::uint64_t Lba,
                   std::uint64_t Count, restore::ReadPipeline *Engine) {
  if (Lba + Count > Map.size() || Lba + Count < Lba)
    return std::nullopt;

  // Gather the mapped blocks' locations; unmapped blocks contribute
  // zeros without touching the restore engine.
  std::vector<std::uint64_t> Locations;
  Locations.reserve(Count);
  for (std::uint64_t I = 0; I < Count; ++I)
    if (Map[Lba + I] != Unmapped)
      Locations.push_back(Map[Lba + I]);

  // Chunks arrive in mapping order; a failed read delivers an empty
  // chunk, which fails the geometry check.
  ByteVector Out(Count * BlockSize, std::uint8_t{0});
  std::uint64_t Block = 0;
  bool Complete = true;
  restore::ReadPipeline &Reads = Engine ? *Engine : Pipeline.reader();
  Reads.visitLocations(Locations, [&](std::size_t, const ByteVector &Chunk) {
    while (Map[Lba + Block] == Unmapped)
      ++Block;
    if (Chunk.size() == BlockSize)
      std::memcpy(Out.data() + Block * BlockSize, Chunk.data(), BlockSize);
    else
      Complete = false;
    ++Block;
  });
  if (!Complete)
    return std::nullopt;
  return Out;
}

bool Volume::trim(std::uint64_t Lba, std::uint64_t Count) {
  if (Lba + Count > Config.BlockCount || Lba + Count < Lba)
    return false;
  for (std::uint64_t I = 0; I < Count; ++I) {
    std::uint64_t &Slot = Mapping[Lba + I];
    if (Slot == Unmapped)
      continue;
    Tracker->dereference(Slot);
    Slot = Unmapped;
  }
  return true;
}

std::size_t Volume::collectGarbage() {
  return Tracker->collectGarbage(Pipeline);
}

Volume::SnapshotId Volume::createSnapshot() {
  // Reference every mapped chunk on the snapshot's behalf. The
  // fingerprint is already tracked; re-referencing by location only.
  for (std::uint64_t Location : Mapping) {
    if (Location == Unmapped)
      continue;
    const auto Fp = Tracker->fingerprintOf(Location);
    assert(Fp.has_value() && "Mapped chunk without a ref record");
    ChunkWriteInfo Info;
    Info.Location = Location;
    Info.Fp = *Fp;
    Info.Outcome = LookupOutcome::DupTree; // an existing chunk
    Tracker->reference(Info);
  }
  const SnapshotId Id = NextSnapshotId++;
  Snapshots.emplace_back(Id, Mapping);
  return Id;
}

bool Volume::deleteSnapshot(SnapshotId Id) {
  for (auto It = Snapshots.begin(); It != Snapshots.end(); ++It) {
    if (It->first != Id)
      continue;
    for (std::uint64_t Location : It->second)
      if (Location != Unmapped)
        Tracker->dereference(Location);
    Snapshots.erase(It);
    return true;
  }
  return false;
}

std::optional<ByteVector>
Volume::readSnapshotBlocks(SnapshotId Id, std::uint64_t Lba,
                           std::uint64_t Count,
                           restore::ReadPipeline *Engine) {
  for (const auto &[SnapId, Map] : Snapshots)
    if (SnapId == Id)
      return readMapped(Map, Lba, Count, Engine);
  return std::nullopt;
}

std::vector<Volume::SnapshotId> Volume::snapshotIds() const {
  std::vector<SnapshotId> Ids;
  Ids.reserve(Snapshots.size());
  for (const auto &[Id, Map] : Snapshots)
    Ids.push_back(Id);
  return Ids;
}

Volume::ScrubReport Volume::scrub() {
  ScrubReport Report;
  const std::vector<ChunkRecord> Records = Tracker->records();
  const std::vector<ScrubOutcome> Outcomes =
      Pipeline.scrub(Records, /*Repair=*/false);
  Report.ChunksScanned = Records.size();
  for (std::size_t I = 0; I < Records.size(); ++I)
    if (Outcomes[I] != ScrubOutcome::Healthy)
      Report.BadLocations.push_back(Records[I].Location);
  Report.CorruptChunks = Report.BadLocations.size();
  std::sort(Report.BadLocations.begin(), Report.BadLocations.end());
  return Report;
}

Volume::ScrubRepairReport Volume::scrubAndRepair() {
  ScrubRepairReport Report;
  const std::vector<ChunkRecord> Records = Tracker->records();
  const std::vector<ScrubOutcome> Outcomes =
      Pipeline.scrub(Records, /*Repair=*/true);
  Report.ChunksScanned = Records.size();
  for (std::size_t I = 0; I < Records.size(); ++I) {
    switch (Outcomes[I]) {
    case ScrubOutcome::Healthy:
      break;
    case ScrubOutcome::Repaired:
      ++Report.CorruptChunks;
      ++Report.RepairedChunks;
      break;
    case ScrubOutcome::Lost:
      ++Report.CorruptChunks;
      ++Report.LostChunks;
      Report.LostLocations.push_back(Records[I].Location);
      break;
    }
  }
  std::sort(Report.LostLocations.begin(), Report.LostLocations.end());
  return Report;
}

VolumeStats Volume::stats() const {
  VolumeStats Stats;
  for (std::uint64_t Location : Mapping)
    Stats.MappedBlocks += Location != Unmapped;
  Stats.LiveChunks = Tracker->liveChunks();
  Stats.DeadChunks = Tracker->deadChunks();
  Stats.LogicalBytes = Stats.MappedBlocks * BlockSize;
  Stats.PhysicalBytes = Pipeline.store().storedBytes();
  Stats.RevivedChunks = Tracker->revivedChunks();
  Stats.CollectedChunks = Tracker->collectedChunks();
  Stats.Snapshots = Snapshots.size();
  return Stats;
}

std::uint32_t Volume::refCount(std::uint64_t Location) const {
  return Tracker->refCount(Location);
}

bool Volume::restoreState(std::vector<std::uint64_t> NewMapping,
                          const std::vector<ChunkRecord> &Records,
                          SnapshotTable NewSnapshots, SnapshotId NextId) {
  if (SharedTracker)
    return false; // would clobber the other domain members' references
  if (NewMapping.size() != Config.BlockCount)
    return false;
  for (const auto &[Id, Map] : NewSnapshots)
    if (Map.size() != Config.BlockCount)
      return false;
  Mapping = std::move(NewMapping);
  Snapshots = std::move(NewSnapshots);
  // The counter is monotonic across deletes: the persisted value wins
  // whenever it is ahead of the live table (a deleted snapshot leaves
  // no trace there, yet its id must never be reissued — journal replay
  // validates replayed ids against the recorded ones).
  NextSnapshotId = std::max<SnapshotId>(NextId, 1);
  for (const auto &[Id, Map] : Snapshots)
    NextSnapshotId = std::max(NextSnapshotId, Id + 1);
  Tracker->restore(Records);
  return true;
}
