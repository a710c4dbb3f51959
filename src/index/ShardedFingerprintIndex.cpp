//===----------------------------------------------------------------------===//
///
/// \file
/// Prefix-sharded fingerprint index implementation, plus the factory
/// that picks between it and the plain bin index.
///
//===----------------------------------------------------------------------===//

#include "index/ShardedFingerprintIndex.h"

#include <algorithm>
#include <cassert>

using namespace padre;

ShardedFingerprintIndex::ShardedFingerprintIndex(
    const DedupIndexConfig &Config) {
  DedupIndexConfig ShardConfig = Config;
  ShardConfig.Shards = 1;
  const std::uint32_t BinCount = 1u << Config.BinBits;
  const unsigned Count = static_cast<unsigned>(
      std::clamp<std::uint64_t>(Config.Shards, 1, BinCount));
  Shards.reserve(Count);
  for (unsigned S = 0; S < Count; ++S)
    Shards.push_back(std::make_unique<DedupIndex>(ShardConfig));
}

const BinLayout &ShardedFingerprintIndex::layout() const {
  return Shards.front()->layout();
}

unsigned ShardedFingerprintIndex::shardOfBin(std::uint32_t Bin) const {
  const std::uint64_t BinCount = layout().binCount();
  return static_cast<unsigned>(static_cast<std::uint64_t>(Bin) *
                               Shards.size() / BinCount);
}

void ShardedFingerprintIndex::processBatch(
    std::span<const Fingerprint> Fingerprints,
    std::span<const std::uint64_t> Locations,
    std::span<const std::uint8_t> KnownDuplicate, ThreadPool &Pool,
    std::span<LookupResult> Results, std::vector<FlushEvent> &FlushOut) {
  const std::size_t Count = Fingerprints.size();
  assert(Locations.size() == Count && Results.size() == Count &&
         "Batch arrays disagree");
  if (Count == 0)
    return;
  if (Shards.size() == 1) {
    Shards.front()->processBatch(Fingerprints, Locations, KnownDuplicate,
                                 Pool, Results, FlushOut);
    return;
  }

  // Partition item indices by shard with a counting sort over arena
  // scratch, preserving stream order within each shard — the per-bin
  // probe order (and thus every outcome) is then identical to the
  // unsharded index's.
  BatchScratch.reset();
  std::span<std::size_t> CountPerShard =
      BatchScratch.allocateFilled<std::size_t>(Shards.size(), 0);
  for (std::size_t I = 0; I < Count; ++I)
    ++CountPerShard[shardOfBin(layout().binOf(Fingerprints[I]))];
  std::span<std::size_t> ShardOffset =
      BatchScratch.allocateSpan<std::size_t>(Shards.size());
  std::size_t Offset = 0;
  for (std::size_t S = 0; S < Shards.size(); ++S) {
    ShardOffset[S] = Offset;
    Offset += CountPerShard[S];
  }
  std::span<std::uint32_t> ItemsByShard =
      BatchScratch.allocateSpan<std::uint32_t>(Count);
  {
    std::span<std::size_t> Cursor =
        BatchScratch.allocateSpan<std::size_t>(Shards.size());
    for (std::size_t S = 0; S < Shards.size(); ++S)
      Cursor[S] = ShardOffset[S];
    for (std::size_t I = 0; I < Count; ++I) {
      const unsigned S = shardOfBin(layout().binOf(Fingerprints[I]));
      ItemsByShard[Cursor[S]++] = static_cast<std::uint32_t>(I);
    }
  }

  // Shards run one after another (each inner batch is bin-parallel on
  // the pool already); flush events therefore land in shard order.
  std::span<Fingerprint> SubFps =
      BatchScratch.allocateSpan<Fingerprint>(Count);
  std::span<std::uint64_t> SubLocations =
      BatchScratch.allocateSpan<std::uint64_t>(Count);
  std::span<std::uint8_t> SubKnown =
      BatchScratch.allocateSpan<std::uint8_t>(Count);
  std::span<LookupResult> SubResults =
      BatchScratch.allocateSpan<LookupResult>(Count);
  for (std::size_t S = 0; S < Shards.size(); ++S) {
    const std::span<const std::uint32_t> Items =
        ItemsByShard.subspan(ShardOffset[S], CountPerShard[S]);
    if (Items.empty())
      continue;
    for (std::size_t J = 0; J < Items.size(); ++J) {
      SubFps[J] = Fingerprints[Items[J]];
      SubLocations[J] = Locations[Items[J]];
      if (!KnownDuplicate.empty())
        SubKnown[J] = KnownDuplicate[Items[J]];
    }
    for (std::size_t J = 0; J < Items.size(); ++J)
      SubResults[J] = LookupResult();
    Shards[S]->processBatch(
        SubFps.first(Items.size()), SubLocations.first(Items.size()),
        KnownDuplicate.empty()
            ? std::span<const std::uint8_t>()
            : std::span<const std::uint8_t>(SubKnown.first(Items.size())),
        Pool, SubResults.first(Items.size()), FlushOut);
    for (std::size_t J = 0; J < Items.size(); ++J) {
      // DupGpu items keep their caller-resolved location; mirror the
      // unsharded contract of leaving Results[Item].Location intact.
      if (SubResults[J].Outcome == LookupOutcome::DupGpu)
        Results[Items[J]].Outcome = LookupOutcome::DupGpu;
      else
        Results[Items[J]] = SubResults[J];
    }
  }
}

std::optional<std::uint64_t>
ShardedFingerprintIndex::lookup(const Fingerprint &Fp) const {
  return Shards[shardOfBin(layout().binOf(Fp))]->lookup(Fp);
}

bool ShardedFingerprintIndex::remove(const Fingerprint &Fp) {
  return Shards[shardOfBin(layout().binOf(Fp))]->remove(Fp);
}

LookupResult
ShardedFingerprintIndex::upsert(const Fingerprint &Fp,
                                std::uint64_t Location,
                                std::vector<FlushEvent> &FlushOut) {
  return Shards[shardOfBin(layout().binOf(Fp))]->upsert(Fp, Location,
                                                        FlushOut);
}

void ShardedFingerprintIndex::flushAll(std::vector<FlushEvent> &FlushOut) {
  // Shard order = ascending bin order, matching the unsharded drain.
  for (std::unique_ptr<DedupIndex> &Shard : Shards)
    Shard->flushAll(FlushOut);
}

std::uint64_t ShardedFingerprintIndex::bufferHits() const {
  std::uint64_t Total = 0;
  for (const std::unique_ptr<DedupIndex> &Shard : Shards)
    Total += Shard->bufferHits();
  return Total;
}

std::uint64_t ShardedFingerprintIndex::treeHits() const {
  std::uint64_t Total = 0;
  for (const std::unique_ptr<DedupIndex> &Shard : Shards)
    Total += Shard->treeHits();
  return Total;
}

std::uint64_t ShardedFingerprintIndex::gpuHits() const {
  std::uint64_t Total = 0;
  for (const std::unique_ptr<DedupIndex> &Shard : Shards)
    Total += Shard->gpuHits();
  return Total;
}

std::uint64_t ShardedFingerprintIndex::uniqueInserts() const {
  std::uint64_t Total = 0;
  for (const std::unique_ptr<DedupIndex> &Shard : Shards)
    Total += Shard->uniqueInserts();
  return Total;
}

std::uint64_t ShardedFingerprintIndex::evictions() const {
  std::uint64_t Total = 0;
  for (const std::unique_ptr<DedupIndex> &Shard : Shards)
    Total += Shard->evictions();
  return Total;
}

std::size_t ShardedFingerprintIndex::treeEntries() const {
  std::size_t Total = 0;
  for (const std::unique_ptr<DedupIndex> &Shard : Shards)
    Total += Shard->treeEntries();
  return Total;
}

std::size_t ShardedFingerprintIndex::memoryBytes() const {
  std::size_t Total = 0;
  for (const std::unique_ptr<DedupIndex> &Shard : Shards)
    Total += Shard->memoryBytes();
  return Total;
}

IndexShardStats ShardedFingerprintIndex::shardStats(unsigned Shard) const {
  assert(Shard < Shards.size() && "Shard id out of range");
  IndexShardStats Stats = Shards[Shard]->shardStats(0);
  // Report the bin range this shard actually owns, not the inner
  // index's full (mostly idle) bin space.
  const std::uint64_t BinCount = layout().binCount();
  Stats.BinBegin = static_cast<std::uint32_t>(
      (Shard * BinCount + Shards.size() - 1) / Shards.size());
  Stats.BinEnd = static_cast<std::uint32_t>(
      ((Shard + 1) * BinCount + Shards.size() - 1) / Shards.size());
  return Stats;
}

std::unique_ptr<FingerprintIndex>
padre::makeFingerprintIndex(const DedupIndexConfig &Config) {
  if (Config.Shards <= 1)
    return std::make_unique<DedupIndex>(Config);
  return std::make_unique<ShardedFingerprintIndex>(Config);
}
