//===----------------------------------------------------------------------===//
///
/// \file
/// Dedup index facade implementation.
///
//===----------------------------------------------------------------------===//

#include "index/DedupIndex.h"

#include <cassert>

using namespace padre;

DedupIndex::DedupIndex(const DedupIndexConfig &Config)
    : Layout(Config.BinBits), Config(Config),
      Buffer(Layout, Config.BufferCapacityPerBin),
      Tree(Layout, Config.MaxEntriesPerBin, Config.Seed) {}

LookupResult DedupIndex::processOne(std::uint32_t Bin, const Fingerprint &Fp,
                                    std::uint64_t Location,
                                    std::vector<FlushEvent> &LocalFlush) {
  std::uint8_t Suffix[Fingerprint::Size];
  Layout.extractSuffix(Fp, Suffix);

  // Paper lookup order (§3.3): bin buffer first — "recently updated
  // chunks can reside in the bin buffer and chunks are more likely to
  // find duplicates in the bin buffer due to temporal locality".
  std::size_t Depth = 0;
  if (auto Hit = Buffer.lookup(Bin, Suffix, &Depth)) {
    BufferHits.fetch_add(1, std::memory_order_relaxed);
    return LookupResult{LookupOutcome::DupBuffer, *Hit,
                        static_cast<std::uint32_t>(Depth)};
  }
  if (auto Hit = Tree.lookup(Bin, Suffix)) {
    TreeHits.fetch_add(1, std::memory_order_relaxed);
    return LookupResult{LookupOutcome::DupTree, *Hit, 0};
  }

  // Unique chunk: stage it in the bin buffer; drain on fill.
  UniqueInserts.fetch_add(1, std::memory_order_relaxed);
  const bool Full = Buffer.insert(Bin, Suffix, Location);
  if (Full) {
    FlushEvent Event;
    Event.Bin = Bin;
    Buffer.drain(Bin, Event.Suffixes, Event.Locations);
    const std::size_t Evicted =
        Tree.mergeRun(Bin, ByteSpan(Event.Suffixes.data(),
                                    Event.Suffixes.size()),
                      Event.Locations);
    Evictions.fetch_add(Evicted, std::memory_order_relaxed);
    LocalFlush.push_back(std::move(Event));
  }
  return LookupResult{LookupOutcome::Unique, Location};
}

void DedupIndex::processBatch(std::span<const Fingerprint> Fingerprints,
                              std::span<const std::uint64_t> Locations,
                              std::span<const std::uint8_t> KnownDuplicate,
                              ThreadPool &Pool,
                              std::span<LookupResult> Results,
                              std::vector<FlushEvent> &FlushOut) {
  const std::size_t Count = Fingerprints.size();
  assert(Locations.size() == Count && Results.size() == Count &&
         "Batch arrays disagree");
  assert((KnownDuplicate.empty() || KnownDuplicate.size() == Count) &&
         "KnownDuplicate must be empty or batch-sized");
  if (Count == 0)
    return;

  // Scatter: counting-sort item indices by bin so each worker can walk
  // a contiguous run of bins.
  const std::uint32_t BinCount = Layout.binCount();
  std::vector<std::uint32_t> BinOf(Count);
  std::vector<std::uint32_t> CountPerBin(BinCount + 1, 0);
  for (std::size_t I = 0; I < Count; ++I) {
    BinOf[I] = Layout.binOf(Fingerprints[I]);
    ++CountPerBin[BinOf[I] + 1];
  }
  for (std::uint32_t B = 0; B < BinCount; ++B)
    CountPerBin[B + 1] += CountPerBin[B];
  std::vector<std::uint32_t> ItemsByBin(Count);
  {
    std::vector<std::uint32_t> Cursor(CountPerBin.begin(),
                                      CountPerBin.end() - 1);
    for (std::size_t I = 0; I < Count; ++I)
      ItemsByBin[Cursor[BinOf[I]]++] = static_cast<std::uint32_t>(I);
  }

  // Bin-parallel phase: each slice of the bin space is owned by one
  // worker, so bins (buffer + tree) need no locks.
  const unsigned Workers = Pool.size();
  std::vector<std::vector<FlushEvent>> FlushPerWorker(Workers);
  Pool.parallelForSlices(
      0, BinCount,
      [&](std::size_t BinBegin, std::size_t BinEnd, unsigned Worker) {
        std::vector<FlushEvent> &LocalFlush = FlushPerWorker[Worker];
        for (std::size_t Bin = BinBegin; Bin < BinEnd; ++Bin) {
          for (std::uint32_t Slot = CountPerBin[Bin];
               Slot < CountPerBin[Bin + 1]; ++Slot) {
            const std::uint32_t Item = ItemsByBin[Slot];
            if (!KnownDuplicate.empty() && KnownDuplicate[Item]) {
              GpuHits.fetch_add(1, std::memory_order_relaxed);
              Results[Item].Outcome = LookupOutcome::DupGpu;
              // Location already resolved by the caller from the GPU
              // metadata mirror; leave Results[Item].Location intact.
              continue;
            }
            Results[Item] =
                processOne(static_cast<std::uint32_t>(Bin),
                           Fingerprints[Item], Locations[Item], LocalFlush);
          }
        }
      });

  for (std::vector<FlushEvent> &Local : FlushPerWorker)
    for (FlushEvent &Event : Local)
      FlushOut.push_back(std::move(Event));
}

std::optional<std::uint64_t> DedupIndex::lookup(const Fingerprint &Fp) const {
  const std::uint32_t Bin = Layout.binOf(Fp);
  std::uint8_t Suffix[Fingerprint::Size];
  Layout.extractSuffix(Fp, Suffix);
  if (auto Hit = Buffer.lookup(Bin, Suffix))
    return Hit;
  return Tree.lookup(Bin, Suffix);
}

LookupResult DedupIndex::upsert(const Fingerprint &Fp,
                                std::uint64_t Location,
                                std::vector<FlushEvent> &FlushOut) {
  return processOne(Layout.binOf(Fp), Fp, Location, FlushOut);
}

bool DedupIndex::remove(const Fingerprint &Fp) {
  const std::uint32_t Bin = Layout.binOf(Fp);
  std::uint8_t Suffix[Fingerprint::Size];
  Layout.extractSuffix(Fp, Suffix);
  if (Buffer.remove(Bin, Suffix))
    return true;
  return Tree.remove(Bin, Suffix);
}

void DedupIndex::flushAll(std::vector<FlushEvent> &FlushOut) {
  for (std::uint32_t Bin = 0; Bin < Layout.binCount(); ++Bin) {
    if (Buffer.size(Bin) == 0)
      continue;
    FlushEvent Event;
    Event.Bin = Bin;
    Buffer.drain(Bin, Event.Suffixes, Event.Locations);
    const std::size_t Evicted =
        Tree.mergeRun(Bin, ByteSpan(Event.Suffixes.data(),
                                    Event.Suffixes.size()),
                      Event.Locations);
    Evictions.fetch_add(Evicted, std::memory_order_relaxed);
    FlushOut.push_back(std::move(Event));
  }
}

std::size_t DedupIndex::memoryBytes() const {
  return Tree.memoryBytes() +
         Buffer.totalEntries() * Layout.cpuEntryBytes();
}
