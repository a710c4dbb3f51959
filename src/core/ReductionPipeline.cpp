//===----------------------------------------------------------------------===//
///
/// \file
/// Reduction pipeline implementation.
///
//===----------------------------------------------------------------------===//

#include "core/ReductionPipeline.h"

#include "backend/AutoSplitter.h"
#include "compress/Block.h"
#include "restore/ReadPipeline.h"

#include <algorithm>
#include <cassert>

using namespace padre;

ReductionPipeline::~ReductionPipeline() = default;

ReductionPipeline::ReductionPipeline(const Platform &Platform,
                                     const PipelineConfig &Config,
                                     unsigned HostWidth)
    : Plat(Platform), Config(Config), Pool(HostWidth),
      Ssd(Platform.Model, Ledger) {
  assert(isValidCostModel(Platform.Model) && "Invalid cost model");

  switch (Config.Chunking) {
  case ChunkingMode::Fixed:
    StreamChunker = std::make_unique<FixedChunker>(Config.ChunkSize);
    break;
  case ChunkingMode::Rabin: {
    RabinConfig Cdc;
    Cdc.AvgSize = Config.ChunkSize;
    Cdc.MinSize = Config.ChunkSize / 2;
    Cdc.MaxSize = std::min<std::size_t>(Config.ChunkSize * 4, 65536);
    StreamChunker = std::make_unique<RabinChunker>(Cdc);
    break;
  }
  case ChunkingMode::FastCdc: {
    FastCdcConfig Cdc;
    Cdc.AvgSize = Config.ChunkSize;
    Cdc.MinSize = Config.ChunkSize / 2;
    Cdc.MaxSize = std::min<std::size_t>(Config.ChunkSize * 4, 65536);
    StreamChunker = std::make_unique<FastCdcChunker>(Cdc);
    break;
  }
  }

  // The compress stage's split: explicit, or forced from the mode.
  backend::BackendConfig SplitConfig;
  if (Config.Backend)
    SplitConfig = *Config.Backend;
  else
    SplitConfig.Split = modeOffloadsCompression(Config.Mode)
                            ? backend::SplitMode::GpuOnly
                            : backend::SplitMode::CpuOnly;
  // Device-capable split modes need the primary GPU even when the mode
  // is CpuOnly.
  const bool WantsGpu =
      modeOffloadsDedup(Config.Mode) ||
      modeOffloadsCompression(Config.Mode) ||
      (Config.CompressEnabled &&
       SplitConfig.Split != backend::SplitMode::CpuOnly);
  assert((!WantsGpu || Platform.Model.Gpu.Present) &&
         "GPU mode selected on a GPU-less platform");
  if (Platform.Model.Gpu.Present && WantsGpu) {
    Device = std::make_unique<GpuDevice>(Platform.Model, Ledger);
    Device->setMixedMode(Config.Mode == PipelineMode::GpuBoth);
  }

  if (Config.Ftl)
    Ssd.enableFtl(*Config.Ftl);

  const obs::ObsSinks Obs{Config.Trace, Config.Metrics};
  Ssd.setObs(Obs);
  if (Device)
    Device->setObs(Obs);
  if (Config.Faults) {
    Ssd.setFaultInjector(Config.Faults);
    if (Device)
      Device->setFaultInjector(Config.Faults);
    Config.Faults->setObs(Config.Metrics);
  }

  DedupEngineConfig DedupConfig = Config.Dedup;
  DedupConfig.GpuOffload = modeOffloadsDedup(Config.Mode);
  if (Config.DedupEnabled)
    Dedup = std::make_unique<DedupEngine>(Platform.Model, Ledger, Pool,
                                          Ssd, Device.get(), DedupConfig,
                                          Obs);

  if (Config.ReadCacheBytes != 0) {
    Cache = std::make_unique<ChunkCache>(Config.ReadCacheBytes);
    Cache->setObs(Config.Metrics);
  }

  Sched = std::make_unique<BatchScheduler>(
      Ledger, Platform.Model.Cpu.Threads,
      std::max<std::size_t>(1, Config.PipelineDepth), Device.get(), Ssd,
      Config.Trace);

  if (Config.CompressEnabled) {
    // The splitter keeps a reference to the model: hand it the member
    // copy, not the (possibly temporary) constructor argument.
    backend::AutoSplitter::Setup Setup{Plat.Model,   Ledger,
                                       Pool,         *Sched,
                                       Device.get(), Config.Compress,
                                       Obs,          Config.Faults,
                                       SplitConfig};
    Splitter = std::make_unique<backend::AutoSplitter>(Setup);
  }

  if (Config.Metrics) {
    obs::MetricsRegistry &M = *Config.Metrics;
    ChunkLatencyHist = &M.histogram(
        "padre_chunk_latency_us",
        "Per-chunk modelled service latency (microseconds)",
        1.0, 2.0, 24);
    BatchChunksHist = &M.histogram(
        "padre_batch_chunks", "Chunks per pipeline batch (occupancy)",
        1.0, 2.0, 16);
    ChunksTotal = &M.counter("padre_chunks_total",
                             "Logical chunks ingested by the pipeline");
    LogicalBytesTotal =
        &M.counter("padre_logical_bytes_total", "Logical bytes ingested");
    UniqueTotal = &M.counter("padre_unique_chunks_total",
                             "Chunks found unique (stored)");
    DupBufferTotal = &M.counter("padre_dup_chunks_total{tier=\"buffer\"}",
                                "Duplicate chunks by resolving tier");
    DupTreeTotal = &M.counter("padre_dup_chunks_total{tier=\"tree\"}",
                              "Duplicate chunks by resolving tier");
    DupGpuTotal = &M.counter("padre_dup_chunks_total{tier=\"gpu\"}",
                             "Duplicate chunks by resolving tier");
    StoredBytesTotal = &M.counter("padre_stored_bytes_total",
                                  "Bytes destaged after reduction");
    VerifyMismatchTotal =
        &M.counter("padre_verify_mismatch_total",
                   "Digest matches demoted to unique by verify-on-dedup");
    ScrubRepairedTotal =
        &M.counter("padre_scrub_repair_total{outcome=\"repaired\"}",
                   "Scrubbed chunks repaired from a verified copy");
    ScrubLostTotal =
        &M.counter("padre_scrub_repair_total{outcome=\"lost\"}",
                   "Scrubbed chunks with no trusted repair source");
  }
}

fault::Status ReductionPipeline::write(ByteSpan Stream,
                                       std::vector<ChunkWriteInfo> *InfoOut) {
  std::vector<ChunkView> Chunks;
  StreamChunker->split(Stream, LogicalBytes, Chunks);
  return writeChunks(Chunks, InfoOut, /*Raw=*/false);
}

fault::Status
ReductionPipeline::writeV(std::span<const ByteSpan> Streams,
                          std::vector<ChunkWriteInfo> *InfoOut) {
  std::vector<ChunkView> Chunks;
  std::uint64_t Offset = LogicalBytes;
  for (const ByteSpan Stream : Streams) {
    StreamChunker->split(Stream, Offset, Chunks);
    Offset += Stream.size();
  }
  return writeChunks(Chunks, InfoOut, /*Raw=*/false);
}

fault::Status
ReductionPipeline::writeRaw(ByteSpan Stream,
                            std::vector<ChunkWriteInfo> *InfoOut) {
  std::vector<ChunkView> Chunks;
  StreamChunker->split(Stream, LogicalBytes, Chunks);
  return writeChunks(Chunks, InfoOut, /*Raw=*/true);
}

fault::Status
ReductionPipeline::writeChunks(std::span<const ChunkView> Chunks,
                               std::vector<ChunkWriteInfo> *InfoOut,
                               bool Raw) {
  fault::Status First;
  for (std::size_t Begin = 0; Begin < Chunks.size();
       Begin += Config.BatchChunks) {
    const std::size_t End =
        std::min(Chunks.size(), Begin + Config.BatchChunks);
    const fault::Status St =
        processBatch(Chunks.subspan(Begin, End - Begin), InfoOut, Raw);
    if (!St.ok() && First.ok())
      First = St;
  }
  return First;
}

fault::Status
ReductionPipeline::processBatch(std::span<const ChunkView> Chunks,
                                std::vector<ChunkWriteInfo> *InfoOut,
                                bool Raw) {
  const std::size_t Count = Chunks.size();
  if (BatchChunksHist)
    BatchChunksHist->observe(static_cast<double>(Count));
  // Report-counter snapshots: the batch deltas feed the metric
  // counters at the end of the function.
  const std::uint64_t PrevUnique = UniqueChunks;
  const std::uint64_t PrevDupBuffer = DupFromBuffer;
  const std::uint64_t PrevDupTree = DupFromTree;
  const std::uint64_t PrevDupGpu = DupFromGpu;
  const std::uint64_t PrevMismatches = VerifyMismatches;
  const std::uint64_t PrevStored = StoredBytes;
  const std::uint64_t PrevLogicalBytes = LogicalBytes;

  // Admit the batch into the scheduler's in-flight window. Stages
  // still execute serially on the host (bit-exact results at every
  // depth); the brackets capture what each stage charges and replay it
  // onto the dependency-aware timeline.
  Sched->beginBatch();
  Sched->beginStage(BatchScheduler::Stage::Dedup);

  // Request-path fixed costs and endurance intent.
  {
    const obs::StageSpan Stage(Config.Trace, Ledger, "chunk");
    double OverheadMicros = 0.0;
    std::uint64_t BatchBytes = 0;
    // CDC scans every byte through a rolling hash; fixed chunking is a
    // pointer computation (the 40x factor is the gear-hash cost).
    const double ChunkingPerByteNs =
        Config.Chunking == ChunkingMode::Fixed
            ? Plat.Model.Cpu.ChunkingPerByteNs
            : Plat.Model.Cpu.ChunkingPerByteNs * 40.0;
    for (const ChunkView &Chunk : Chunks) {
      OverheadMicros += Plat.Model.Cpu.RequestOverheadUs +
                        ChunkingPerByteNs * 1e-3 *
                            static_cast<double>(Chunk.Data.size());
      BatchBytes += Chunk.Data.size();
    }
    Ledger.chargeMicros(Resource::CpuPool, OverheadMicros);
    if (!InternalWrites)
      Ssd.noteHostWrite(BatchBytes);
  }

  // Stage 1: deduplication (Fig. 1 upper half). Batch-scoped scratch
  // lives in the arena — reclaimed (and poisoned) wholesale here, so a
  // steady-state batch makes no heap calls for these arrays.
  BatchArena.reset();
  std::span<std::uint64_t> NewLocations =
      BatchArena.allocateSpan<std::uint64_t>(Count);
  for (std::size_t I = 0; I < Count; ++I)
    NewLocations[I] = NextLocation + I;

  std::vector<DedupItem> Items;
  fault::Status BatchStatus;
  {
    const obs::StageSpan Stage(Config.Trace, Ledger, "dedup");
    if (Dedup && !Raw) {
      BatchStatus = Dedup->processBatch(Chunks, NewLocations, Items);
    } else {
      // Dedup disabled (compression-only benchmarks) or a raw pass-
      // through write: every chunk is treated as unique. Raw writes
      // still fingerprint (the background reducer needs the digests).
      Items.resize(Count);
      for (std::size_t I = 0; I < Count; ++I) {
        Items[I].Outcome = LookupOutcome::Unique;
        Items[I].Location = NewLocations[I];
        if (Raw) {
          Items[I].Fp = Fingerprint::ofData(Chunks[I].Data);
          Ledger.chargeMicros(Resource::CpuPool,
                              Plat.Model.cpuHashUs(Chunks[I].Data.size()));
          Items[I].LatencyUs =
              Plat.Model.cpuHashUs(Chunks[I].Data.size());
        }
      }
    }
  }
  NextLocation += Count;

  // Verify-on-dedup: byte-compare every digest match before sharing
  // the chunk; a mismatch (collision or latent corruption) is demoted
  // to unique. A duplicate of a chunk from *this* batch compares
  // against the in-flight source (it has not been destaged yet). Older
  // chunks are read back in one cache-bypassing engine read, before
  // the verify span opens: the engine traces and charges its own
  // fetch and decode, and a failed read delivers an empty chunk, which
  // never matches.
  if (Config.VerifyDuplicates) {
    const std::uint64_t BatchBase = NextLocation - Count;
    std::span<std::uint64_t> OlderLocations =
        BatchArena.allocateSpan<std::uint64_t>(Count);
    std::size_t OlderCount = 0;
    for (std::size_t I = 0; I < Count; ++I)
      if (Items[I].Outcome != LookupOutcome::Unique &&
          Items[I].Location < BatchBase)
        OlderLocations[OlderCount++] = Items[I].Location;
    std::vector<ByteVector> Stored;
    if (OlderCount != 0)
      reader().readLocations(OlderLocations.first(OlderCount), Stored,
                             nullptr, /*BypassCache=*/true);

    const obs::StageSpan Stage(Config.Trace, Ledger, "verify");
    double CompareUs = 0.0;
    std::size_t NextStored = 0;
    for (std::size_t I = 0; I < Count; ++I) {
      if (Items[I].Outcome == LookupOutcome::Unique)
        continue;
      const ByteSpan Data = Chunks[I].Data;
      ByteSpan Source;
      if (Items[I].Location >= BatchBase) {
        const std::size_t InBatch =
            static_cast<std::size_t>(Items[I].Location - BatchBase);
        assert(InBatch < I && "Duplicate precedes its source");
        Source = Chunks[InBatch].Data;
      } else {
        const ByteVector &Copy = Stored[NextStored++];
        Source = ByteSpan(Copy.data(), Copy.size());
      }
      CompareUs += Plat.Model.Cpu.VerifyPerByteNs * 1e-3 *
                   static_cast<double>(Data.size());
      if (Source.size() == Data.size() &&
          std::equal(Source.begin(), Source.end(), Data.begin()))
        continue;
      ++VerifyMismatches;
      Items[I].Outcome = LookupOutcome::Unique;
      Items[I].Location = NewLocations[I];
    }
    Ledger.chargeMicros(Resource::CpuPool, CompareUs);
  }

  Sched->endStage(BatchScheduler::Stage::Dedup);

  // Partition into unique chunks (to compress + destage) and
  // duplicates (recipe-only). Capacity Count covers the all-unique
  // worst case; UniqueCount tracks the live prefix.
  std::span<ChunkView> UniqueViewsStorage =
      BatchArena.allocateSpan<ChunkView>(Count);
  std::span<std::size_t> UniqueIndices =
      BatchArena.allocateSpan<std::size_t>(Count);
  std::size_t UniqueCount = 0;
  for (std::size_t I = 0; I < Count; ++I) {
    Recipe.ChunkLocations.push_back(Items[I].Location);
    Recipe.ChunkSizes.push_back(
        static_cast<std::uint32_t>(Chunks[I].Data.size()));
    if (InfoOut)
      InfoOut->push_back(ChunkWriteInfo{
          Items[I].Location, Items[I].Fp, Items[I].Outcome,
          static_cast<std::uint32_t>(Chunks[I].Data.size())});
    ++LogicalChunks;
    LogicalBytes += Chunks[I].Data.size();
    switch (Items[I].Outcome) {
    case LookupOutcome::Unique:
      ++UniqueChunks;
      UniqueBytes += Chunks[I].Data.size();
      UniqueViewsStorage[UniqueCount] = Chunks[I];
      UniqueIndices[UniqueCount] = I;
      ++UniqueCount;
      break;
    case LookupOutcome::DupBuffer:
      ++DupChunks;
      ++DupFromBuffer;
      break;
    case LookupOutcome::DupTree:
      ++DupChunks;
      ++DupFromTree;
      break;
    case LookupOutcome::DupGpu:
      ++DupChunks;
      ++DupFromGpu;
      break;
    }
  }

  const std::span<const ChunkView> UniqueViews =
      UniqueViewsStorage.first(UniqueCount);

  // Stage 2: compression of unique chunks (Fig. 1 lower half). The
  // splitter partitions the batch across the backends and replays its
  // own per-slice timeline; raw writes and compression-off pipelines
  // store every chunk raw, which charges nothing.
  std::vector<CompressedChunk> Compressed;
  Sched->beginStage(BatchScheduler::Stage::Compress);
  {
    const obs::StageSpan Stage(Config.Trace, Ledger, "compress");
    if (Splitter && !Raw) {
      Splitter->runCompressStage(UniqueViews, Compressed);
    } else {
      Compressed.resize(UniqueViews.size());
      for (std::size_t I = 0; I < UniqueViews.size(); ++I) {
        const ByteSpan Data = UniqueViews[I].Data;
        Compressed[I].StoredRaw = true;
        Compressed[I].Block = encodeBlock(
            BlockMethod::Raw, static_cast<std::uint32_t>(Data.size()),
            Data);
      }
      Sched->endStageCompressSliced({});
    }
  }

  // Stage 3: destage — one coalesced sequential write per batch. With
  // the FTL enabled the same stream also carries the per-chunk extent
  // layout so the device can track each chunk's pages.
  std::uint64_t DestageBytes = 0;
  std::vector<SsdModel::ChunkExtent> DestageExtents;
  if (Ssd.ftlEnabled())
    DestageExtents.reserve(UniqueViews.size());
  Sched->beginStage(BatchScheduler::Stage::Destage);
  {
    const obs::StageSpan Stage(Config.Trace, Ledger, "destage");
    for (std::size_t I = 0; I < UniqueViews.size(); ++I) {
      const std::uint64_t Location = Items[UniqueIndices[I]].Location;
      DestageBytes += Compressed[I].Block.size();
      StoredBytes += Compressed[I].Block.size();
      if (Ssd.ftlEnabled())
        DestageExtents.push_back({Location, Compressed[I].Block.size()});
      // Injected payload corruption: flip one bit in the encoded block
      // on its way to the store. The block's CRC no longer matches, so
      // the read path (or scrub) reports ChunkCorrupt.
      if (Config.Faults) {
        if (const auto Fault =
                Config.Faults->sample(fault::FaultSite::Destage)) {
          ByteVector &Block = Compressed[I].Block;
          if (Block.size() > BlockHeaderSize) {
            const std::size_t Offset =
                BlockHeaderSize +
                static_cast<std::size_t>(
                    Fault->RandomBits % (Block.size() - BlockHeaderSize));
            Block[Offset] ^= static_cast<std::uint8_t>(
                1u << ((Fault->RandomBits >> 32) & 7u));
          }
        }
      }
      Store.put(Location, std::move(Compressed[I].Block));
    }
    const fault::Status DestageStatus =
        Ssd.ftlEnabled()
            ? Ssd.writeDestage(DestageExtents, DestageBytes)
            : Ssd.writeSequential(DestageBytes);
    if (!DestageStatus.ok() && BatchStatus.ok())
      BatchStatus = DestageStatus;
  }
  Sched->endStage(BatchScheduler::Stage::Destage);
  Sched->endBatch();

  // Per-chunk modelled service latency: request path + dedup stage +
  // (uniques) compression stage + an equal share of the coalesced
  // destage write.
  const double DestageShareUs =
      UniqueViews.empty()
          ? 0.0
          : Plat.Model.ssdSeqWriteUs(DestageBytes) /
                static_cast<double>(UniqueViews.size());
  std::span<double> CompressLatency =
      BatchArena.allocateFilled<double>(Count, 0.0);
  for (std::size_t I = 0; I < UniqueViews.size(); ++I)
    CompressLatency[UniqueIndices[I]] =
        Compressed[I].LatencyUs + DestageShareUs;
  for (std::size_t I = 0; I < Count; ++I) {
    const double RequestUs =
        Plat.Model.Cpu.RequestOverheadUs +
        Plat.Model.Cpu.ChunkingPerByteNs * 1e-3 *
            static_cast<double>(Chunks[I].Data.size());
    const double TotalUs =
        RequestUs + Items[I].LatencyUs + CompressLatency[I];
    LatencyHist.add(TotalUs);
    if (ChunkLatencyHist)
      ChunkLatencyHist->observe(TotalUs);
  }

  if (ChunksTotal) {
    ChunksTotal->add(Count);
    LogicalBytesTotal->add(LogicalBytes - PrevLogicalBytes);
    UniqueTotal->add(UniqueChunks - PrevUnique);
    DupBufferTotal->add(DupFromBuffer - PrevDupBuffer);
    DupTreeTotal->add(DupFromTree - PrevDupTree);
    DupGpuTotal->add(DupFromGpu - PrevDupGpu);
    StoredBytesTotal->add(StoredBytes - PrevStored);
    VerifyMismatchTotal->add(VerifyMismatches - PrevMismatches);
  }
  return BatchStatus;
}

fault::Status ReductionPipeline::finish() {
  const obs::StageSpan Stage(Config.Trace, Ledger, "drain");
  if (!Dedup)
    return {};
  // The end-of-run bin-buffer flush drains after every queued destage
  // on the timeline, so the window empties cleanly even when the last
  // batches ended in typed errors.
  Sched->beginStage(BatchScheduler::Stage::Drain);
  const fault::Status St = Dedup->finish();
  Sched->endStage(BatchScheduler::Stage::Drain);
  return St;
}

fault::Status ReductionPipeline::journalWrite(std::uint64_t Bytes,
                                              const char *SpanName) {
  const obs::StageSpan Stage(Config.Trace, Ledger, SpanName);
  // Outside any stage bracket the op log is disarmed, so the charge
  // reaches the timeline only through noteCommit — which pins it after
  // the covered batch's destage (write-ahead ordering).
  const double BeforeUs = Ledger.busyMicros(Resource::Ssd);
  const fault::Status St = Ssd.writeSequential(Bytes);
  Sched->noteCommit(Ledger.busyMicros(Resource::Ssd) - BeforeUs, SpanName);
  return St;
}

restore::ReadPipeline &ReductionPipeline::reader() {
  if (!Reader)
    Reader = std::make_unique<restore::ReadPipeline>(*this);
  return *Reader;
}

std::optional<ByteVector> ReductionPipeline::readBack() {
  return reader().readStream(Recipe);
}

std::optional<ByteVector>
ReductionPipeline::readChunk(std::uint64_t Location, bool BypassCache) {
  std::vector<ByteVector> Out;
  if (!reader().readLocations(std::span<const std::uint64_t>(&Location, 1),
                              Out, nullptr, BypassCache))
    return std::nullopt;
  return std::move(Out.front());
}

std::vector<ScrubOutcome>
ReductionPipeline::scrub(std::span<const ChunkRecord> Records, bool Repair) {
  // Location order, so each engine batch coalesces adjacent chunks into
  // sequential flash reads.
  std::vector<std::size_t> Order(Records.size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](std::size_t A, std::size_t B) {
    return Records[A].Location < Records[B].Location;
  });

  std::vector<ScrubOutcome> Outcomes(Records.size(), ScrubOutcome::Healthy);
  ChunkCache *RepairCache = Repair ? Cache.get() : nullptr;
  const std::size_t SliceChunks = reader().config().BatchDepth;
  std::vector<std::uint64_t> Locations;
  std::vector<std::optional<ByteVector>> Copies;
  std::vector<ByteVector> Chunks;
  for (std::size_t Begin = 0; Begin < Order.size(); Begin += SliceChunks) {
    const std::size_t End = std::min(Order.size(), Begin + SliceChunks);
    Locations.clear();
    for (std::size_t I = Begin; I < End; ++I)
      Locations.push_back(Records[Order[I]].Location);
    // Take the cached copies *before* the flash read: a corrupt read
    // invalidates them, and they are the only repair source there is.
    // Peeked, not looked up: scrub is not a cache client.
    Copies.clear();
    if (RepairCache)
      for (const std::uint64_t Location : Locations)
        Copies.push_back(RepairCache->peek(Location));
    Chunks.clear();
    reader().readLocations(Locations, Chunks, nullptr, /*BypassCache=*/true);

    const obs::StageSpan Stage(Config.Trace, Ledger, "scrub");
    double HashUs = 0.0;
    for (std::size_t I = 0; I < Locations.size(); ++I) {
      const ChunkRecord &Record = Records[Order[Begin + I]];
      const ByteVector &Chunk = Chunks[I];
      // A failed read delivers an empty chunk. A decoded one is
      // re-fingerprinted: the block CRC catches payload corruption;
      // this catches a block swapped for another valid one (misdirected
      // write).
      if (!Chunk.empty()) {
        HashUs += Plat.Model.cpuHashUs(Chunk.size());
        if (Fingerprint::ofData(Chunk) == Record.Fp)
          continue;
        if (RepairCache)
          RepairCache->invalidate(Record.Location);
      }
      ScrubOutcome &Outcome = Outcomes[Order[Begin + I]];
      Outcome = ScrubOutcome::Lost;
      if (!Repair)
        continue;
      // Verify the cached copy against the record's fingerprint before
      // trusting it — an unverified copy could launder corruption back
      // in. Re-encode it conservatively as a raw block and rewrite in
      // place: an in-place page update, not part of a destage stream,
      // so it is charged as a random write.
      if (RepairCache && Copies[I]) {
        ByteVector &Copy = *Copies[I];
        HashUs += Plat.Model.cpuHashUs(Copy.size());
        if (Fingerprint::ofData(Copy) == Record.Fp) {
          Ledger.chargeMicros(Resource::CpuPool,
                              Plat.Model.Cpu.CacheCopyPerByteNs * 1e-3 *
                                  static_cast<double>(Copy.size()));
          if (Ssd.rewriteChunk(Record.Location, BlockHeaderSize + Copy.size())
                  .ok()) {
            Store.erase(Record.Location);
            Store.put(Record.Location,
                      encodeBlock(BlockMethod::Raw,
                                  static_cast<std::uint32_t>(Copy.size()),
                                  ByteSpan(Copy.data(), Copy.size())));
            RepairCache->put(Record.Location, std::move(Copy));
            Outcome = ScrubOutcome::Repaired;
          }
        }
      }
      if (obs::Counter *Verdict = Outcome == ScrubOutcome::Repaired
                                      ? ScrubRepairedTotal
                                      : ScrubLostTotal)
        Verdict->add(1);
    }
    Ledger.chargeMicros(Resource::CpuPool, HashUs);
  }
  return Outcomes;
}

bool ReductionPipeline::dropIndexEntry(const Fingerprint &Fp) {
  if (!Dedup)
    return false;
  return Dedup->dropEntry(Fp);
}

std::uint64_t ReductionPipeline::eraseChunk(std::uint64_t Location) {
  if (Cache)
    Cache->invalidate(Location);
  Ssd.invalidateChunk(Location);
  return Store.erase(Location);
}

bool ReductionPipeline::restoreChunk(std::uint64_t Location,
                                     ByteVector Block,
                                     const Fingerprint &Fp) {
  if (Store.contains(Location))
    return false;
  // Recovery re-programs the chunk's flash pages; register the extent
  // so later GC/TRIM invalidation finds it.
  if (Ssd.ftlEnabled())
    (void)Ssd.rewriteChunk(Location, Block.size());
  StoredBytes += Block.size();
  Store.put(Location, std::move(Block));
  NextLocation = std::max(NextLocation, Location + 1);
  if (Dedup)
    Dedup->restoreEntry(Fp, Location);
  return true;
}

bool ReductionPipeline::verifyAgainst(ByteSpan Original) {
  const auto Stream = readBack();
  if (!Stream || Stream->size() != Original.size())
    return false;
  return std::equal(Stream->begin(), Stream->end(), Original.begin());
}

void ReductionPipeline::resetMeasurement() {
  Ledger.reset();
  // The timeline restarts alongside the busy clocks: the measured
  // phase's schedule must not inherit the warmup's queue positions.
  Sched->reset();
  // Extra backend devices keep their own staging pipelines; their
  // in-flight slots must drain with the warmup too.
  if (Splitter)
    Splitter->resetTimelineState();
  // The lane clocks restart at zero; recorded spans would otherwise
  // overlap the post-warmup ones at the same positions.
  if (Config.Trace)
    Config.Trace->clear();
  if (Reader)
    Reader->resetMeasurement();
  LogicalBytes = LogicalChunks = 0;
  UniqueChunks = UniqueBytes = 0;
  DupChunks = DupFromBuffer = DupFromTree = DupFromGpu = 0;
  VerifyMismatches = 0;
  StoredBytes = 0;
  RawFallbackBase = Splitter ? Splitter->rawFallbacks() : 0;
  LatencyHist = Histogram(20000.0, 2000);
}

PipelineReport ReductionPipeline::report() const {
  PipelineReport Report;
  Report.LogicalBytes = LogicalBytes;
  Report.LogicalChunks = LogicalChunks;
  Report.UniqueChunks = UniqueChunks;
  Report.DupChunks = DupChunks;
  Report.DupFromBuffer = DupFromBuffer;
  Report.DupFromTree = DupFromTree;
  Report.DupFromGpu = DupFromGpu;
  Report.VerifyMismatches = VerifyMismatches;
  Report.DedupRatio =
      UniqueBytes == 0 ? 1.0
                       : static_cast<double>(LogicalBytes) /
                             static_cast<double>(UniqueBytes);
  Report.StoredBytes = StoredBytes;
  Report.RawFallbacks =
      (Splitter ? Splitter->rawFallbacks() : 0) - RawFallbackBase;
  Report.CompressRatio =
      StoredBytes == 0 ? 1.0
                       : static_cast<double>(UniqueBytes) /
                             static_cast<double>(StoredBytes);
  Report.ReductionRatio =
      StoredBytes == 0 ? 1.0
                       : static_cast<double>(LogicalBytes) /
                             static_cast<double>(StoredBytes);

  const unsigned Threads = Plat.Model.Cpu.Threads;
  const unsigned GpuDevices = gpuDeviceCount();
  Report.MakespanSec =
      Ledger.makespanSeconds(Threads, ComputeResources, GpuDevices);
  if (Report.MakespanSec > 0.0) {
    Report.ThroughputIops =
        static_cast<double>(LogicalChunks) / Report.MakespanSec;
    Report.ThroughputMBps = static_cast<double>(LogicalBytes) /
                            Report.MakespanSec / 1e6;
  }
  Report.Bottleneck =
      Ledger.bottleneck(Threads, ComputeResources, GpuDevices);
  Report.CpuBusySec = Ledger.busySeconds(Resource::CpuPool);
  Report.GpuBusySec = Ledger.busySeconds(Resource::Gpu);
  Report.PcieBusySec = Ledger.busySeconds(Resource::Pcie);
  Report.SsdBusySec = Ledger.busySeconds(Resource::Ssd);
  Report.KernelLaunches = Ledger.kernelLaunches();
  Report.OffloadFraction = Dedup ? Dedup->offloadFraction() : 0.0;
  Report.LatencyP50Us = LatencyHist.percentile(50.0);
  Report.LatencyP95Us = LatencyHist.percentile(95.0);
  Report.LatencyP99Us = LatencyHist.percentile(99.0);
  Report.SsdHostBytes = Ssd.hostBytesWritten();
  Report.SsdNandBytes = Ssd.nandBytesWritten();

  Report.PipelineDepth = static_cast<unsigned>(Sched->depth());
  Report.WallSec = Ledger.timelineWallMicros() * 1e-6;
  if (Report.WallSec > 0.0) {
    Report.WallThroughputIops =
        static_cast<double>(LogicalChunks) / Report.WallSec;
    Report.WallThroughputMBps =
        static_cast<double>(LogicalBytes) / Report.WallSec / 1e6;
  }
  const ScheduleOverlap Overlap = Sched->overlap();
  for (unsigned R = 0; R < ResourceCount; ++R) {
    Report.SchedBusySec[R] = Overlap.BusySec[R];
    Report.SchedHiddenSec[R] = Overlap.HiddenSec[R];
  }
  return Report;
}

unsigned ReductionPipeline::gpuDeviceCount() const {
  return Splitter ? std::max(1u, Splitter->deviceCount()) : 1;
}
