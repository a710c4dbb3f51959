//===----------------------------------------------------------------------===//
///
/// \file
/// The integrated inline data-reduction pipeline — the paper's primary
/// contribution (§3.3, Fig. 1). Incoming writes are chunked, ordered
/// dedup-before-compression (per Constantinescu et al. [5]), and run
/// through one of the four integration options of §4(3):
///
///   CpuOnly      both operations on the multi-core CPU
///   GpuDedup     GPU co-processes hashing+indexing
///   GpuCompress  GPU compresses, CPU refines (the paper's winner)
///   GpuBoth      both offloads share the GPU (mixed kernels)
///
/// Unique chunks are compressed and destaged to the SSD as coalesced
/// sequential writes; bin-buffer drains are logged sequentially and
/// mirrored into the GPU bin table. Everything executes functionally
/// (the stream is reconstructable and verifiable) while modelled time
/// accumulates in the resource ledger.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_REDUCTIONPIPELINE_H
#define PADRE_CORE_REDUCTIONPIPELINE_H

#include "backend/BackendConfig.h"
#include "chunk/FastCdcChunker.h"
#include "chunk/FixedChunker.h"
#include "chunk/RabinChunker.h"
#include "core/BatchScheduler.h"
#include "core/ChunkCache.h"
#include "core/ChunkStore.h"
#include "core/DedupEngine.h"
#include "core/Report.h"
#include "fault/FaultInjector.h"
#include "fault/Status.h"
#include "obs/Obs.h"
#include "util/Arena.h"
#include "util/Stats.h"
#include "sim/Platform.h"
#include "ssd/SsdModel.h"

#include <memory>
#include <optional>

namespace padre {

namespace backend {
class AutoSplitter;
} // namespace backend

namespace restore {
class ReadPipeline;
} // namespace restore

/// Pipeline configuration. Index.BinBits defaults to 10 here (1024
/// bins) rather than the paper's 16: experiment streams are scaled down
/// ~100x from a 4 TB deployment, and the bin count must scale with them
/// for bins to fill realistically (see DESIGN.md §1).
/// Chunking strategy for the write path. Fixed matches the paper
/// (primary-storage block granularity); the CDC strategies are
/// extensions for file/stream-backed ingest where duplicate data
/// shifts (Volume requires Fixed — LBA semantics need block-aligned
/// chunks).
enum class ChunkingMode { Fixed, Rabin, FastCdc };

struct PipelineConfig {
  PipelineMode Mode = PipelineMode::CpuOnly;
  std::size_t ChunkSize = 4096;
  ChunkingMode Chunking = ChunkingMode::Fixed;
  /// Chunks per pipeline batch (the unit of stage hand-off).
  std::size_t BatchChunks = 256;
  /// Bounded in-flight window of the inter-batch software pipeline
  /// (core/BatchScheduler.h): while batch N destages, batch N+1
  /// compresses and batch N+2 runs the CPU front half — all in
  /// modelled time on the dependency-aware timeline. Depth 1 is the
  /// serial pipeline (each batch waits for its predecessor's destage).
  /// Functional results and per-lane busy charges are identical at
  /// every depth; only the timeline (PipelineReport::WallSec) changes.
  std::size_t PipelineDepth = 4;
  /// Disable to benchmark a single operation (E2 dedup-only, E3
  /// compression-only).
  bool DedupEnabled = true;
  bool CompressEnabled = true;
  /// Verify-on-dedup (extension): on every digest match, byte-compare
  /// the chunk against its stored copy before sharing it — the
  /// production guard against hash collisions and latent corruption.
  /// A mismatching (or unreadable) duplicate is stored as a fresh
  /// unique chunk. Each batch reads its older duplicates' copies with
  /// one cache-bypassing restore-engine read; a duplicate of a chunk
  /// in the same batch compares against the in-flight source.
  bool VerifyDuplicates = false;
  /// Decompressed-chunk LRU capacity on the read path (extension).
  /// Default 0 = disabled: the paper's pipeline is write-only, so the
  /// cache is opt-in; `padrectl restore` opts in with 32 MiB. The
  /// restore engine (src/restore) uses it as the DRAM front tier and
  /// its hit/miss/eviction counters surface in MetricsRegistry
  /// (padre_cache_*, see OBSERVABILITY.md).
  std::size_t ReadCacheBytes = 0;
  DedupEngineConfig Dedup;
  CompressEngineConfig Compress;
  /// Observability sinks (non-owning; must outlive the pipeline). When
  /// null the hot path makes no instrumentation calls at all — no
  /// allocation, no ledger reads — so an untraced run is bit-identical
  /// to one built before the observability layer existed. See
  /// OBSERVABILITY.md for the span schema and metric catalogue.
  obs::TraceRecorder *Trace = nullptr;
  obs::MetricsRegistry *Metrics = nullptr;
  /// Fault injector (non-owning; must outlive the pipeline). Attached
  /// to the SSD model, the GPU device and the destage stage. Null (or
  /// an empty plan) leaves every code path and modelled cost
  /// bit-identical to a fault-free build; see DESIGN.md fault model.
  fault::FaultInjector *Faults = nullptr;
  /// Page-level FTL geometry (ssd/Ftl.h). Unset (the default) keeps
  /// the seed constant-WAF NAND accounting bit-exactly; set, the SSD
  /// model tracks every destaged chunk's pages and write amplification
  /// becomes a measured output (DESIGN.md decision 14).
  std::optional<ssd::FtlConfig> Ftl;
  /// How the compress stage's AutoSplitter partitions each batch
  /// across the CPU and GPU backends (src/backend, DESIGN.md decision
  /// 17). Unset (the default), the split is forced from Mode: CpuOnly
  /// and GpuDedup compress on the CPU backend, GpuCompress and GpuBoth
  /// on one GPU. Set, it picks the split policy (Auto tunes it per
  /// batch) and the modelled GPU count. Device-capable split modes
  /// require a GPU-present platform.
  std::optional<backend::BackendConfig> Backend;

  PipelineConfig() {
    Dedup.Index.BinBits = 10;
    Dedup.Index.BufferCapacityPerBin = 16;
  }
};

/// Per-chunk outcome of a pipeline write, for callers that maintain
/// their own mappings (e.g. the LBA volume layer in core/Volume.h).
struct ChunkWriteInfo {
  std::uint64_t Location = 0;
  Fingerprint Fp;
  LookupOutcome Outcome = LookupOutcome::Unique;
  std::uint32_t Size = 0;
};

/// A stored chunk and its reference count, keyed by the fingerprint
/// its content must hash to (core/RefTracker.h keeps these; scrub()
/// checks them).
struct ChunkRecord {
  std::uint64_t Location = 0;
  std::uint32_t Refs = 0;
  Fingerprint Fp;
};

/// Per-chunk result of a scrub (see ReductionPipeline::scrub).
enum class ScrubOutcome { Healthy, Repaired, Lost };

/// The inline reduction pipeline for one storage volume.
class ReductionPipeline {
public:
  /// The host pool is \p HostWidth threads wide, or as wide as the host
  /// when zero. Modelled figures do not depend on it (charges slice by
  /// `Cpu.Threads`); width-invariance tests pin it to check that.
  ReductionPipeline(const Platform &Platform, const PipelineConfig &Config,
                    unsigned HostWidth = 0);
  ~ReductionPipeline();

  /// Ingests a write stream (any multiple of calls). The stream is
  /// chunked, deduplicated, compressed and destaged per the mode.
  /// When \p InfoOut is non-null, one ChunkWriteInfo per chunk is
  /// appended in stream order. GPU faults are recovered transparently
  /// (CPU fallback); the returned status reports the first SSD write
  /// that outlived its retry budget — every batch is still processed,
  /// so the functional store stays complete.
  fault::Status write(ByteSpan Stream,
                      std::vector<ChunkWriteInfo> *InfoOut = nullptr);

  /// Ingests several streams as one write: chunking is concatenated,
  /// so pipeline batches span stream boundaries. Callers dispatching
  /// many small runs (the volume service's fair-share rounds) fill the
  /// scheduler's overlap window instead of under-filling one batch per
  /// run. Chunk order — and so locations, outcomes and recipes —
  /// matches writing the streams back-to-back; only the batch grouping
  /// changes.
  fault::Status writeV(std::span<const ByteSpan> Streams,
                       std::vector<ChunkWriteInfo> *InfoOut = nullptr);

  /// Ingests a write stream bypassing both reduction operations: every
  /// chunk is stored raw at a fresh location (the §1 "store first,
  /// reduce in the background when idle" baseline; see
  /// core/BackgroundReducer.h). Fingerprints in \p InfoOut are still
  /// computed (the background pass needs them for its index), charged
  /// as CPU hashing.
  fault::Status writeRaw(ByteSpan Stream,
                         std::vector<ChunkWriteInfo> *InfoOut = nullptr);

  /// End-of-run: drains the bin buffers (SSD log writes + GPU update).
  fault::Status finish();

  /// Charges a metadata-journal write of \p Bytes to the SSD lane
  /// (src/journal): a sequential append through the fault-injected
  /// write path, bracketed as a stage span named \p SpanName (a string
  /// literal) and placed on the timeline *after* the most recent
  /// batch's destage completes — the write-ahead ordering of destage
  /// -> commit -> ack. Returns the write's status.
  fault::Status journalWrite(std::uint64_t Bytes, const char *SpanName);

  /// Recipe of everything written so far (for read-back).
  const StreamRecipe &recipe() const { return Recipe; }

  /// Reads the full stream back through the restore engine (reader()),
  /// which charges the SSD fetches and the decode. Returns nullopt on a
  /// missing, unreadable or corrupt chunk.
  std::optional<ByteVector> readBack();

  /// Convenience: readBack() equals \p Original byte-for-byte.
  bool verifyAgainst(ByteSpan Original);

  /// Reads one chunk by location through the restore engine: a DRAM
  /// copy on a cache hit, else an SSD read and a decode. \p BypassCache
  /// forces the flash path. Returns nullopt if absent, unreadable or
  /// corrupt.
  std::optional<ByteVector> readChunk(std::uint64_t Location,
                                      bool BypassCache = false);

  /// The restore engine every chunk read goes through (default
  /// ReadConfig), built on first use — a write-only run never
  /// constructs it. restore::VolumeReader brings its own engine over
  /// this pipeline instead.
  restore::ReadPipeline &reader();

  /// Verifies each of \p Records' chunks against its fingerprint, in
  /// location order and in slices of reader()'s batch depth: every
  /// slice is one cache-bypassing engine read (which charges the
  /// fetch and decode), and each decoded chunk is re-fingerprinted
  /// under a "scrub" stage span. A chunk that fails to read or hashes
  /// wrong is Lost — unless \p Repair is set and a copy the cache held
  /// before the slice's read hashes right: that copy is rewritten in
  /// place as a raw block (Repaired). Returns one outcome per record,
  /// in \p Records order.
  std::vector<ScrubOutcome> scrub(std::span<const ChunkRecord> Records,
                                  bool Repair);

  /// Read-cache statistics (null when disabled). The non-const form is
  /// for the restore engine (src/restore), which uses the cache as its
  /// front tier.
  const ChunkCache *readCache() const { return Cache.get(); }
  ChunkCache *readCache() { return Cache.get(); }

  /// Garbage-collection hooks for the volume layer: drops a dead
  /// chunk's index entries (CPU index + GPU bin table), and erases its
  /// stored block.
  bool dropIndexEntry(const Fingerprint &Fp);
  std::uint64_t eraseChunk(std::uint64_t Location);

  /// Restore path (persist/VolumeImage.h): places an already-encoded
  /// block at \p Location, re-registers \p Fp in the dedup index, and
  /// advances the location allocator past \p Location. Returns false
  /// if the location is already occupied.
  bool restoreChunk(std::uint64_t Location, ByteVector Block,
                    const Fingerprint &Fp);

  /// Fault injection for tests/scrub drills (see ChunkStore).
  bool corruptChunkForTesting(std::uint64_t Location,
                              std::size_t ByteOffset) {
    return Store.corruptForTesting(Location, ByteOffset);
  }

  /// Marks subsequent writes as storage-internal (e.g. the background
  /// reducer's rewrites): they charge service time but do not count as
  /// host I/O in the endurance accounting.
  void setInternalWrites(bool Internal) { InternalWrites = Internal; }

  /// Zeroes the ledger and the report counters while keeping all
  /// functional state (index, store) — call after a warmup prefix so
  /// the report reflects steady state. Rebaselines reader() too.
  void resetMeasurement();

  /// The measurements since construction or resetMeasurement().
  PipelineReport report() const;

  ResourceLedger &ledger() { return Ledger; }
  const BatchScheduler &scheduler() const { return *Sched; }
  ThreadPool &pool() { return Pool; }
  /// The compress stage's splitter (null when CompressEnabled is off).
  const backend::AutoSplitter *splitter() const { return Splitter.get(); }
  /// Modelled GPU devices in play — the capacity term of the report's
  /// makespan (1 unless the GPU backend drives more).
  unsigned gpuDeviceCount() const;
  const SsdModel &ssd() const { return Ssd; }
  SsdModel &ssd() { return Ssd; }
  const ChunkStore &store() const { return Store; }
  const DedupEngine *dedupEngine() const { return Dedup.get(); }
  GpuDevice *gpuDevice() { return Device.get(); }
  const PipelineConfig &config() const { return Config; }
  const Platform &platform() const { return Plat; }

private:
  /// Feeds \p Chunks to processBatch in BatchChunks slices; every
  /// slice runs, and the first failing slice's status is returned.
  fault::Status writeChunks(std::span<const ChunkView> Chunks,
                            std::vector<ChunkWriteInfo> *InfoOut, bool Raw);

  fault::Status processBatch(std::span<const ChunkView> Chunks,
                             std::vector<ChunkWriteInfo> *InfoOut, bool Raw);

  Platform Plat;
  PipelineConfig Config;
  ResourceLedger Ledger;
  ThreadPool Pool;
  std::unique_ptr<GpuDevice> Device;
  SsdModel Ssd;
  ChunkStore Store;
  std::unique_ptr<DedupEngine> Dedup;
  std::unique_ptr<ChunkCache> Cache;
  std::unique_ptr<BatchScheduler> Sched;
  std::unique_ptr<backend::AutoSplitter> Splitter;
  std::unique_ptr<Chunker> StreamChunker;
  StreamRecipe Recipe;
  /// Per-batch scratch (locations, unique-chunk partition, latency
  /// accumulators): reset at the top of every processBatch, so the
  /// steady-state write path allocates nothing on the heap. The dedup
  /// engine owns a separate arena for its own stage.
  Arena BatchArena;

  std::uint64_t NextLocation = 0;
  bool InternalWrites = false;
  // Report counters (reset by resetMeasurement).
  std::uint64_t LogicalBytes = 0;
  std::uint64_t LogicalChunks = 0;
  std::uint64_t UniqueChunks = 0;
  std::uint64_t UniqueBytes = 0;
  std::uint64_t DupChunks = 0;
  std::uint64_t DupFromBuffer = 0;
  std::uint64_t DupFromTree = 0;
  std::uint64_t DupFromGpu = 0;
  std::uint64_t VerifyMismatches = 0;
  std::uint64_t StoredBytes = 0;
  std::uint64_t RawFallbackBase = 0;
  /// Per-chunk modelled service latency (microseconds): request path +
  /// dedup stage + (for uniques) compression stage + destage share.
  Histogram LatencyHist{20000.0, 2000};
  // Observability instruments (null when Config.Metrics is null),
  // cached at construction so the hot path never locks the registry.
  obs::LogHistogram *ChunkLatencyHist = nullptr;
  obs::LogHistogram *BatchChunksHist = nullptr;
  obs::Counter *ChunksTotal = nullptr;
  obs::Counter *LogicalBytesTotal = nullptr;
  obs::Counter *UniqueTotal = nullptr;
  obs::Counter *DupBufferTotal = nullptr;
  obs::Counter *DupTreeTotal = nullptr;
  obs::Counter *DupGpuTotal = nullptr;
  obs::Counter *StoredBytesTotal = nullptr;
  obs::Counter *VerifyMismatchTotal = nullptr;
  obs::Counter *ScrubRepairedTotal = nullptr;
  obs::Counter *ScrubLostTotal = nullptr;
  /// Declared last: the engine borrows the members above, so it must be
  /// destroyed first.
  std::unique_ptr<restore::ReadPipeline> Reader;
};

} // namespace padre

#endif // PADRE_CORE_REDUCTIONPIPELINE_H
