//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant volume service: N tenant volumes behind an
/// admission/dispatch front-end, all sharing one inline reduction
/// pipeline, one chunk reference domain and one global fingerprint
/// index (index/DedupIndex.h). This is padre's only cross-volume dedup
/// domain: tenant volumes share the store, so cross-volume duplicates
/// (the VDI golden-image pattern) are stored once and a chunk is
/// garbage only when no volume or snapshot anywhere references it.
/// Three service-only mechanisms sit on top:
///
///   * per-tenant quotas — a submitted write that would push the
///     tenant past its logical-byte quota is rejected at admission,
///     before it can consume any modelled resource;
///   * weighted-fair dispatch — queued writes drain in deficit
///     round-robin order, each tenant earning Weight x
///     DispatchRunBlocks blocks of credit per round, so one noisy
///     neighbour cannot starve the rest of the shared pipeline;
///   * an HPDedup-style hybrid prioritized cache tier — per-tenant
///     locality scores (EWMA of each inline run's duplicate fraction)
///     decide which tenants' fingerprints stay memory-resident under
///     the index budget; demoted tenants write raw and are deduplicated
///     later by the BackgroundReducer post-process pass (deferred
///     dedup), with their transient index entries expired afterwards.
///
/// With the defaults (no budget, one tenant) the service is a pure
/// pass-through: results and ledger charges are bit-identical to
/// driving a Volume directly (tests/test_service.cpp). See SERVICE.md
/// for the full architecture.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_SERVICE_VOLUMESERVICE_H
#define PADRE_SERVICE_VOLUMESERVICE_H

#include "core/BackgroundReducer.h"
#include "core/ReductionPipeline.h"
#include "core/Volume.h"

#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace padre {

/// Inline-cache admission policy for the shared fingerprint index.
enum class CachePolicy {
  /// HPDedup-style: admit tenants by locality score (descending) while
  /// their projected index footprints fit the budget.
  Prioritized,
  /// Baseline: admit by dispatch recency (most recent first) — the
  /// policy E8 shows losing dedup ratio per MB under interference.
  Lru,
};

/// Per-tenant knobs.
struct TenantConfig {
  /// Addressable blocks of the tenant's volume.
  std::uint64_t Blocks = 1 << 16;
  /// Logical-byte quota across accepted writes (0 = unlimited). A
  /// submit that would exceed it is rejected at admission.
  std::uint64_t QuotaBytes = 0;
  /// Weighted-fair dispatch share (credit per round scales with it).
  unsigned Weight = 1;
};

/// Service-wide knobs.
struct ServiceConfig {
  /// Shared pipeline (obs sinks and fault plans attach here too).
  PipelineConfig Pipeline;
  /// Fingerprint-index memory budget for the prioritized cache tier
  /// (bytes). 0 = unlimited: every tenant stays inline-resident and
  /// the service is a pure pass-through.
  std::size_t IndexMemoryBudget = 0;
  CachePolicy Policy = CachePolicy::Prioritized;
  /// Blocks of dispatch credit per weight unit per round.
  std::uint64_t DispatchRunBlocks = 64;
  /// Coalesced dispatch: each fair-share round's inline runs are
  /// ingested as ONE combined pipeline write
  /// (ReductionPipeline::writeV), so batches span runs and fill the
  /// batch scheduler's overlap window instead of under-filling one
  /// batch per run. Chunk order is preserved — locations, recipes and
  /// read-back stay bit-identical to per-run dispatch; only the batch
  /// grouping (and so the modelled overlap) changes. Off by default:
  /// per-run dispatch remains the bit-identical pass-through baseline.
  bool CoalesceDispatch = false;
};

/// Point-in-time view of one tenant.
struct TenantStats {
  std::string Name;
  std::uint64_t QueuedBytes = 0;   ///< accepted, not yet dispatched
  std::uint64_t AdmittedBytes = 0; ///< dispatched through inline dedup
  std::uint64_t DeferredBytes = 0; ///< dispatched raw (deferred dedup)
  std::uint64_t RejectedBytes = 0; ///< refused at admission (quota)
  double LocalityScore = 0.0;
  bool Resident = false; ///< fingerprints currently memory-resident
  std::size_t TrackedEntries = 0; ///< index entries charged to tenant
};

/// Space statistics of the whole dedup domain.
struct PoolStats {
  std::uint64_t Volumes = 0;
  std::uint64_t MappedBlocks = 0;  ///< across all volumes
  std::uint64_t LogicalBytes = 0;  ///< across all volumes
  std::uint64_t PhysicalBytes = 0; ///< shared store, counted once
  std::uint64_t LiveChunks = 0;
  std::uint64_t DeadChunks = 0;
  /// logical / physical — the domain's headline "reduction" figure;
  /// cross-volume dedup pushes it beyond any single volume's ratio.
  double reductionRatio() const {
    return PhysicalBytes == 0 ? 0.0
                              : static_cast<double>(LogicalBytes) /
                                    static_cast<double>(PhysicalBytes);
  }
};

/// Aggregated outcome of sweepDeferred().
struct ServiceSweepStats {
  std::uint64_t TenantsSwept = 0;
  std::uint64_t BlocksProcessed = 0;
  std::uint64_t ChunksCollected = 0;
  std::uint64_t EntriesExpired = 0; ///< transient index entries dropped
};

/// N tenant volumes over one pipeline, one tracker, one index.
/// Single-writer semantics, like the layers below it.
class VolumeService {
public:
  using TenantId = unsigned;

  VolumeService(const Platform &Plat, const ServiceConfig &Config);

  /// Registers a tenant (name must be unique; used as the metrics
  /// label). Returns its id. Tenants start inline-resident with an
  /// optimistic locality score.
  TenantId addTenant(const std::string &Name, const TenantConfig &Config);

  std::size_t tenantCount() const { return Tenants.size(); }

  /// Admission: queues a write of \p Data (a multiple of the block
  /// size) at \p Lba for weighted-fair dispatch. Returns false — and
  /// charges nothing — when the tenant's quota would be exceeded or
  /// the range is invalid.
  bool submitWrite(TenantId Tenant, std::uint64_t Lba, ByteSpan Data);

  /// One weighted-fair dispatch round over all queues, then a
  /// residency re-score. Returns true if anything was dispatched.
  bool pump();

  /// Pumps until every queue is empty.
  void drain();

  /// Deferred-dedup lifecycle: one BackgroundReducer pass per tenant
  /// with raw (deferred) blocks outstanding. A still-non-resident
  /// tenant's freshly inserted index entries are expired afterwards —
  /// the budget buys an *inline* cache, not a post-process one.
  ServiceSweepStats sweepDeferred();

  /// drain() + end-of-run pipeline flush (bin-buffer drains).
  void finish();

  /// Reads \p Count blocks of \p Tenant at \p Lba (through the shared
  /// store; unmapped blocks read as zeros).
  std::optional<ByteVector> readBlocks(TenantId Tenant, std::uint64_t Lba,
                                       std::uint64_t Count);

  TenantStats tenantStats(TenantId Tenant) const;

  /// Space statistics across every tenant volume.
  PoolStats poolStats() const;

  /// The tenant's volume (tests / maintenance; single-writer rules).
  Volume &tenantVolume(TenantId Tenant) { return *Tenants[Tenant].Vol; }

  ReductionPipeline &pipeline() { return Pipeline; }
  const ReductionPipeline &pipeline() const { return Pipeline; }
  const ServiceConfig &config() const { return Config; }

  /// Dispatch rounds completed.
  std::uint64_t rounds() const { return Round; }

private:
  struct PendingWrite {
    std::uint64_t Lba = 0;
    ByteVector Data;
  };

  struct TenantState {
    std::string Name;
    TenantConfig Config;
    std::unique_ptr<Volume> Vol;
    std::deque<PendingWrite> Queue;
    std::uint64_t QueuedBytes = 0;
    std::uint64_t AdmittedBytes = 0;
    std::uint64_t DeferredBytes = 0;
    std::uint64_t RejectedBytes = 0;
    /// Deficit round-robin credit (bytes).
    std::uint64_t CreditBytes = 0;
    /// EWMA of inline runs' duplicate fractions; optimistic start so
    /// new tenants begin resident.
    double Locality = 1.0;
    bool Resident = true;
    bool NeedsSweep = false;
    /// Global dispatch sequence of the last run (LRU recency).
    std::uint64_t LastDispatchSeq = 0;
    std::uint64_t LastInlineRound = 0;
    /// Fingerprints this tenant inserted while resident — dropped from
    /// the index on demotion to actually free its budget share.
    std::vector<Fingerprint> TrackedFps;
    /// High-water mark of TrackedFps (projected footprint for
    /// admission decisions; survives demotion).
    std::size_t PeakTrackedFps = 0;
    obs::Counter *AdmittedCtr = nullptr;
    obs::Counter *DeferredCtr = nullptr;
    obs::Counter *RejectedCtr = nullptr;
  };

  /// One write picked by the fair-share round, awaiting dispatch.
  struct Pick {
    TenantState *T = nullptr;
    PendingWrite W;
    bool Inline = false; ///< inline reduction vs raw (deferred)
  };

  /// Dispatches one queued write: inline (resident or probing) or raw.
  void dispatchOne(TenantState &T, PendingWrite &W);

  /// Whether the write dispatches inline (resident or probing); marks
  /// a probing tenant's round so later picks this round see it.
  bool decideInline(TenantState &T);

  /// Coalesced dispatch of one round's picks: maximal runs of
  /// consecutive inline picks become one combined pipeline ingest.
  void dispatchCoalesced(std::vector<Pick> &Picks);

  /// Records an inline run's outcomes into the tenant's locality score
  /// and tracked-fingerprint set.
  void noteInlineRun(TenantState &T, std::span<const ChunkWriteInfo> Info);

  /// Recomputes the resident set under the index budget per the cache
  /// policy; demotions drop the tenant's tracked index entries.
  void rescoreResidency();

  void demote(TenantState &T);

  /// Pushes the index occupancy/hit gauges (no-op without metrics).
  void updateIndexMetrics();

  std::size_t entryBytes() const;

  ServiceConfig Config;
  ReductionPipeline Pipeline;
  std::shared_ptr<ChunkRefTracker> Tracker;
  std::vector<TenantState> Tenants;
  std::uint64_t Round = 0;
  std::uint64_t DispatchSeq = 0;
  obs::LogHistogram *LocalityHist = nullptr;
  obs::Gauge *IndexEntriesGauge = nullptr;
  obs::Gauge *IndexHitsGauge = nullptr;
  obs::Gauge *IndexMemoryGauge = nullptr;
};

} // namespace padre

#endif // PADRE_SERVICE_VOLUMESERVICE_H
