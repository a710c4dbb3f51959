//===----------------------------------------------------------------------===//
///
/// \file
/// The SSD model — the substitution for the paper's Samsung SSD 830
/// (see DESIGN.md §1). The paper uses the SSD in two roles, both of
/// which are properties of this model rather than of a physical device:
///
///   1. a throughput baseline: "we compare our schemes with the
///      throughput of Samsung SSD 830" (§4) — `baselineWriteIops4K()`;
///   2. the motivation for *inline* reduction: background reduction
///      "generates more write I/O than systems without the data
///      reduction operations … due to write endurance problems" (§1) —
///      the NAND-byte endurance counters.
///
/// Service time is charged to the shared resource ledger; endurance is
/// tracked as host bytes (what the workload asked to write) vs NAND
/// bytes (what physically hit flash). NAND accounting has two modes:
///
///   * default: a constant FTL write-amplification factor
///     (SsdCosts::SequentialWaf / RandomWaf) scales each write — the
///     seed behaviour, bit-exact preserved;
///   * `enableFtl()`: a page-level FTL (ssd/Ftl.h) tracks every chunk
///     extent, and NAND bytes are exactly the pages it programs (host
///     plus GC relocation) — the constants are bypassed, write
///     amplification becomes measured output, GC relocations and
///     erases are charged to the SSD lane under `ftl:gc` spans, and
///     `padre_ftl_*` metrics expose the device state.
///
/// Fault tolerance (DESIGN.md fault model): with a FaultInjector
/// attached, each command samples the ssd-read/ssd-write fault site
/// per attempt. Latent sector errors and timeouts are retried with
/// linear backoff up to the plan's retry budget — every attempt's
/// service time, timeout stall and backoff wait is charged to the SSD
/// lane, so degradation shows up in modelled time — and a fault that
/// outlives the budget surfaces as a typed Status error. With no
/// injector the code path is exactly the pre-fault one.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_SSD_SSDMODEL_H
#define PADRE_SSD_SSDMODEL_H

#include "fault/Status.h"
#include "obs/Obs.h"
#include "sim/CostModel.h"
#include "sim/ResourceLedger.h"
#include "ssd/Ftl.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace padre {

namespace fault {
class FaultInjector;
enum class FaultSite : unsigned;
} // namespace fault

/// Modelled SSD with service-time and endurance accounting.
/// Thread-safe.
class SsdModel {
public:
  /// \p Model supplies the SSD constants; \p Ledger receives service
  /// time. Both must outlive the model.
  SsdModel(const CostModel &Model, ResourceLedger &Ledger);

  /// Records that the host submitted \p Bytes of logical writes to the
  /// storage system (before any reduction). Endurance accounting only;
  /// no service time is charged.
  void noteHostWrite(std::uint64_t Bytes);

  /// Sequentially writes \p Bytes (bin-buffer flushes, journal
  /// commits). Charges service time and NAND bytes. With the FTL
  /// enabled this is the metadata stream: whole pages appended to the
  /// FTL's circular metadata window.
  fault::Status writeSequential(std::uint64_t Bytes);

  /// Writes \p Count random 4 KiB pages. Charges service time and NAND
  /// bytes (with the random-write FTL amplification; with the FTL
  /// enabled, as metadata-stream page appends).
  fault::Status writeRandom4K(std::uint64_t Count);

  /// Sequentially reads \p Bytes.
  fault::Status readSequential(std::uint64_t Bytes);

  /// Reads \p Count random 4 KiB pages.
  fault::Status readRandom4K(std::uint64_t Count);

  //===--------------------------------------------------------------===//
  // Page-level FTL (optional; see ssd/Ftl.h).
  //===--------------------------------------------------------------===//

  /// One destaged chunk of a `writeDestage` stream: the chunk-store
  /// location it will live at and its encoded byte size.
  struct ChunkExtent {
    std::uint64_t Location = 0;
    std::uint64_t Bytes = 0;
  };

  /// Switches NAND accounting from the constant-WAF model to a
  /// page-level FTL with the given geometry. Call before any traffic
  /// (existing extents are dropped).
  void enableFtl(const ssd::FtlConfig &Config);

  bool ftlEnabled() const { return FtlModel != nullptr; }

  /// The FTL, for measurement (null when disabled).
  const ssd::Ftl *ftl() const { return FtlModel.get(); }

  /// Writes one destage stream: \p Chunks packed head-to-tail,
  /// \p TotalBytes their sum. Without the FTL this is exactly
  /// `writeSequential(TotalBytes)` — same charges, same NAND bytes.
  /// With it, the host transfer charges the same sequential service
  /// time, the FTL packs the chunks into log pages (NAND = pages
  /// programmed), and any GC the append triggers is charged under an
  /// `ftl:gc` span.
  fault::Status writeDestage(std::span<const ChunkExtent> Chunks,
                             std::uint64_t TotalBytes);

  /// Marks \p Location's extent dead (chunk GC / TRIM). No-op without
  /// the FTL, or for unknown locations; charges no service time.
  void invalidateChunk(std::uint64_t Location);

  /// Rewrites the chunk at \p Location in place (scrub repair).
  /// Without the FTL this is exactly `writeRandom4K(1)`; with it, the
  /// old extent dies and \p Bytes are re-appended to the log.
  fault::Status rewriteChunk(std::uint64_t Location, std::uint64_t Bytes);

  /// Logical bytes the host submitted (`noteHostWrite` total).
  std::uint64_t hostBytesWritten() const { return HostBytes.load(); }

  /// Physical bytes written to NAND (after FTL amplification).
  std::uint64_t nandBytesWritten() const { return NandBytes.load(); }

  /// NAND bytes per host byte — the endurance figure of merit. Inline
  /// reduction drives this below 1; background reduction above 1.
  double enduranceRatio() const;

  /// The 4 KiB random-write IOPS of the bare device (the paper's ≈80 K
  /// IOPS comparison baseline).
  double baselineWriteIops4K() const;

  /// Attaches observability sinks: per-command I/O spans on the SSD
  /// lane plus a service-time histogram and per-op counters. Call
  /// before any traffic; sinks must outlive the model.
  void setObs(const obs::ObsSinks &Obs);

  /// Arms (null detaches) the command log: each command appends its
  /// total charged service time in µs — retries, timeout stalls and
  /// backoff waits included — in issue order. The batch scheduler
  /// replays the log as the SSD's queued-command lane, so a destage
  /// write occupies the device queue on the timeline instead of
  /// blocking the CPU lane. Caller owns the vector; arm only around
  /// single-threaded command issue (the pipeline thread).
  void setOpLog(std::vector<double> *Log) { OpLog = Log; }

  /// Attaches a fault injector (null detaches; must outlive the
  /// model). Call before traffic.
  void setFaultInjector(fault::FaultInjector *Injector) {
    Faults = Injector;
  }

  /// Commands re-issued after a transient fault since construction.
  std::uint64_t retryCount() const { return Retries.load(); }

private:
  /// Shared command body: charges \p OpMicros (per attempt, under a
  /// \p SpanName lane span), drives the retry loop when an injector is
  /// attached, and feeds the I/O histogram/op counter on success.
  fault::Status issue(fault::FaultSite Site, const char *SpanName,
                      double OpMicros, obs::Counter *OpCounter);

  /// Registers the `padre_ftl_*` instruments (requires both a metrics
  /// sink and an enabled FTL; called from whichever arrives second).
  void registerFtlMetrics();

  /// Charges NAND bytes and GC overhead (`ftl:gc` span, relocation
  /// reads/programs, erases) for the FTL work since \p Before, and
  /// refreshes the FTL gauges. Caller holds FtlMutex.
  void settleFtlWork(const ssd::Ftl::Counters &Before);

  CostModel Model;
  ResourceLedger &Ledger;
  std::atomic<std::uint64_t> HostBytes{0};
  std::atomic<std::uint64_t> NandBytes{0};
  std::atomic<std::uint64_t> Retries{0};
  fault::FaultInjector *Faults = nullptr;
  std::vector<double> *OpLog = nullptr;
  // FTL state (null = constant-WAF accounting). FtlMutex serializes
  // the mapping structures; command issue stays lock-free.
  std::unique_ptr<ssd::Ftl> FtlModel;
  std::mutex FtlMutex;
  std::unordered_map<std::uint64_t, ssd::Ftl::Extent> Extents;
  // Observability (null = disabled); instruments cached at setObs time.
  obs::MetricsRegistry *MetricsReg = nullptr;
  obs::TraceRecorder *Trace = nullptr;
  obs::LogHistogram *IoHist = nullptr;
  obs::Counter *SeqWriteOps = nullptr;
  obs::Counter *RandWriteOps = nullptr;
  obs::Counter *SeqReadOps = nullptr;
  obs::Counter *RandReadOps = nullptr;
  obs::Counter *RetryReads = nullptr;
  obs::Counter *RetryWrites = nullptr;
  obs::Counter *FtlHostPagesC = nullptr;
  obs::Counter *FtlGcPagesC = nullptr;
  obs::Counter *FtlErasesC = nullptr;
  obs::Counter *FtlGcRunsC = nullptr;
  obs::Counter *FtlWearMigsC = nullptr;
  obs::Gauge *FtlWafG = nullptr;
  obs::Gauge *FtlFreeBlocksG = nullptr;
  obs::Gauge *FtlLivePagesG = nullptr;
  obs::Gauge *FtlSpreadG = nullptr;
};

} // namespace padre

#endif // PADRE_SSD_SSDMODEL_H
