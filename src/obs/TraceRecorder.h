//===----------------------------------------------------------------------===//
///
/// \file
/// Span tracing over the modelled-time clock. Every span lives on one
/// resource *lane* (CPU pool, GPU, PCIe, SSD, index lock) and its
/// begin/end are positions on that lane's ResourceLedger busy-time
/// clock — NOT wall-clock time. The recorder therefore shows where a
/// write spent its *modelled* time across chunk → dedup → compress →
/// destage, which is the quantity every paper experiment (E1–E5) is
/// measured in. Host wall time is a separate measurement of different
/// hardware and never enters a span (see OBSERVABILITY.md, "modelled
/// time vs wall time").
///
/// Spans export as Chrome `trace_event` JSON ("X" complete events, one
/// thread track per lane) loadable in about:tracing or Perfetto. The
/// RAII helpers snapshot the lane clocks so call sites bracket the
/// charges they make; a null recorder pointer disables everything at
/// the cost of one branch — no allocation, no ledger reads.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_OBS_TRACERECORDER_H
#define PADRE_OBS_TRACERECORDER_H

#include "sim/ResourceLedger.h"

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace padre {
namespace obs {

/// Well-known span categories. "stage" spans are the measurement
/// contract: within one pipeline run they tile each lane exactly, so
/// their per-lane totals reconcile with the ledger's busy times
/// (asserted by tests/test_obs.cpp). Detail categories nest inside
/// stage spans and may not cover a lane completely.
inline constexpr const char *CategoryStage = "stage";
inline constexpr const char *CategoryKernel = "kernel"; ///< GPU kernels
inline constexpr const char *CategoryDma = "dma";       ///< PCIe DMAs
inline constexpr const char *CategoryIo = "io";         ///< SSD commands
inline constexpr const char *CategorySweep = "sweep";   ///< background passes
/// Batch-scheduler timeline spans. Unlike every other category, their
/// Begin/Dur are positions on the *scheduled* timeline (dependency-
/// constrained wall clock, see core/BatchScheduler.h), not the lane's
/// busy clock — so the Chrome export gives them their own per-lane
/// tracks, where cross-lane overlap between in-flight batches is
/// visually meaningful (the Fig. 1 picture). They never participate in
/// the stage-span/ledger reconciliation contract.
inline constexpr const char *CategorySched = "sched";
/// Multi-tenant service spans (src/service/VolumeService.h): one per
/// dispatched tenant run or deferred-dedup sweep. Like "sweep" spans,
/// they are umbrellas over pipeline work that emits its own stage
/// spans inside — never part of the stage/ledger reconciliation.
inline constexpr const char *CategorySvc = "svc";
/// Backend-splitter spans (src/backend): one per backend slice of a
/// split compress stage ("backend:cpu", "backend:gpu", ...), on the
/// slice's principal lane. Detail spans nested inside the "compress"
/// stage span — never part of the stage/ledger reconciliation.
inline constexpr const char *CategoryBackend = "backend";

/// One recorded span. Name/Category must be string literals (or other
/// storage outliving the recorder) — spans never copy them.
struct TraceSpan {
  const char *Name = "";
  const char *Category = "";
  Resource Lane = Resource::CpuPool;
  double BeginUs = 0.0; ///< lane-clock position at begin (modelled µs)
  double DurUs = 0.0;   ///< modelled busy time covered by the span
};

/// Thread-safe recorder of modelled-time spans.
class TraceRecorder {
public:
  /// Appends one span. Negative or sub-nanosecond durations are
  /// dropped (a stage that charged nothing on a lane has no span).
  void record(const char *Name, const char *Category, Resource Lane,
              double BeginUs, double DurUs);

  /// Snapshot of all spans, ordered by (lane, begin, longest-first) so
  /// parents precede the spans they contain.
  std::vector<TraceSpan> spans() const;

  std::size_t spanCount() const;

  /// Sum of span durations on \p Lane, restricted to \p Category when
  /// non-null. With Category == CategoryStage this equals the ledger's
  /// busy time on the lane for a traced pipeline run.
  double laneTotalUs(Resource Lane, const char *Category = nullptr) const;

  /// Drops all recorded spans (e.g. after a measurement warmup, in
  /// lockstep with ResourceLedger::reset — the lane clocks restart).
  void clear();

  /// Chrome trace_event JSON: {"traceEvents":[...]} with one metadata-
  /// named thread per lane and one "X" event per span (ts/dur in µs).
  std::string chromeJson() const;

  /// Writes chromeJson() to \p Path. Returns false on I/O failure.
  bool writeChromeJson(const std::string &Path) const;

private:
  mutable std::mutex Mutex;
  std::vector<TraceSpan> Spans;
};

/// RAII span on a single lane: begin/end are the lane's busy-time clock
/// at construction/destruction, so the span covers exactly the charges
/// made on that lane within the scope. Null \p Trace disables it.
class LaneSpan {
public:
  LaneSpan(TraceRecorder *Trace, const ResourceLedger &Ledger,
           Resource Lane, const char *Name, const char *Category)
      : Trace(Trace), Ledger(&Ledger), Lane(Lane), Name(Name),
        Category(Category),
        BeginUs(Trace ? Ledger.busyMicros(Lane) : 0.0) {}

  ~LaneSpan() {
    if (Trace)
      Trace->record(Name, Category, Lane, BeginUs,
                    Ledger->busyMicros(Lane) - BeginUs);
  }

  LaneSpan(const LaneSpan &) = delete;
  LaneSpan &operator=(const LaneSpan &) = delete;

private:
  TraceRecorder *Trace;
  const ResourceLedger *Ledger;
  Resource Lane;
  const char *Name;
  const char *Category;
  double BeginUs;
};

/// RAII pipeline-stage span: snapshots every lane clock and, at scope
/// exit, records one span per lane that accrued busy time — a stage
/// like "dedup" charges CPU hashing, GPU kernels, PCIe DMA and SSD
/// drain writes all at once. Null \p Trace disables it.
class StageSpan {
public:
  StageSpan(TraceRecorder *Trace, const ResourceLedger &Ledger,
            const char *Name, const char *Category = CategoryStage)
      : Trace(Trace), Ledger(&Ledger), Name(Name), Category(Category) {
    if (Trace)
      for (unsigned R = 0; R < ResourceCount; ++R)
        BeginUs[R] = Ledger.busyMicros(static_cast<Resource>(R));
  }

  ~StageSpan() {
    if (!Trace)
      return;
    for (unsigned R = 0; R < ResourceCount; ++R) {
      const Resource Lane = static_cast<Resource>(R);
      Trace->record(Name, Category, Lane, BeginUs[R],
                    Ledger->busyMicros(Lane) - BeginUs[R]);
    }
  }

  StageSpan(const StageSpan &) = delete;
  StageSpan &operator=(const StageSpan &) = delete;

private:
  TraceRecorder *Trace;
  const ResourceLedger *Ledger;
  const char *Name;
  const char *Category;
  double BeginUs[ResourceCount] = {};
};

} // namespace obs
} // namespace padre

#endif // PADRE_OBS_TRACERECORDER_H
