//===----------------------------------------------------------------------===//
///
/// \file
/// Trace replay against an LBA volume, with on-the-fly verification: a
/// shadow tag map tracks what every block should contain, and each
/// read is checked byte-for-byte against the regenerated expectation.
/// This is the harness that turns a trace (workload/Trace.h) into an
/// end-to-end volume exercise.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_TRACERUNNER_H
#define PADRE_CORE_TRACERUNNER_H

#include "core/Volume.h"
#include "workload/Trace.h"

namespace padre {

/// Replay outcome counters.
struct TraceRunStats {
  std::uint64_t Writes = 0;
  std::uint64_t Reads = 0;
  std::uint64_t Trims = 0;
  std::uint64_t BlocksWritten = 0;
  std::uint64_t BlocksRead = 0;
  /// Records whose LBA range exceeded the volume (skipped).
  std::uint64_t OutOfRange = 0;
  /// Reads that returned no data (corruption) — always a bug.
  std::uint64_t ReadFailures = 0;
  /// Reads whose content differed from the shadow expectation —
  /// always a bug.
  std::uint64_t VerifyFailures = 0;

  bool clean() const { return ReadFailures == 0 && VerifyFailures == 0; }
};

/// Replays \p Log against \p Vol, verifying every read against a
/// shadow tag map. Out-of-range records are counted and skipped
/// (traces may be generated for a different geometry). Reads go
/// through Volume::readBlocks on \p Reads when given (e.g. a
/// restore::VolumeReader's engine with its own ReadConfig), else on
/// the pipeline's engine. Buffered batches are left unflushed.
TraceRunStats replayTrace(Volume &Vol, const TraceLog &Log,
                          restore::ReadPipeline *Reads = nullptr);

/// Timed-replay knobs.
struct ReplayConfig {
  /// Bypass the reduction pipeline: writes go through
  /// Volume::writeBlocksRaw (the reduction-off baseline of E9).
  bool RawWrites = false;
  /// Run Volume::collectGarbage every N ops (0 = never). Interleaves
  /// chunk GC — and, with the FTL on, page invalidation — with the
  /// write stream.
  std::uint64_t GcEveryOps = 0;
};

/// Timed-replay outcome: everything `replayTrace` counts, plus the
/// open-loop latency distribution.
struct TimedReplayReport {
  TraceRunStats Stats;
  /// Per-op modelled latency percentiles in microseconds (exact, from
  /// the full sample vector). Latency = completion − arrival under an
  /// open-loop single-server queue: the device drains ops in trace
  /// order at their modelled service times, and ops that arrive while
  /// it is busy queue behind their predecessors.
  double P50Us = 0.0;
  double P95Us = 0.0;
  double P99Us = 0.0;
  double MeanUs = 0.0;
  double MaxUs = 0.0;
  /// Completion time of the last op (modelled wall clock, µs).
  double WallUs = 0.0;
  /// Total modelled service time across ops (µs).
  double ServiceUs = 0.0;
  /// Volume GC passes run and chunks they collected.
  std::uint64_t GcRuns = 0;
  std::uint64_t ChunksCollected = 0;
};

/// Replays \p Log with the open-loop latency model: each record's
/// service time is the modelled busy-time delta its execution charges
/// (CPU-pool time divided by the pool width, plus GPU, PCIe, SSD and
/// index-lock lane time), and its latency is queueing + service
/// against the record's `ArrivalUs` stamp. Functional behaviour
/// (shadow verification, skip counting, \p Reads) matches
/// `replayTrace`; the final flush is timed as part of the run.
TimedReplayReport replayTraceTimed(Volume &Vol, const TraceLog &Log,
                                   const ReplayConfig &Config = {},
                                   restore::ReadPipeline *Reads = nullptr);

} // namespace padre

#endif // PADRE_CORE_TRACERUNNER_H
