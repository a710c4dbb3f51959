//===----------------------------------------------------------------------===//
///
/// \file
/// The portable reduction-backend interface — the compress stage's one
/// execution layer, between the pipeline's splitter and the batch
/// scheduler (DESIGN.md decision 17). A backend is one parallel
/// execution substrate (the CPU pool, or N >= 1 modelled GPUs) behind
/// three operations:
///
///   * caps()             — static capabilities (name, device count),
///   * quoteCompressUs()  — a modelled cost quote from the static
///                          CostModel constants, used to seed the
///                          AutoSplitter's tuner before any observation
///                          exists,
///   * executeSlice()     — run one contiguous slice of a batch
///                          functionally (charging the ledger) and
///                          append the BatchScheduler::CompressSlice
///                          records that replay it onto the timeline.
///
/// Slice ownership: the splitter owns the full batch's output vector
/// and hands each backend a [Begin, End) range; backends write only
/// their range, so slices compose into exactly the output of one
/// backend running the whole batch, no matter how the batch was
/// partitioned (the bit-exactness bar of tests/test_backend.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_REDUCTIONBACKEND_H
#define PADRE_BACKEND_REDUCTIONBACKEND_H

#include "backend/BackendConfig.h"
#include "chunk/Chunker.h"
#include "core/BatchScheduler.h"

#include <cstdint>
#include <span>
#include <vector>

namespace padre {
namespace backend {

/// Static backend capabilities.
struct BackendCaps {
  /// Short stable name ("cpu", "gpu", "gpu2", ...). Static storage.
  const char *Name = "cpu";
  /// Span label ("backend:cpu", ...). Static storage: the trace
  /// recorder never copies names and may outlive the backend.
  const char *SpanName = "backend:cpu";
  /// Modelled GPUs this backend drives (0 = pure CPU).
  unsigned DeviceCount = 0;
};

/// One parallel execution substrate for the compression stage.
class ReductionBackend {
public:
  virtual ~ReductionBackend() = default;

  virtual const BackendCaps &caps() const = 0;

  /// Modelled stage time (µs, at the backend's full width) to compress
  /// \p Chunks chunks totalling \p Bytes payload bytes — a static
  /// quote from the CostModel constants, pessimistic (all-literal
  /// data). Only used to seed the tuner; observed rates take over
  /// after the first batch.
  virtual double quoteCompressUs(std::uint64_t Bytes,
                                 std::size_t Chunks) const = 0;

  /// Compresses Chunks[Begin, End) into Out[Begin, End) functionally,
  /// charging the ledger, and appends one or more CompressSlice
  /// records (op chains, CPU attribution, device lanes) to \p Slices
  /// for the scheduler's timeline replay. \p Out must be pre-sized to
  /// Chunks.size(). With \p Pipelined the backend may emit one record
  /// per device sub-batch so refinement overlaps later kernels; without
  /// it the slice is one record per device — the shape the forced and
  /// fixed splits replay. Device faults are absorbed per sub-batch (CPU
  /// re-compression), so results are bit-exact either way.
  virtual void
  executeSlice(std::span<const ChunkView> Chunks, std::size_t Begin,
               std::size_t End, std::vector<CompressedChunk> &Out,
               std::vector<BatchScheduler::CompressSlice> &Slices,
               bool Pipelined) = 0;

  /// Cumulative store-raw fallbacks of this backend.
  virtual std::uint64_t rawFallbacks() const = 0;

  /// Cumulative device-fault CPU re-compressions (0 for pure CPU).
  virtual std::uint64_t deviceFallbacks() const { return 0; }

  /// Rewinds backend-owned timeline state (extra devices' staging
  /// slots) in lockstep with BatchScheduler::reset.
  virtual void resetTimelineState() {}
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_REDUCTIONBACKEND_H
