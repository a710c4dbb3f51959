//===----------------------------------------------------------------------===//
///
/// \file
/// Serial-oracle property-test harness for the fingerprint index:
/// replay one operation sequence against two DedupIndex instances —
/// the oracle on a one-thread pool, the candidate on a pool that cuts
/// the bin space into several worker slices — and diff everything
/// observable: per-op outcomes (including buffer depths and duplicate
/// locations), flush-event streams, cumulative counters, occupancy,
/// and the CPU-lane ledger charge each batch's outcomes would produce
/// in the dedup engine.
///
/// The harness is how "the bin-parallel processBatch is
/// observationally serial" is made a checkable property instead of a
/// comment: test_index drives it across worker counts, bounded bins
/// and GPU-resolved batches. Any divergence fails with the op number
/// via SCOPED_TRACE, so a shrinking seed hunt is a one-line loop.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_TESTS_ORACLECHECK_H
#define PADRE_TESTS_ORACLECHECK_H

#include "index/DedupIndex.h"
#include "sim/CostModel.h"
#include "util/Bytes.h"
#include "util/Random.h"
#include "util/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace padre {
namespace oracle {

/// One replayable index operation.
enum class OpKind : std::uint8_t {
  Batch,    ///< processBatch over Fps/Locations (KnownDuplicate optional)
  Upsert,   ///< single insert-if-absent of Fps[0]
  Remove,   ///< single removal of Fps[0]
  Lookup,   ///< read-only probe of Fps[0]
  FlushAll, ///< end-of-run drain of every bin buffer
};

struct IndexOp {
  OpKind Kind = OpKind::Batch;
  std::vector<Fingerprint> Fps;
  std::vector<std::uint64_t> Locations;
  /// Same length as Fps or empty (Batch only): GPU-resolved markers.
  std::vector<std::uint8_t> KnownDuplicate;
};

/// Deterministic fingerprint for an integer identity.
inline Fingerprint fingerprintOf(std::uint64_t Value) {
  std::uint8_t Data[8];
  storeLe64(Data, Value);
  return Fingerprint::ofData(ByteSpan(Data, 8));
}

/// Generates a seeded random op sequence: mostly batches (sizes
/// 1..MaxBatch, identities from [0, Universe) so duplicates recur),
/// sprinkled with single-item upserts, removals, read-only lookups and
/// the occasional full drain. \p WithKnown marks ~1/8 of batch items as
/// GPU-resolved, exercising the DupGpu bypass.
inline std::vector<IndexOp> randomOps(Random &Rng, std::size_t OpCount,
                                      std::uint64_t Universe,
                                      std::size_t MaxBatch = 48,
                                      bool WithKnown = false) {
  std::vector<IndexOp> Ops;
  Ops.reserve(OpCount);
  std::uint64_t NextLocation = 0;
  for (std::size_t I = 0; I < OpCount; ++I) {
    IndexOp Op;
    const std::uint64_t Roll = Rng.nextBelow(16);
    if (Roll < 10) {
      Op.Kind = OpKind::Batch;
      const std::size_t Size = 1 + Rng.nextBelow(MaxBatch);
      for (std::size_t J = 0; J < Size; ++J) {
        Op.Fps.push_back(fingerprintOf(Rng.nextBelow(Universe)));
        Op.Locations.push_back(NextLocation++);
      }
      if (WithKnown) {
        Op.KnownDuplicate.assign(Size, 0);
        for (std::size_t J = 0; J < Size; ++J)
          Op.KnownDuplicate[J] = Rng.nextBelow(8) == 0 ? 1 : 0;
      }
    } else if (Roll < 12) {
      Op.Kind = OpKind::Upsert;
      Op.Fps.push_back(fingerprintOf(Rng.nextBelow(Universe)));
      Op.Locations.push_back(NextLocation++);
    } else if (Roll < 14) {
      Op.Kind = OpKind::Remove;
      Op.Fps.push_back(fingerprintOf(Rng.nextBelow(Universe)));
    } else if (Roll < 15) {
      Op.Kind = OpKind::Lookup;
      Op.Fps.push_back(fingerprintOf(Rng.nextBelow(Universe)));
    } else {
      Op.Kind = OpKind::FlushAll;
    }
    Ops.push_back(std::move(Op));
  }
  return Ops;
}

/// The dedup engine's CPU index charge for one batch's outcomes
/// (DedupEngine::processBatch's formula, microseconds). Equal outcomes
/// must imply bit-equal ledger charges — this is the "same ledger
/// charges" half of observational equivalence.
inline double indexChargeUs(const CostModel &Model,
                            std::span<const LookupResult> Results,
                            std::span<const std::uint8_t> KnownDuplicate) {
  std::size_t BufferHits = 0;
  std::size_t FullProbes = 0;
  std::size_t Uniques = 0;
  for (std::size_t I = 0; I < Results.size(); ++I) {
    if (!KnownDuplicate.empty() && KnownDuplicate[I])
      continue;
    if (Results[I].Outcome == LookupOutcome::DupBuffer)
      ++BufferHits;
    else
      ++FullProbes;
    if (Results[I].Outcome == LookupOutcome::Unique)
      ++Uniques;
  }
  return static_cast<double>(BufferHits) * Model.Cpu.IndexProbeBufferUs +
         static_cast<double>(FullProbes) * Model.Cpu.IndexProbeUs +
         static_cast<double>(Uniques) * Model.Cpu.IndexMaintainUs;
}

/// Diffs two flush-event streams bit-for-bit (order included: flush
/// order drives SSD log writes and GPU table updates).
inline void expectSameFlushes(const std::vector<FlushEvent> &Expected,
                              const std::vector<FlushEvent> &Actual) {
  ASSERT_EQ(Expected.size(), Actual.size());
  for (std::size_t I = 0; I < Expected.size(); ++I) {
    SCOPED_TRACE("flush " + std::to_string(I));
    EXPECT_EQ(Expected[I].Bin, Actual[I].Bin);
    EXPECT_EQ(Expected[I].Suffixes, Actual[I].Suffixes);
    EXPECT_EQ(Expected[I].Locations, Actual[I].Locations);
  }
}

/// Diffs every cumulative counter and occupancy total two indexes
/// expose.
inline void expectSameTotals(const DedupIndex &Oracle,
                             const DedupIndex &Candidate) {
  EXPECT_EQ(Oracle.bufferHits(), Candidate.bufferHits());
  EXPECT_EQ(Oracle.treeHits(), Candidate.treeHits());
  EXPECT_EQ(Oracle.gpuHits(), Candidate.gpuHits());
  EXPECT_EQ(Oracle.uniqueInserts(), Candidate.uniqueInserts());
  EXPECT_EQ(Oracle.evictions(), Candidate.evictions());
  EXPECT_EQ(Oracle.treeEntries(), Candidate.treeEntries());
  EXPECT_EQ(Oracle.memoryBytes(), Candidate.memoryBytes());
}

/// Replays \p Ops against both indexes (each batch on its own pool),
/// diffing per-op results, flush events, modelled ledger charges, and
/// running totals after every op.
inline void replayAndCompare(DedupIndex &Oracle, ThreadPool &OraclePool,
                             DedupIndex &Candidate,
                             ThreadPool &CandidatePool,
                             std::span<const IndexOp> Ops) {
  const CostModel Model;
  std::vector<FlushEvent> OracleFlush;
  std::vector<FlushEvent> CandidateFlush;
  std::vector<LookupResult> OracleResults;
  std::vector<LookupResult> CandidateResults;
  for (std::size_t OpIdx = 0; OpIdx < Ops.size(); ++OpIdx) {
    const IndexOp &Op = Ops[OpIdx];
    SCOPED_TRACE("op " + std::to_string(OpIdx));
    OracleFlush.clear();
    CandidateFlush.clear();
    switch (Op.Kind) {
    case OpKind::Batch: {
      const std::size_t Size = Op.Fps.size();
      OracleResults.assign(Size, LookupResult());
      CandidateResults.assign(Size, LookupResult());
      Oracle.processBatch(Op.Fps, Op.Locations, Op.KnownDuplicate,
                          OraclePool, OracleResults, OracleFlush);
      Candidate.processBatch(Op.Fps, Op.Locations, Op.KnownDuplicate,
                             CandidatePool, CandidateResults,
                             CandidateFlush);
      for (std::size_t I = 0; I < Size; ++I) {
        SCOPED_TRACE("item " + std::to_string(I));
        EXPECT_EQ(OracleResults[I].Outcome, CandidateResults[I].Outcome);
        EXPECT_EQ(OracleResults[I].Location, CandidateResults[I].Location);
        EXPECT_EQ(OracleResults[I].BufferDepth,
                  CandidateResults[I].BufferDepth);
      }
      EXPECT_EQ(indexChargeUs(Model, OracleResults, Op.KnownDuplicate),
                indexChargeUs(Model, CandidateResults, Op.KnownDuplicate));
      break;
    }
    case OpKind::Upsert: {
      const LookupResult A =
          Oracle.upsert(Op.Fps[0], Op.Locations[0], OracleFlush);
      const LookupResult B =
          Candidate.upsert(Op.Fps[0], Op.Locations[0], CandidateFlush);
      EXPECT_EQ(A.Outcome, B.Outcome);
      EXPECT_EQ(A.Location, B.Location);
      EXPECT_EQ(A.BufferDepth, B.BufferDepth);
      break;
    }
    case OpKind::Remove:
      EXPECT_EQ(Oracle.remove(Op.Fps[0]), Candidate.remove(Op.Fps[0]));
      break;
    case OpKind::Lookup:
      EXPECT_EQ(Oracle.lookup(Op.Fps[0]), Candidate.lookup(Op.Fps[0]));
      break;
    case OpKind::FlushAll:
      Oracle.flushAll(OracleFlush);
      Candidate.flushAll(CandidateFlush);
      break;
    }
    expectSameFlushes(OracleFlush, CandidateFlush);
    expectSameTotals(Oracle, Candidate);
  }
}

/// Builds two indexes from \p Config and replays \p Ops: the oracle's
/// batches run on one thread, the candidate's on \p CandidateThreads
/// workers, each owning a contiguous slice of the bin space.
inline void replayAcrossThreads(const DedupIndexConfig &Config,
                                std::span<const IndexOp> Ops,
                                unsigned CandidateThreads = 4) {
  DedupIndex Oracle(Config);
  DedupIndex Candidate(Config);
  ThreadPool OraclePool(1);
  ThreadPool CandidatePool(CandidateThreads);
  replayAndCompare(Oracle, OraclePool, Candidate, CandidatePool, Ops);
}

} // namespace oracle
} // namespace padre

#endif // PADRE_TESTS_ORACLECHECK_H
