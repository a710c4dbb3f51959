//===----------------------------------------------------------------------===//
///
/// \file
/// Trace replay implementation.
///
//===----------------------------------------------------------------------===//

#include "core/TraceRunner.h"

#include "core/ReductionPipeline.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace padre;

namespace {

/// Applies trace records to a volume while keeping the shadow tag map
/// every read is verified against — the loop body both replays share.
class ShadowReplay {
public:
  ShadowReplay(Volume &Vol, bool RawWrites, restore::ReadPipeline *Reads)
      : Vol(Vol), RawWrites(RawWrites), Reads(Reads),
        BlockSize(Vol.blockSize()), Shadow(Vol.blockCount(), Unwritten),
        Expected(BlockSize) {}

  /// Applies \p Record, counting it into \p Stats. Returns false (and
  /// counts OutOfRange) when its LBA range exceeds the volume.
  bool apply(const TraceRecord &Record, TraceRunStats &Stats);

private:
  /// Shadow tag of a block that was never written (or was trimmed).
  static constexpr std::uint64_t Unwritten = ~0ull;

  Volume &Vol;
  bool RawWrites;
  restore::ReadPipeline *Reads;
  std::size_t BlockSize;
  /// The content tag each block should hold.
  std::vector<std::uint64_t> Shadow;
  ByteVector WriteBuffer;
  ByteVector Expected;
};

bool ShadowReplay::apply(const TraceRecord &Record, TraceRunStats &Stats) {
  if (Record.Lba + Record.Blocks > Vol.blockCount() ||
      Record.Lba + Record.Blocks < Record.Lba) {
    ++Stats.OutOfRange;
    return false;
  }
  switch (Record.Op) {
  case TraceOp::Write: {
    WriteBuffer.resize(static_cast<std::size_t>(Record.Blocks) * BlockSize);
    for (std::uint32_t I = 0; I < Record.Blocks; ++I) {
      fillTraceBlock(Record.ContentTag,
                     MutableByteSpan(WriteBuffer.data() + I * BlockSize,
                                     BlockSize));
      Shadow[Record.Lba + I] = Record.ContentTag;
    }
    const ByteSpan Data(WriteBuffer.data(), WriteBuffer.size());
    [[maybe_unused]] const bool Ok =
        RawWrites ? Vol.writeBlocksRaw(Record.Lba, Data)
                  : Vol.writeBlocks(Record.Lba, Data);
    assert(Ok && "In-range write must succeed");
    ++Stats.Writes;
    Stats.BlocksWritten += Record.Blocks;
    break;
  }
  case TraceOp::Read: {
    const auto Data = Vol.readBlocks(Record.Lba, Record.Blocks, Reads);
    ++Stats.Reads;
    Stats.BlocksRead += Record.Blocks;
    if (!Data) {
      ++Stats.ReadFailures;
      break;
    }
    for (std::uint32_t I = 0; I < Record.Blocks; ++I) {
      const std::uint64_t Tag = Shadow[Record.Lba + I];
      if (Tag == Unwritten) {
        // Unmapped blocks must read as zeros.
        bool AllZero = true;
        for (std::size_t B = 0; B < BlockSize && AllZero; ++B)
          AllZero = (*Data)[I * BlockSize + B] == 0;
        if (!AllZero)
          ++Stats.VerifyFailures;
        continue;
      }
      fillTraceBlock(Tag, MutableByteSpan(Expected.data(), BlockSize));
      if (std::memcmp(Data->data() + I * BlockSize, Expected.data(),
                      BlockSize) != 0)
        ++Stats.VerifyFailures;
    }
    break;
  }
  case TraceOp::Trim: {
    [[maybe_unused]] const bool Ok = Vol.trim(Record.Lba, Record.Blocks);
    assert(Ok && "In-range trim must succeed");
    for (std::uint32_t I = 0; I < Record.Blocks; ++I)
      Shadow[Record.Lba + I] = Unwritten;
    ++Stats.Trims;
    break;
  }
  }
  return true;
}

/// Total modelled busy time an op would serialize behind: the shared
/// CPU pool contributes its busy time divided by the pool width (the
/// lanes run in parallel), the device lanes contribute theirs whole.
double modelledBusyUs(const ResourceLedger &Ledger, double CpuThreads) {
  return Ledger.busyMicros(Resource::CpuPool) / CpuThreads +
         Ledger.busyMicros(Resource::Gpu) +
         Ledger.busyMicros(Resource::Pcie) +
         Ledger.busyMicros(Resource::Ssd) +
         Ledger.busyMicros(Resource::IndexLock);
}

/// Exact percentile of a sorted sample (nearest-rank on N-1).
double percentileOf(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  const std::size_t Idx = static_cast<std::size_t>(
      P * static_cast<double>(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

} // namespace

TraceRunStats padre::replayTrace(Volume &Vol, const TraceLog &Log,
                                 restore::ReadPipeline *Reads) {
  TraceRunStats Stats;
  ShadowReplay Replay(Vol, /*RawWrites=*/false, Reads);
  for (const TraceRecord &Record : Log.Records)
    Replay.apply(Record, Stats);
  return Stats;
}

TimedReplayReport padre::replayTraceTimed(Volume &Vol, const TraceLog &Log,
                                          const ReplayConfig &Config,
                                          restore::ReadPipeline *Reads) {
  TimedReplayReport Report;
  ResourceLedger &Ledger = Vol.pipelineForMaintenance().ledger();
  const double CpuThreads = static_cast<double>(
      Vol.pipelineForMaintenance().platform().Model.Cpu.Threads);
  ShadowReplay Replay(Vol, Config.RawWrites, Reads);

  std::vector<double> Latencies;
  Latencies.reserve(Log.Records.size());
  double Clock = 0.0; // completion clock of the open-loop queue
  std::uint64_t OpIndex = 0;
  for (const TraceRecord &Record : Log.Records) {
    ++OpIndex;
    const double BusyBefore = modelledBusyUs(Ledger, CpuThreads);
    if (!Replay.apply(Record, Report.Stats))
      continue;
    if (Config.GcEveryOps != 0 && OpIndex % Config.GcEveryOps == 0) {
      Report.ChunksCollected += Vol.collectGarbage();
      ++Report.GcRuns;
    }
    // Open-loop queue: the op starts when it arrives or when the
    // device frees up, whichever is later; latency is queueing plus
    // this op's modelled service time.
    const double ServiceUs =
        modelledBusyUs(Ledger, CpuThreads) - BusyBefore;
    const double Arrival = static_cast<double>(Record.ArrivalUs);
    Clock = std::max(Clock, Arrival) + ServiceUs;
    Latencies.push_back(Clock - Arrival);
    Report.ServiceUs += ServiceUs;
  }
  // Drain buffered batches so their destage cost is on the clock.
  {
    const double BusyBefore = modelledBusyUs(Ledger, CpuThreads);
    Vol.flush();
    const double FlushUs = modelledBusyUs(Ledger, CpuThreads) - BusyBefore;
    Clock += FlushUs;
    Report.ServiceUs += FlushUs;
  }
  Report.WallUs = Clock;
  if (!Latencies.empty()) {
    std::sort(Latencies.begin(), Latencies.end());
    Report.P50Us = percentileOf(Latencies, 0.50);
    Report.P95Us = percentileOf(Latencies, 0.95);
    Report.P99Us = percentileOf(Latencies, 0.99);
    Report.MaxUs = Latencies.back();
    double Sum = 0.0;
    for (double L : Latencies)
      Sum += L;
    Report.MeanUs = Sum / static_cast<double>(Latencies.size());
  }
  return Report;
}
