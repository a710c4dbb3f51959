//===----------------------------------------------------------------------===//
///
/// \file
/// The CPU-pool backend (§3.2(1)): "the compute is parallelized by the
/// CPU by assigning a computing thread that runs the previously
/// studied compression algorithm to each chunk" — one QuickLZ-class
/// codec call per chunk across the pool, store-raw when compression
/// does not pay. Its slice record carries no device ops, just the pool
/// time it charged.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_CPUBACKEND_H
#define PADRE_BACKEND_CPUBACKEND_H

#include "backend/ReductionBackend.h"
#include "obs/Obs.h"
#include "util/ThreadPool.h"


namespace padre {
namespace backend {

class CpuBackend final : public ReductionBackend {
public:
  /// \p Config is the codec configuration (matcher, sub-block
  /// framing). \p Obs sinks are optional.
  CpuBackend(const CostModel &Model, ResourceLedger &Ledger,
             ThreadPool &Pool, const CompressEngineConfig &Config,
             const obs::ObsSinks &Obs = obs::ObsSinks());

  const BackendCaps &caps() const override { return Caps; }
  double quoteCompressUs(std::uint64_t Bytes,
                         std::size_t Chunks) const override;
  void executeSlice(std::span<const ChunkView> Chunks, std::size_t Begin,
                    std::size_t End, std::vector<CompressedChunk> &Out,
                    std::vector<BatchScheduler::CompressSlice> &Slices,
                    bool Pipelined) override;
  std::uint64_t rawFallbacks() const override { return RawFallbacks; }

private:
  CostModel Model;
  ResourceLedger &Ledger;
  ThreadPool &Pool;
  CompressEngineConfig Config;
  LzCodec Codec;
  BackendCaps Caps;
  std::uint64_t RawFallbacks = 0;
  obs::Counter *RawFallbackCounter = nullptr; ///< null = disabled
  std::vector<double> ItemUs; ///< per-chunk µs of the current slice
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_CPUBACKEND_H
