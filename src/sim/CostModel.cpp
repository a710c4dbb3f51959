//===----------------------------------------------------------------------===//
///
/// \file
/// Cost model validation.
///
//===----------------------------------------------------------------------===//

#include "sim/CostModel.h"

#include <cmath>

using namespace padre;

namespace padre {

/// Returns true if every constant in \p Model is finite and positive
/// (or, for counts, nonzero). Used by engine constructors to reject
/// nonsensical user-supplied models early.
bool isValidCostModel(const CostModel &Model) {
  const double Values[] = {
      Model.Cpu.RequestOverheadUs, Model.Cpu.ChunkingPerByteNs,
      Model.Cpu.HashPerByteNs,     Model.Cpu.IndexProbeUs,
      Model.Cpu.IndexProbeHotUs,   Model.Cpu.IndexProbeBufferUs,
      Model.Cpu.IndexMaintainUs,
      Model.Cpu.LzSetupUs,         Model.Cpu.LzLiteralPerByteNs,
      Model.Cpu.LzMatchPerByteNs,  Model.Cpu.PostSetupUs,
      Model.Cpu.PostPerByteNs,     Model.Cpu.StoreRawPostUs,
      Model.Cpu.DecompressPerByteNs, Model.Cpu.VerifyPerByteNs,
      Model.Cpu.CacheCopyPerByteNs,
      Model.Cpu.DecompressSetupUs, Model.Cpu.FramePlanUs,
      Model.Gpu.LaunchUs,          Model.Gpu.HashPerByteNs,
      Model.Gpu.ProbePerEntryUs,   Model.Gpu.LaneSetupNs,
      Model.Gpu.LzLiteralPerByteNs, Model.Gpu.LzMatchPerByteNs,
      Model.Gpu.WarpSubBlockSetupNs, Model.Gpu.WarpReaderPerTokenNs,
      Model.Gpu.WarpDecoderPerByteNs, Model.Gpu.WarpDivergencePerTokenNs,
      Model.Gpu.WarpOverlapPerMatchNs, Model.Gpu.WarpSyncNs,
      Model.Gpu.WarpDoorbellUs,
      Model.Gpu.MixedKernelPenalty, Model.Gpu.DeviceMemoryMiB,
      Model.Pcie.GigabytesPerSec,  Model.Pcie.PerTransferUs,
      Model.Ssd.SeqWriteMBps,      Model.Ssd.SeqReadMBps,
      Model.Ssd.RandWrite4KUs,     Model.Ssd.RandRead4KUs,
      Model.Ssd.SeqCommandUs,      Model.Ssd.SequentialWaf,
      Model.Ssd.RandomWaf,         Model.Ssd.FtlGcPageReadUs,
      Model.Ssd.FtlGcPageProgramUs, Model.Ssd.FtlBlockEraseUs};
  for (double Value : Values)
    if (!std::isfinite(Value) || Value <= 0.0)
      return false;
  return Model.Cpu.Threads > 0 && Model.Gpu.DedupBatchChunks > 0 &&
         Model.Gpu.CompressBatchChunks > 0 &&
         Model.Gpu.DecompressBatchChunks > 0 &&
         Model.Gpu.MixedKernelPenalty >= 1.0;
}

} // namespace padre
