//===----------------------------------------------------------------------===//
///
/// \file
/// Warp-cooperative LZ decompression: O(N) header planning and the
/// per-sub-block kernel body over the shared LZ decoder.
///
//===----------------------------------------------------------------------===//

#include "compress/GpuWarpDecompressor.h"

using namespace padre;

std::optional<GpuWarpPlan>
GpuWarpDecompressor::plan(ByteSpan Payload, std::size_t OriginalSize,
                          std::span<WarpSubBlock> Table) {
  if (OriginalSize > LzCodec::MaxInputSize)
    return std::nullopt;
  const auto Frame =
      parseSubBlockFrame(Payload, static_cast<std::uint32_t>(OriginalSize));
  if (!Frame)
    return std::nullopt;
  if (Table.size() < Frame->Count)
    return std::nullopt;

  GpuWarpPlan Plan;
  Plan.OriginalSize = OriginalSize;
  Plan.PayloadSize = Payload.size();
  Plan.SubBlocks = Table.first(Frame->Count);
  for (unsigned I = 0; I < Frame->Count; ++I)
    Plan.SubBlocks[I] = WarpSubBlock{{}, Frame->Segs[I]};
  return Plan;
}

bool GpuWarpDecompressor::runWarps(ByteSpan Payload, GpuWarpPlan &Plan,
                                   ByteVector &Out) {
  if (Plan.PayloadSize != Payload.size())
    return false;

  const std::size_t OutStart = Out.size();
  Out.reserve(OutStart + Plan.OriginalSize);

  // Sub-blocks are decoded in order here, but each one reads only its
  // own output window — the history reset at compress time means a
  // real device would run them on concurrent warps with no ordering.
  for (WarpSubBlock &Sub : Plan.SubBlocks) {
    if (Out.size() - OutStart != Sub.Seg.OutputOffset ||
        !LzCodec::decompress(
            Payload.subspan(Sub.Seg.PayloadOffset, Sub.Seg.PayloadBytes),
            Sub.Seg.OutputBytes, Out, &Sub)) {
      Out.resize(OutStart);
      return false;
    }
  }

  if (Out.size() - OutStart != Plan.OriginalSize) {
    Out.resize(OutStart);
    return false;
  }
  return true;
}
