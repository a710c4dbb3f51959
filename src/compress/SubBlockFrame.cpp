//===----------------------------------------------------------------------===//
///
/// \file
/// Sub-block frame header parse/serialise.
///
//===----------------------------------------------------------------------===//

#include "compress/SubBlockFrame.h"

#include "compress/LzCodec.h"

#include <cassert>

using namespace padre;

std::optional<SubBlockFrameView>
padre::parseSubBlockFrame(ByteSpan Payload, std::uint32_t OriginalSize) {
  if (Payload.size() < subBlockHeaderSize(1))
    return std::nullopt;
  if (Payload[0] != SubBlockFrameMagic)
    return std::nullopt;
  if (Payload[1] != SubBlockFrameVersion)
    return std::nullopt;
  const unsigned Count = Payload[2];
  if (Count < 1 || Count > MaxSubBlocks)
    return std::nullopt;
  if (Payload[3] != 0)
    return std::nullopt; // reserved must be zero
  const std::size_t HeaderSize = subBlockHeaderSize(Count);
  if (Payload.size() < HeaderSize)
    return std::nullopt;

  SubBlockFrameView View;
  View.Payload = Payload;
  View.Count = Count;
  std::uint64_t PayloadSum = 0;
  std::uint64_t OutputSum = 0;
  for (unsigned I = 0; I < Count; ++I) {
    SubBlockSeg &Seg = View.Segs[I];
    Seg.PayloadBytes = loadLe16(Payload.data() + 4 + 4 * I);
    // Stored minus one, so [1, MaxInputSize] needs no range check.
    Seg.OutputBytes =
        static_cast<std::uint32_t>(loadLe16(Payload.data() + 4 + 4 * I + 2)) +
        1;
    // A sub-block that decodes to at least one byte needs at least a
    // control byte and a literal; a zero-length token stream is
    // corruption, not a degenerate split.
    if (Seg.PayloadBytes == 0)
      return std::nullopt;
    Seg.PayloadOffset = static_cast<std::uint32_t>(HeaderSize + PayloadSum);
    Seg.OutputOffset = static_cast<std::uint32_t>(OutputSum);
    PayloadSum += Seg.PayloadBytes;
    OutputSum += Seg.OutputBytes;
    if (PayloadSum > Payload.size() || OutputSum > OriginalSize)
      return std::nullopt;
  }
  if (HeaderSize + PayloadSum != Payload.size())
    return std::nullopt;
  if (OutputSum != OriginalSize)
    return std::nullopt;
  return View;
}

ByteVector padre::frameSubBlocks(std::span<const CompressResult> SubBlocks) {
  const auto Count = static_cast<unsigned>(SubBlocks.size());
  assert(Count >= 1 && Count <= MaxSubBlocks && "Sub-block count out of range");
  std::size_t StreamBytes = 0;
  for (const CompressResult &Sub : SubBlocks)
    StreamBytes += Sub.Payload.size();
  ByteVector Out(subBlockHeaderSize(Count));
  Out.reserve(Out.size() + StreamBytes);
  Out[0] = SubBlockFrameMagic;
  Out[1] = SubBlockFrameVersion;
  Out[2] = static_cast<std::uint8_t>(Count);
  Out[3] = 0;
  for (unsigned I = 0; I < Count; ++I) {
    const std::size_t PayloadBytes = SubBlocks[I].Payload.size();
    const std::size_t OutputBytes =
        SubBlocks[I].Stats.LiteralBytes + SubBlocks[I].Stats.MatchBytes;
    assert(PayloadBytes >= 1 && PayloadBytes <= MaxSubBlockPayload &&
           "Sub-block payload outside the u16 header range");
    assert(OutputBytes >= 1 && OutputBytes <= LzCodec::MaxInputSize &&
           "Sub-block output outside the format range");
    storeLe16(Out.data() + 4 + 4 * I,
              static_cast<std::uint16_t>(PayloadBytes));
    storeLe16(Out.data() + 4 + 4 * I + 2,
              static_cast<std::uint16_t>(OutputBytes - 1));
  }
  for (const CompressResult &Sub : SubBlocks)
    Out.insert(Out.end(), Sub.Payload.begin(), Sub.Payload.end());
  return Out;
}
