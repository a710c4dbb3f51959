//===----------------------------------------------------------------------===//
///
/// \file
/// Warp-cooperative LZ decompression: O(N) header planning and the
/// per-sub-block kernel body.
///
//===----------------------------------------------------------------------===//

#include "compress/GpuWarpDecompressor.h"

#include "util/Bytes.h"

#include <cassert>

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
  for (unsigned I = 0; I < Frame->Count; ++I) {
    Plan.SubBlocks[I] = WarpSubBlock();
    Plan.SubBlocks[I].Seg = Frame->Segs[I];
  }
  return Plan;
}

namespace {

/// Token kinds for divergence tracking.
enum class TokenKind { None, Literal, Match };

} // namespace

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
    const std::size_t PayloadEnd =
        static_cast<std::size_t>(Sub.Seg.PayloadOffset) + Sub.Seg.PayloadBytes;
    const std::size_t OutputBegin = OutStart + Sub.Seg.OutputOffset;
    const std::size_t OutputEnd = OutputBegin + Sub.Seg.OutputBytes;
    if (Out.size() != OutputBegin) {
      Out.resize(OutStart);
      return false;
    }
    std::size_t Pos = Sub.Seg.PayloadOffset;
    TokenKind LastKind = TokenKind::None;
    while (Pos < PayloadEnd) {
      const std::uint8_t Control = Payload[Pos];
      if ((Control & 0x80) == 0) {
        const std::size_t Run = static_cast<std::size_t>(Control) + 1;
        if (Pos + 1 + Run > PayloadEnd || Out.size() + Run > OutputEnd) {
          Out.resize(OutStart);
          return false;
        }
        Out.insert(Out.end(), Payload.begin() + Pos + 1,
                   Payload.begin() + Pos + 1 + Run);
        Pos += 1 + Run;
        Sub.Stats.LiteralBytes += static_cast<std::uint32_t>(Run);
        Sub.Stats.LiteralRuns += 1;
        if (LastKind == TokenKind::Match)
          Sub.TokenSwitches += 1;
        LastKind = TokenKind::Literal;
      } else {
        const std::size_t Length =
            static_cast<std::size_t>(Control & 0x7F) + LzCodec::MinMatch;
        if (Pos + 3 > PayloadEnd) {
          Out.resize(OutStart);
          return false;
        }
        const std::size_t Distance = loadLe16(Payload.data() + Pos + 1);
        // The history reset makes cross-sub-block distances impossible
        // in a well-formed frame; reaching before OutputBegin is
        // corruption, not a dependency.
        if (Distance == 0 || Distance > Out.size() - OutputBegin ||
            Out.size() + Length > OutputEnd) {
          Out.resize(OutStart);
          return false;
        }
        if (Distance < Length)
          Sub.OverlapMatches += 1;
        // Byte-by-byte: overlapping copies (distance < length)
        // replicate the window, as in LzCodec::decompress.
        for (std::size_t I = 0; I < Length; ++I)
          Out.push_back(Out[Out.size() - Distance]);
        Pos += 3;
        Sub.Stats.MatchBytes += static_cast<std::uint32_t>(Length);
        Sub.Stats.Matches += 1;
        if (LastKind == TokenKind::Literal)
          Sub.TokenSwitches += 1;
        LastKind = TokenKind::Match;
      }
    }
    if (Out.size() != OutputEnd) {
      Out.resize(OutStart);
      return false;
    }
    Sub.Tokens = Sub.Stats.LiteralRuns + Sub.Stats.Matches;
  }

  if (Out.size() - OutStart != Plan.OriginalSize) {
    Out.resize(OutStart);
    return false;
  }
  return true;
}
