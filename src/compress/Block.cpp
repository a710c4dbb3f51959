//===----------------------------------------------------------------------===//
///
/// \file
/// Block encode/decode implementation.
///
//===----------------------------------------------------------------------===//

#include "compress/Block.h"

#include "hash/Crc32.h"

#include <cassert>

using namespace padre;

static constexpr std::uint16_t BlockMagic = 0x4450; // "PD"

const char *padre::blockMethodName(BlockMethod Method) {
  switch (Method) {
  case BlockMethod::Raw:
    return "raw";
  case BlockMethod::Lz77:
    return "lz77";
  case BlockMethod::QuickLz:
    return "quicklz";
  case BlockMethod::GpuLane:
    return "gpulane";
  case BlockMethod::Retired:
    return "retired";
  case BlockMethod::LzFramed:
    return "lzframed";
  }
  assert(false && "Unknown block method");
  return "?";
}

ByteVector padre::encodeBlock(BlockMethod Method, std::uint32_t OriginalSize,
                              ByteSpan Payload) {
  ByteVector Out(BlockHeaderSize + Payload.size());
  storeLe16(Out.data(), BlockMagic);
  Out[2] = static_cast<std::uint8_t>(Method);
  Out[3] = 0;
  storeLe32(Out.data() + 4, OriginalSize);
  storeLe32(Out.data() + 8, static_cast<std::uint32_t>(Payload.size()));
  storeLe32(Out.data() + 12, crc32c(Payload));
  std::copy(Payload.begin(), Payload.end(), Out.begin() + BlockHeaderSize);
  return Out;
}

std::optional<BlockView> padre::decodeBlock(ByteSpan Encoded) {
  if (Encoded.size() < BlockHeaderSize)
    return std::nullopt;
  if (loadLe16(Encoded.data()) != BlockMagic)
    return std::nullopt;
  const std::uint8_t MethodByte = Encoded[2];
  if (MethodByte > static_cast<std::uint8_t>(BlockMethod::LzFramed))
    return std::nullopt;
  if (Encoded[3] != 0)
    return std::nullopt; // reserved flags must be zero
  const std::uint32_t OriginalSize = loadLe32(Encoded.data() + 4);
  const std::uint32_t PayloadSize = loadLe32(Encoded.data() + 8);
  if (Encoded.size() != BlockHeaderSize + PayloadSize)
    return std::nullopt;
  const ByteSpan Payload = Encoded.subspan(BlockHeaderSize, PayloadSize);
  if (crc32c(Payload) != loadLe32(Encoded.data() + 12))
    return std::nullopt;
  const auto Method = static_cast<BlockMethod>(MethodByte);
  if (Method == BlockMethod::Raw && PayloadSize != OriginalSize)
    return std::nullopt;
  return BlockView{Method, OriginalSize, Payload};
}
