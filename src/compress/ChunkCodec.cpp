//===----------------------------------------------------------------------===//
///
/// \file
/// Chunk payload codec dispatch.
///
//===----------------------------------------------------------------------===//

#include "compress/ChunkCodec.h"

#include "compress/LzCodec.h"
#include "compress/SubBlockFrame.h"

#include <cassert>

using namespace padre;

bool padre::decodeChunkPayload(const BlockView &View, ByteVector &Out) {
  switch (View.Method) {
  case BlockMethod::Raw:
    Out.insert(Out.end(), View.Payload.begin(), View.Payload.end());
    return true;
  case BlockMethod::Lz77:
  case BlockMethod::QuickLz:
  case BlockMethod::GpuLane:
    return LzCodec::decompress(View.Payload, View.OriginalSize, Out);
  case BlockMethod::Retired:
    return false;
  case BlockMethod::LzFramed: {
    // The serial oracle for the v2 format: each sub-block is a
    // standalone LZ stream decoded in order. Any failure rolls the
    // whole chunk back so no partial output leaks.
    const auto Frame = parseSubBlockFrame(View.Payload, View.OriginalSize);
    if (!Frame)
      return false;
    const std::size_t OutStart = Out.size();
    for (unsigned I = 0; I < Frame->Count; ++I) {
      if (!LzCodec::decompress(Frame->tokens(I), Frame->Segs[I].OutputBytes,
                               Out)) {
        Out.resize(OutStart);
        return false;
      }
    }
    return true;
  }
  }
  assert(false && "Unknown block method");
  return false;
}
