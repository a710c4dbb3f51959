//===----------------------------------------------------------------------===//
///
/// \file
/// Method-dispatching chunk decode: the one place that knows how every
/// BlockMethod's payload maps back to chunk bytes.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_COMPRESS_CHUNKCODEC_H
#define PADRE_COMPRESS_CHUNKCODEC_H

#include "compress/Block.h"

namespace padre {

/// Decodes \p View into exactly `View.OriginalSize` chunk bytes
/// appended to \p Out. Returns false on malformed payloads and on the
/// retired method (BlockMethod::Retired), leaving \p Out untouched.
bool decodeChunkPayload(const BlockView &View, ByteVector &Out);

} // namespace padre

#endif // PADRE_COMPRESS_CHUNKCODEC_H
