//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected). Used as the
/// integrity check on compressed block payloads and SSD destage records.
///
/// `crc32c` runs on the SSE4.2 CRC32 instruction when the CPU has it,
/// chosen once per process, else on the portable table-driven loop;
/// `crc32cScalar` is that loop, the oracle the hardware path is tested
/// against.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_HASH_CRC32_H
#define PADRE_HASH_CRC32_H

#include "util/Bytes.h"

#include <cstdint>

namespace padre {

/// CRC-32C of \p Data, continuing from \p Seed (pass the previous result
/// to process data in pieces; the default seed starts a fresh CRC).
std::uint32_t crc32c(ByteSpan Data, std::uint32_t Seed = 0);

/// The portable table-driven CRC-32C; same contract as `crc32c`.
std::uint32_t crc32cScalar(ByteSpan Data, std::uint32_t Seed = 0);

/// The path `crc32c` takes on this CPU: "sse4.2" or "scalar".
const char *crc32cPath();

} // namespace padre

#endif // PADRE_HASH_CRC32_H
