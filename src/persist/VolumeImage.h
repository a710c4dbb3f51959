//===----------------------------------------------------------------------===//
///
/// \file
/// Volume image persistence: serializes a volume (LBA mapping +
/// reference table) together with its pipeline's chunk store into a
/// single self-validating file, and restores both — rebuilding the
/// dedup index from the persisted fingerprints so dedup continues
/// across remounts.
///
/// Image format (little-endian):
///   superblock: u64 magic "PADREIM1", u32 version, u32 chunk size,
///               u64 block count, u64 chunk count, u64 mapped count
///   chunk records: u64 location, u32 encoded size, u32 refs,
///                  20-byte fingerprint, encoded block bytes
///   mapping records: u64 lba, u64 location   (mapped LBAs only)
///   snapshot tables: u64 count, then per snapshot u64 id,
///                    u64 mapped count, sparse mapping records
///   snapshot-id counter: u64 next snapshot id (monotonic across
///                        deletes — not derivable from the tables)
///   trailer: u32 CRC-32C over everything before it
///
/// The span-based encode/decode pair is the primitive layer — the
/// journal's checkpoints embed images through it (src/journal) — and
/// the file-path functions are thin wrappers. Decoding is two-phase:
/// the entire image is parsed and validated (CRC, bounds, geometry,
/// block decode, duplicate locations) before the first mutation, so a
/// rejected image leaves the Pipeline/Vol pair exactly as it was.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_PERSIST_VOLUMEIMAGE_H
#define PADRE_PERSIST_VOLUMEIMAGE_H

#include "core/Volume.h"
#include "fault/Status.h"

#include <string>

namespace padre {

/// Outcome of a file-level image operation. A thin shim over the typed
/// `fault::Status` the persist layer reports with (PR 3): `Ok`/
/// `Message` keep the original source-compatible surface, `Status`
/// carries the machine-readable code + detail.
struct ImageResult {
  bool Ok = false;
  std::string Message;
  fault::Status Status;

  static ImageResult success() { return ImageResult{true, "", {}}; }
  static ImageResult failure(fault::Status St, std::string Why = "");
};

/// Serializes \p Vol (and its pipeline's chunk store) by appending the
/// complete image — trailer CRC included — to \p Out. Fails (without
/// touching \p Out beyond possible reserved capacity) only when a
/// tracked chunk is missing from the store.
fault::Status encodeVolumeImage(const Volume &Vol,
                                const ReductionPipeline &Pipeline,
                                ByteVector &Out);

/// Restores an image into a *freshly constructed* \p Pipeline / \p Vol
/// pair with matching chunk size and block count, rebuilding the dedup
/// index from the persisted fingerprints. Two-phase: every check runs
/// before the first mutation, so on any error the pair is untouched
/// and remains usable (e.g. for a retry with a repaired image).
/// Errors: ImageCorrupt (CRC/bounds/decode/duplicate-location),
/// StateMismatch (version, chunk size, geometry, occupied location,
/// shared tracker, or a block of the retired method 4, whose location
/// is the detail).
fault::Status decodeVolumeImage(ByteSpan Image, ReductionPipeline &Pipeline,
                                Volume &Vol);

/// Writes \p Vol (and its pipeline's chunk store) to \p Path.
ImageResult saveVolumeImage(const std::string &Path, const Volume &Vol,
                            const ReductionPipeline &Pipeline);

/// Loads \p Path and restores it via decodeVolumeImage (same atomic
/// failure contract: a corrupt image leaves the pair untouched).
ImageResult loadVolumeImage(const std::string &Path,
                            ReductionPipeline &Pipeline, Volume &Vol);

} // namespace padre

#endif // PADRE_PERSIST_VOLUMEIMAGE_H
