//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk format of the crash-consistency artefacts (src/journal):
/// the metadata write-ahead log and the checkpoint container.
///
/// Journal file (little-endian):
///   header:  u64 magic "PADREJL1", u32 version, u32 chunk size,
///            u64 block count, u64 base sequence, u32 CRC-32C over the
///            preceding header bytes
///   records: u32 payload length, u32 CRC-32C(payload), payload
///   payload: u64 sequence, u8 record type, type-specific body
///
/// Record sequences are dense: the Nth record in the file must carry
/// sequence `base + N`. Scanning stops at the first frame that is
/// truncated or fails its CRC — that suffix is the *torn tail*, the
/// residue of a crash mid-commit, and is discarded (never trusted,
/// never an error). A frame whose CRC verifies but whose payload is
/// malformed, or whose sequence breaks the dense order, cannot be
/// explained by tearing and is reported as JournalCorrupt.
///
/// Checkpoint container:
///   u64 magic "PADRECK1", u32 version, u64 covered sequence,
///   u64 image length, image bytes (persist/VolumeImage.h format),
///   u32 CRC-32C over everything before it
///
/// The covered sequence is the last journal sequence whose effects the
/// embedded image includes; recovery replays only newer records.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_JOURNAL_JOURNALFORMAT_H
#define PADRE_JOURNAL_JOURNALFORMAT_H

#include "fault/Status.h"
#include "hash/Fingerprint.h"
#include "util/Bytes.h"

#include <array>
#include <vector>

namespace padre {
namespace journal {

/// "PADREJL1" read as a little-endian u64.
inline constexpr std::uint64_t JournalMagic = 0x314C4A4552444150ull;
/// "PADRECK1" read as a little-endian u64.
inline constexpr std::uint64_t CheckpointMagic = 0x314B434552444150ull;
inline constexpr std::uint32_t JournalVersion = 1;
inline constexpr std::uint32_t CheckpointVersion = 1;

/// Journal header: magic + version + chunk size + block count + base
/// sequence + header CRC.
inline constexpr std::size_t JournalHeaderSize = 8 + 4 + 4 + 8 + 8 + 4;
/// Checkpoint prefix before the embedded image: magic + version +
/// covered sequence + image length.
inline constexpr std::size_t CheckpointPrefixSize = 8 + 4 + 8 + 8;
/// Record frame prefix: payload length + payload CRC.
inline constexpr std::size_t RecordFrameSize = 4 + 4;

/// What one journal record intends (the redo information).
enum class RecordType : std::uint8_t {
  WriteBatch = 0,     ///< one acknowledged-as-a-unit volume write
  Trim = 1,           ///< discard of an LBA range
  SnapshotCreate = 2, ///< snapshot taken (id recorded for validation)
  SnapshotDelete = 3, ///< snapshot dropped
  Gc = 4,             ///< garbage collection ran (count recorded)
};

/// A chunk the batch newly stored: replay re-places the encoded block.
struct NewChunk {
  std::uint64_t Location = 0;
  Fingerprint Fp;
  ByteVector Encoded; ///< the encoded compress/Block.h block
};

/// One LBA remap of the batch, in write order. Fp rides along so
/// replay never depends on index state to re-reference a duplicate.
struct MapUpdate {
  std::uint64_t Lba = 0;
  std::uint64_t Location = 0;
  Fingerprint Fp;
};

/// Expected refcount movement of one location across the record —
/// redundant with the updates, kept as a replay cross-check.
struct RefDelta {
  std::uint64_t Location = 0;
  std::int64_t Delta = 0;
};

/// One decoded journal record. Field use by type:
///   WriteBatch      Chunks, Updates, Deltas
///   Trim            Lba, Count
///   SnapshotCreate  SnapshotId
///   SnapshotDelete  SnapshotId
///   Gc              Collected
struct JournalRecord {
  std::uint64_t Seq = 0;
  RecordType Type = RecordType::WriteBatch;
  std::vector<NewChunk> Chunks;
  std::vector<MapUpdate> Updates;
  std::vector<RefDelta> Deltas;
  std::uint64_t Lba = 0;
  std::uint64_t Count = 0;
  std::uint64_t SnapshotId = 0;
  std::uint64_t Collected = 0;
};

/// Geometry stamped into the journal header; recovery refuses a
/// journal whose geometry does not match the target volume.
struct JournalHeader {
  std::uint32_t ChunkSize = 0;
  std::uint64_t BlockCount = 0;
  std::uint64_t BaseSeq = 1;
};

/// Appends the journal header for \p Header to \p Out.
void encodeJournalHeader(const JournalHeader &Header, ByteVector &Out);

/// Appends one framed record (length + CRC + payload) to \p Out.
/// Returns the number of chunk-payload bytes inside the frame — bytes
/// the destage stage already charged, which the commit-time modelled
/// write therefore excludes (see DESIGN.md decision 12).
std::uint64_t encodeRecord(const JournalRecord &Record, ByteVector &Out);

/// Result of scanning a journal file.
struct JournalScan {
  JournalHeader Header;
  /// Every committed record, in sequence order.
  std::vector<JournalRecord> Records;
  /// Bytes of the discarded torn tail (0 for a cleanly closed log).
  std::uint64_t TornBytes = 0;
};

/// Parses \p File as a journal. Torn tails are discarded silently
/// (reported via JournalScan::TornBytes); structural failures return
/// JournalCorrupt (bad magic, header CRC, CRC-valid-but-malformed
/// payload, sequence discontinuity) or StateMismatch (version).
fault::Expected<JournalScan> scanJournal(ByteSpan File);

/// A checkpoint container's framing: the file is Prefix, then the
/// encoded volume image, then Trailer (the CRC-32C of both). Kept apart
/// from the image so a checkpoint writes a store-sized image without
/// copying it into a file-sized buffer.
struct CheckpointFrame {
  std::array<std::uint8_t, CheckpointPrefixSize> Prefix{};
  std::array<std::uint8_t, 4> Trailer{};
};

/// Frames \p Image as the checkpoint covering \p CoveredSeq.
CheckpointFrame frameCheckpoint(std::uint64_t CoveredSeq, ByteSpan Image);

/// Parsed checkpoint container; Image points into the scanned buffer.
struct CheckpointView {
  std::uint64_t CoveredSeq = 0;
  ByteSpan Image;
};

/// Validates \p File (magic, version, bounds, whole-file CRC) and
/// returns views into it. Errors: ImageCorrupt, StateMismatch.
fault::Expected<CheckpointView> scanCheckpoint(ByteSpan File);

} // namespace journal
} // namespace padre

#endif // PADRE_JOURNAL_JOURNALFORMAT_H
