//===----------------------------------------------------------------------===//
///
/// \file
/// Journal/checkpoint format implementation: framing, CRC validation,
/// torn-tail detection.
///
//===----------------------------------------------------------------------===//

#include "journal/JournalFormat.h"

#include "hash/Crc32.h"

#include <algorithm>

using namespace padre;
using namespace padre::journal;
using padre::fault::ErrorCode;
using padre::fault::Status;

namespace {

bool readFingerprint(ByteReader &Reader, Fingerprint &Out) {
  ByteSpan Raw;
  if (!Reader.readBytes(Fingerprint::Size, Raw))
    return false;
  Out = Fingerprint::fromBytes(Raw);
  return true;
}

void appendFingerprint(ByteVector &Out, const Fingerprint &Fp) {
  Out.insert(Out.end(), Fp.bytes().begin(), Fp.bytes().end());
}

/// Serializes the type-specific body of \p Record and returns the
/// chunk-payload bytes it contains.
std::uint64_t encodeBody(const JournalRecord &Record, ByteVector &Out) {
  std::uint64_t ChunkPayloadBytes = 0;
  switch (Record.Type) {
  case RecordType::WriteBatch:
    appendLe32(Out, static_cast<std::uint32_t>(Record.Chunks.size()));
    for (const NewChunk &Chunk : Record.Chunks) {
      appendLe64(Out, Chunk.Location);
      appendFingerprint(Out, Chunk.Fp);
      appendLe32(Out, static_cast<std::uint32_t>(Chunk.Encoded.size()));
      appendBytes(Out, ByteSpan(Chunk.Encoded.data(), Chunk.Encoded.size()));
      ChunkPayloadBytes += Chunk.Encoded.size();
    }
    appendLe32(Out, static_cast<std::uint32_t>(Record.Updates.size()));
    for (const MapUpdate &Update : Record.Updates) {
      appendLe64(Out, Update.Lba);
      appendLe64(Out, Update.Location);
      appendFingerprint(Out, Update.Fp);
    }
    appendLe32(Out, static_cast<std::uint32_t>(Record.Deltas.size()));
    for (const RefDelta &Delta : Record.Deltas) {
      appendLe64(Out, Delta.Location);
      appendLe64(Out, static_cast<std::uint64_t>(Delta.Delta));
    }
    break;
  case RecordType::Trim:
    appendLe64(Out, Record.Lba);
    appendLe64(Out, Record.Count);
    break;
  case RecordType::SnapshotCreate:
  case RecordType::SnapshotDelete:
    appendLe64(Out, Record.SnapshotId);
    break;
  case RecordType::Gc:
    appendLe64(Out, Record.Collected);
    break;
  }
  return ChunkPayloadBytes;
}

/// Parses one CRC-verified payload. Failure means the payload is
/// structurally malformed — tearing cannot produce that (the CRC
/// already passed), so callers report JournalCorrupt.
bool decodePayload(ByteSpan Payload, JournalRecord &Out) {
  ByteReader Reader(Payload);
  std::uint8_t TypeByte = 0;
  if (!Reader.readLe64(Out.Seq) || !Reader.readU8(TypeByte))
    return false;
  if (TypeByte > static_cast<std::uint8_t>(RecordType::Gc))
    return false;
  Out.Type = static_cast<RecordType>(TypeByte);
  switch (Out.Type) {
  case RecordType::WriteBatch: {
    // The counts are untrusted (CRC-valid garbage can claim ~4e9
    // elements); every reserve() is clamped to what the remaining
    // bytes could actually encode so a crafted payload cannot force a
    // huge allocation — the per-element reads then fail naturally.
    std::uint32_t ChunkCount = 0;
    if (!Reader.readLe32(ChunkCount))
      return false;
    Out.Chunks.reserve(
        std::min<std::size_t>(ChunkCount, Reader.remaining() / (12 + Fingerprint::Size)));
    for (std::uint32_t I = 0; I < ChunkCount; ++I) {
      NewChunk Chunk;
      std::uint32_t EncodedSize = 0;
      ByteSpan Encoded;
      if (!Reader.readLe64(Chunk.Location) ||
          !readFingerprint(Reader, Chunk.Fp) || !Reader.readLe32(EncodedSize) ||
          !Reader.readBytes(EncodedSize, Encoded))
        return false;
      Chunk.Encoded.assign(Encoded.begin(), Encoded.end());
      Out.Chunks.push_back(std::move(Chunk));
    }
    std::uint32_t UpdateCount = 0;
    if (!Reader.readLe32(UpdateCount))
      return false;
    Out.Updates.reserve(
        std::min<std::size_t>(UpdateCount, Reader.remaining() / (16 + Fingerprint::Size)));
    for (std::uint32_t I = 0; I < UpdateCount; ++I) {
      MapUpdate Update;
      if (!Reader.readLe64(Update.Lba) || !Reader.readLe64(Update.Location) ||
          !readFingerprint(Reader, Update.Fp))
        return false;
      Out.Updates.push_back(Update);
    }
    std::uint32_t DeltaCount = 0;
    if (!Reader.readLe32(DeltaCount))
      return false;
    Out.Deltas.reserve(std::min<std::size_t>(DeltaCount, Reader.remaining() / 16));
    for (std::uint32_t I = 0; I < DeltaCount; ++I) {
      RefDelta Delta;
      std::uint64_t Raw = 0;
      if (!Reader.readLe64(Delta.Location) || !Reader.readLe64(Raw))
        return false;
      Delta.Delta = static_cast<std::int64_t>(Raw);
      Out.Deltas.push_back(Delta);
    }
    break;
  }
  case RecordType::Trim:
    if (!Reader.readLe64(Out.Lba) || !Reader.readLe64(Out.Count))
      return false;
    break;
  case RecordType::SnapshotCreate:
  case RecordType::SnapshotDelete:
    if (!Reader.readLe64(Out.SnapshotId))
      return false;
    break;
  case RecordType::Gc:
    if (!Reader.readLe64(Out.Collected))
      return false;
    break;
  }
  return Reader.atEnd();
}

} // namespace

void journal::encodeJournalHeader(const JournalHeader &Header,
                                  ByteVector &Out) {
  const std::size_t Begin = Out.size();
  appendLe64(Out, JournalMagic);
  appendLe32(Out, JournalVersion);
  appendLe32(Out, Header.ChunkSize);
  appendLe64(Out, Header.BlockCount);
  appendLe64(Out, Header.BaseSeq);
  appendLe32(Out, crc32c(ByteSpan(Out.data() + Begin, Out.size() - Begin)));
}

std::uint64_t journal::encodeRecord(const JournalRecord &Record,
                                    ByteVector &Out) {
  ByteVector Payload;
  appendLe64(Payload, Record.Seq);
  Payload.push_back(static_cast<std::uint8_t>(Record.Type));
  const std::uint64_t ChunkPayloadBytes = encodeBody(Record, Payload);
  appendLe32(Out, static_cast<std::uint32_t>(Payload.size()));
  appendLe32(Out, crc32c(ByteSpan(Payload.data(), Payload.size())));
  appendBytes(Out, ByteSpan(Payload.data(), Payload.size()));
  return ChunkPayloadBytes;
}

fault::Expected<JournalScan> journal::scanJournal(ByteSpan File) {
  if (File.size() < JournalHeaderSize)
    return Status::error(ErrorCode::JournalCorrupt, File.size());
  const std::uint32_t HeaderCrc = loadLe32(File.data() + JournalHeaderSize - 4);
  if (crc32c(ByteSpan(File.data(), JournalHeaderSize - 4)) != HeaderCrc)
    return Status::error(ErrorCode::JournalCorrupt);
  ByteReader Reader(File);
  JournalScan Scan;
  std::uint64_t Magic = 0;
  std::uint32_t Version = 0;
  std::uint32_t Crc = 0;
  Reader.readLe64(Magic);
  Reader.readLe32(Version);
  Reader.readLe32(Scan.Header.ChunkSize);
  Reader.readLe64(Scan.Header.BlockCount);
  Reader.readLe64(Scan.Header.BaseSeq);
  Reader.readLe32(Crc);
  if (Magic != JournalMagic)
    return Status::error(ErrorCode::JournalCorrupt);
  if (Version != JournalVersion)
    return Status::error(ErrorCode::StateMismatch, Version);

  // Record loop: any frame the CRC cannot vouch for starts the torn
  // tail — discard it and every byte after it.
  std::uint64_t ExpectedSeq = Scan.Header.BaseSeq;
  while (!Reader.atEnd()) {
    const std::size_t FrameStart = Reader.position();
    std::uint32_t PayloadSize = 0;
    std::uint32_t PayloadCrc = 0;
    ByteSpan Payload;
    if (!Reader.readLe32(PayloadSize) || !Reader.readLe32(PayloadCrc) ||
        !Reader.readBytes(PayloadSize, Payload) ||
        crc32c(Payload) != PayloadCrc) {
      Scan.TornBytes = File.size() - FrameStart;
      break;
    }
    JournalRecord Record;
    if (!decodePayload(Payload, Record))
      return Status::error(ErrorCode::JournalCorrupt, FrameStart);
    if (Record.Seq != ExpectedSeq)
      return Status::error(ErrorCode::JournalCorrupt, Record.Seq);
    ++ExpectedSeq;
    Scan.Records.push_back(std::move(Record));
  }
  return Scan;
}

CheckpointFrame journal::frameCheckpoint(std::uint64_t CoveredSeq,
                                         ByteSpan Image) {
  CheckpointFrame Frame;
  std::uint8_t *Prefix = Frame.Prefix.data();
  storeLe64(Prefix, CheckpointMagic);
  storeLe32(Prefix + 8, CheckpointVersion);
  storeLe64(Prefix + 12, CoveredSeq);
  storeLe64(Prefix + 20, Image.size());
  storeLe32(Frame.Trailer.data(),
            crc32c(Image, crc32c(ByteSpan(Frame.Prefix))));
  return Frame;
}

fault::Expected<CheckpointView> journal::scanCheckpoint(ByteSpan File) {
  if (File.size() < CheckpointPrefixSize + 4)
    return Status::error(ErrorCode::ImageCorrupt, File.size());
  const std::uint32_t FileCrc = loadLe32(File.data() + File.size() - 4);
  if (crc32c(ByteSpan(File.data(), File.size() - 4)) != FileCrc)
    return Status::error(ErrorCode::ImageCorrupt);
  ByteReader Reader(File);
  std::uint64_t Magic = 0;
  std::uint32_t Version = 0;
  CheckpointView View;
  std::uint64_t ImageSize = 0;
  Reader.readLe64(Magic);
  Reader.readLe32(Version);
  Reader.readLe64(View.CoveredSeq);
  Reader.readLe64(ImageSize);
  if (Magic != CheckpointMagic)
    return Status::error(ErrorCode::ImageCorrupt);
  if (Version != CheckpointVersion)
    return Status::error(ErrorCode::StateMismatch, Version);
  if (ImageSize != File.size() - CheckpointPrefixSize - 4)
    return Status::error(ErrorCode::ImageCorrupt, ImageSize);
  Reader.readBytes(ImageSize, View.Image);
  return View;
}
