//===----------------------------------------------------------------------===//
///
/// \file
/// LZ token codec implementation: greedy/lazy hash-chain matcher, the
/// single-probe fast matcher, the shared token emitter, and the shared
/// bounds-checked decoder.
///
//===----------------------------------------------------------------------===//

#include "compress/LzCodec.h"

#include "compress/SubBlockFrame.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

using namespace padre;

namespace {

constexpr unsigned HashBits = 14;
constexpr std::size_t HashSize = 1u << HashBits;
constexpr std::uint32_t NoPosition = 0xFFFFFFFFu;

/// Fibonacci hash of the 4-byte gram at \p Data.
std::uint32_t hashGram(const std::uint8_t *Data) {
  std::uint32_t Gram;
  std::memcpy(&Gram, Data, 4);
  return (Gram * 2654435761u) >> (32 - HashBits);
}

/// Length of the common prefix of chunk positions \p A and \p B,
/// bounded by \p Limit.
std::size_t matchLength(const std::uint8_t *Chunk, std::size_t A,
                        std::size_t B, std::size_t Limit) {
  std::size_t Length = 0;
  while (Length < Limit && Chunk[A + Length] == Chunk[B + Length])
    ++Length;
  return Length;
}

/// Accumulates tokens and stats for one compression run.
class TokenEmitter {
public:
  explicit TokenEmitter(CompressResult &Result) : Result(Result) {}

  void literal(std::uint8_t Byte) { Pending.push_back(Byte); }

  void match(std::size_t Distance, std::size_t Length) {
    assert(Distance >= 1 && Distance <= 65535 && "Distance out of range");
    flushLiterals();
    // Split long matches so that every piece is within [MinMatch,
    // MaxMatch]; never leave a sub-MinMatch remainder.
    while (Length > 0) {
      std::size_t Take = std::min(Length, LzCodec::MaxMatch);
      const std::size_t Rest = Length - Take;
      if (Rest > 0 && Rest < LzCodec::MinMatch)
        Take -= LzCodec::MinMatch - Rest;
      assert(Take >= LzCodec::MinMatch && "Match piece too short");
      Result.Payload.push_back(static_cast<std::uint8_t>(
          0x80 | (Take - LzCodec::MinMatch)));
      Result.Payload.push_back(static_cast<std::uint8_t>(Distance));
      Result.Payload.push_back(static_cast<std::uint8_t>(Distance >> 8));
      Result.Stats.MatchBytes += static_cast<std::uint32_t>(Take);
      ++Result.Stats.Matches;
      Length -= Take;
    }
  }

  void finish() { flushLiterals(); }

private:
  void flushLiterals() {
    std::size_t Offset = 0;
    while (Offset < Pending.size()) {
      const std::size_t Run =
          std::min(Pending.size() - Offset, LzCodec::MaxLiteralRun);
      Result.Payload.push_back(static_cast<std::uint8_t>(Run - 1));
      Result.Payload.insert(Result.Payload.end(),
                            Pending.begin() + Offset,
                            Pending.begin() + Offset + Run);
      Result.Stats.LiteralBytes += static_cast<std::uint32_t>(Run);
      ++Result.Stats.LiteralRuns;
      Offset += Run;
    }
    Pending.clear();
  }

  CompressResult &Result;
  ByteVector Pending;
};

/// Hash-chain match finder over one chunk. Positions are inserted as
/// the scan advances; lane compression pre-seeds the overlap region.
class ChainMatcher {
public:
  ChainMatcher(ByteSpan Chunk, unsigned MaxChainLength)
      : Chunk(Chunk.data()), ChunkSize(Chunk.size()),
        MaxChainLength(MaxChainLength), Head(HashSize, NoPosition),
        Prev(Chunk.size(), NoPosition) {}

  void insert(std::size_t Position) {
    if (Position + LzCodec::MinMatch > ChunkSize)
      return;
    const std::uint32_t Hash = hashGram(Chunk + Position);
    Prev[Position] = Head[Hash];
    Head[Hash] = static_cast<std::uint32_t>(Position);
  }

  /// Best match at \p Position with candidates restricted to
  /// [\p WindowStart, Position) and length to \p MaxLength.
  /// Returns length 0 if none reaches MinMatch.
  struct Match {
    std::size_t Distance = 0;
    std::size_t Length = 0;
  };
  Match find(std::size_t Position, std::size_t WindowStart,
             std::size_t MaxLength) const {
    Match Best;
    if (Position + LzCodec::MinMatch > ChunkSize)
      return Best;
    const std::size_t Limit = std::min(MaxLength, ChunkSize - Position);
    std::uint32_t Candidate = Head[hashGram(Chunk + Position)];
    for (unsigned Tries = 0;
         Candidate != NoPosition && Candidate >= WindowStart &&
         Tries < MaxChainLength;
         ++Tries, Candidate = Prev[Candidate]) {
      const std::size_t Length =
          matchLength(Chunk, Candidate, Position, Limit);
      if (Length > Best.Length) {
        Best.Length = Length;
        Best.Distance = Position - Candidate;
        if (Length == Limit)
          break; // cannot improve
      }
    }
    if (Best.Length < LzCodec::MinMatch)
      Best.Length = 0;
    return Best;
  }

private:
  const std::uint8_t *Chunk;
  std::size_t ChunkSize;
  unsigned MaxChainLength;
  std::vector<std::uint32_t> Head;
  std::vector<std::uint32_t> Prev;
};

/// Single-probe match finder: one table slot per hash, no chains. This
/// is the branch-light strategy suitable for lockstep GPU lanes and the
/// QuickLZ-class fast CPU path.
class ProbeMatcher {
public:
  explicit ProbeMatcher(ByteSpan Chunk)
      : Chunk(Chunk.data()), ChunkSize(Chunk.size()),
        Table(HashSize, NoPosition) {}

  void insert(std::size_t Position) {
    if (Position + LzCodec::MinMatch > ChunkSize)
      return;
    Table[hashGram(Chunk + Position)] =
        static_cast<std::uint32_t>(Position);
  }

  ChainMatcher::Match find(std::size_t Position, std::size_t WindowStart,
                           std::size_t MaxLength) const {
    ChainMatcher::Match Best;
    if (Position + LzCodec::MinMatch > ChunkSize)
      return Best;
    const std::uint32_t Candidate = Table[hashGram(Chunk + Position)];
    if (Candidate == NoPosition || Candidate < WindowStart)
      return Best;
    const std::size_t Limit = std::min(MaxLength, ChunkSize - Position);
    const std::size_t Length = matchLength(Chunk, Candidate, Position, Limit);
    if (Length >= LzCodec::MinMatch) {
      Best.Length = Length;
      Best.Distance = Position - Candidate;
    }
    return Best;
  }

private:
  const std::uint8_t *Chunk;
  std::size_t ChunkSize;
  std::vector<std::uint32_t> Table;
};

/// The scan loop shared by both matchers.
template <typename Matcher>
void scan(Matcher &Finder, ByteSpan Chunk, std::size_t Begin,
          std::size_t End, std::size_t WindowStart, bool Lazy,
          CompressResult &Result) {
  TokenEmitter Emitter(Result);
  std::size_t Position = Begin;
  while (Position < End) {
    auto Match = Finder.find(Position, WindowStart, End - Position);
    if (Match.Length == 0) {
      Emitter.literal(Chunk[Position]);
      Finder.insert(Position);
      ++Position;
      continue;
    }
    if (Lazy && Position + 1 < End) {
      // One-byte lookahead: if deferring yields a strictly longer
      // match, emit this byte as a literal instead.
      Finder.insert(Position);
      const auto Next =
          Finder.find(Position + 1, WindowStart, End - Position - 1);
      if (Next.Length > Match.Length + 1) {
        Emitter.literal(Chunk[Position]);
        ++Position;
        continue;
      }
      Emitter.match(Match.Distance, Match.Length);
      for (std::size_t I = Position + 1; I < Position + Match.Length; ++I)
        Finder.insert(I);
      Position += Match.Length;
      continue;
    }
    Emitter.match(Match.Distance, Match.Length);
    for (std::size_t I = Position; I < Position + Match.Length; ++I)
      Finder.insert(I);
    Position += Match.Length;
  }
  Emitter.finish();
}

} // namespace

LzCodec::LzCodec(MatcherKind Kind, LzOptions Options)
    : Kind(Kind), Options(Options) {
  assert(Options.MaxChainLength > 0 && "Chain length must be nonzero");
}

const char *LzCodec::name() const {
  return Kind == MatcherKind::HashChain ? "lz77-chain" : "lz-probe";
}

CompressResult LzCodec::compress(ByteSpan Input) const {
  return compressRange(Input, 0, Input.size(), Input.size());
}

CompressResult LzCodec::compressRange(ByteSpan Chunk, std::size_t Begin,
                                      std::size_t End,
                                      std::size_t HistoryBytes) const {
  assert(Chunk.size() <= MaxInputSize && "Chunk exceeds format limit");
  assert(Begin <= End && End <= Chunk.size() && "Invalid lane range");
  const std::size_t WindowStart =
      Begin >= HistoryBytes ? Begin - HistoryBytes : 0;

  CompressResult Result;
  Result.Payload.reserve((End - Begin) / 2 + 16);

  if (Kind == MatcherKind::HashChain) {
    ChainMatcher Finder(Chunk, Options.MaxChainLength);
    for (std::size_t I = WindowStart; I < Begin; ++I)
      Finder.insert(I); // seed the overlap history
    scan(Finder, Chunk, Begin, End, WindowStart, Options.LazyMatching,
         Result);
  } else {
    ProbeMatcher Finder(Chunk);
    for (std::size_t I = WindowStart; I < Begin; ++I)
      Finder.insert(I);
    scan(Finder, Chunk, Begin, End, WindowStart, /*Lazy=*/false, Result);
  }
  assert(Result.Stats.LiteralBytes + Result.Stats.MatchBytes ==
             End - Begin &&
         "Tokens must cover the lane exactly");
  return Result;
}

std::vector<CompressResult>
LzCodec::compressSubBlocks(ByteSpan Input, unsigned SubBlocks) const {
  const auto Count = std::min<std::size_t>(
      std::clamp(SubBlocks, 1u, MaxSubBlocks), Input.size());
  std::vector<CompressResult> Streams;
  Streams.reserve(Count);
  for (std::size_t I = 0; I < Count; ++I)
    Streams.push_back(compressRange(Input, Input.size() * I / Count,
                                    Input.size() * (I + 1) / Count,
                                    /*HistoryBytes=*/0));
  return Streams;
}

FramedCompressResult LzCodec::compressFramed(ByteSpan Input,
                                             unsigned SubBlocks) const {
  assert(!Input.empty() && "Framed compression needs a non-empty chunk");
  assert(Input.size() <= MaxInputSize && "Chunk exceeds format limit");
  const std::vector<CompressResult> Streams =
      compressSubBlocks(Input, SubBlocks);
  const auto Count = static_cast<unsigned>(Streams.size());
  // The u16 header entry cannot describe a worst-case-expanded stream
  // above ~64 KiB of input; a finer split always can (a 32 KiB half
  // expands to at most ~33 KB). Only reachable at Count == 1 over a
  // near-incompressible full-size chunk.
  for (const CompressResult &Sub : Streams)
    if (Sub.Payload.size() > MaxSubBlockPayload)
      return compressFramed(Input, Count * 2);

  FramedCompressResult Result;
  Result.SubBlockCount = Count;
  for (const CompressResult &Sub : Streams)
    Result.Stats.merge(Sub.Stats);
  Result.Payload = frameSubBlocks(Streams);
  return Result;
}

bool LzCodec::decompress(ByteSpan Payload, std::size_t OriginalSize,
                         ByteVector &Out) {
  const std::size_t OutStart = Out.size();
  Out.reserve(OutStart + OriginalSize);
  std::size_t In = 0;
  std::size_t Produced = 0;
  while (In < Payload.size()) {
    const std::uint8_t Control = Payload[In++];
    if ((Control & 0x80) == 0) {
      const std::size_t Run = static_cast<std::size_t>(Control) + 1;
      if (In + Run > Payload.size() || Produced + Run > OriginalSize) {
        Out.resize(OutStart);
        return false;
      }
      Out.insert(Out.end(), Payload.begin() + In, Payload.begin() + In + Run);
      In += Run;
      Produced += Run;
      continue;
    }
    const std::size_t Length = (Control & 0x7F) + MinMatch;
    if (In + 2 > Payload.size()) {
      Out.resize(OutStart);
      return false;
    }
    const std::size_t Distance = loadLe16(Payload.data() + In);
    In += 2;
    if (Distance == 0 || Distance > Produced ||
        Produced + Length > OriginalSize) {
      Out.resize(OutStart);
      return false;
    }
    // Byte-wise copy: overlapping matches (distance < length) replicate
    // the repeated pattern, as LZ semantics require.
    for (std::size_t I = 0; I < Length; ++I)
      Out.push_back(Out[Out.size() - Distance]);
    Produced += Length;
  }
  if (Produced != OriginalSize) {
    Out.resize(OutStart);
    return false;
  }
  return true;
}
