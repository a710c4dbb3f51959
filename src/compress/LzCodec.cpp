//===----------------------------------------------------------------------===//
///
/// \file
/// LZ token codec implementation: greedy/lazy hash-chain matcher, the
/// single-probe fast matcher, the shared token emitter, and the one
/// bounds-checked token decoder.
///
//===----------------------------------------------------------------------===//

#include "compress/LzCodec.h"

#include "compress/SubBlockFrame.h"

#include <algorithm>
#include <bit>
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
/// bounded by \p Limit, a word at a time (the first unequal word's XOR
/// locates the mismatch). No load reaches past Limit bytes.
std::size_t matchLength(const std::uint8_t *Chunk, std::size_t A,
                        std::size_t B, std::size_t Limit) {
  std::size_t Length = 0;
  for (; Length + 8 <= Limit; Length += 8) {
    std::uint64_t L, R;
    std::memcpy(&L, Chunk + A + Length, 8);
    std::memcpy(&R, Chunk + B + Length, 8);
    if (const std::uint64_t Diff = L ^ R)
      return Length + (std::endian::native == std::endian::little
                           ? std::countr_zero(Diff)
                           : std::countl_zero(Diff)) / 8;
  }
  while (Length < Limit && Chunk[A + Length] == Chunk[B + Length])
    ++Length;
  return Length;
}

/// Accumulates tokens and stats for one compression run. The bytes
/// before each match (or the end) since the last are its literal run.
class TokenEmitter {
public:
  TokenEmitter(const std::uint8_t *Chunk, std::size_t Begin,
               CompressResult &Result)
      : Chunk(Chunk), Literals(Begin), Result(Result) {}

  void match(std::size_t Position, std::size_t Distance, std::size_t Length) {
    assert(Distance >= 1 && Distance <= 65535 && "Distance out of range");
    flushLiterals(Position);
    Literals = Position + Length;
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

  void finish(std::size_t End) { flushLiterals(End); }

private:
  /// Emits the literal run [Literals, End) in pieces of MaxLiteralRun.
  void flushLiterals(std::size_t End) {
    while (Literals < End) {
      const std::size_t Run = std::min(End - Literals, LzCodec::MaxLiteralRun);
      Result.Payload.push_back(static_cast<std::uint8_t>(Run - 1));
      Result.Payload.insert(Result.Payload.end(), Chunk + Literals,
                            Chunk + Literals + Run);
      Result.Stats.LiteralBytes += static_cast<std::uint32_t>(Run);
      ++Result.Stats.LiteralRuns;
      Literals += Run;
    }
  }

  const std::uint8_t *Chunk;
  std::size_t Literals; ///< start of the pending literal run
  CompressResult &Result;
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
  /// Returns length 0 if none reaches MinMatch. With \p Insert, also
  /// inserts Position (after the lookup), hashing it once for both.
  struct Match {
    std::size_t Distance = 0;
    std::size_t Length = 0;
  };
  Match find(std::size_t Position, std::size_t WindowStart,
             std::size_t MaxLength, bool Insert) {
    Match Best;
    if (Position + LzCodec::MinMatch > ChunkSize)
      return Best;
    const std::size_t Limit = std::min(MaxLength, ChunkSize - Position);
    const std::uint32_t Hash = hashGram(Chunk + Position);
    std::uint32_t Candidate = Head[Hash];
    if (Insert) {
      Prev[Position] = Candidate;
      Head[Hash] = static_cast<std::uint32_t>(Position);
    }
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
/// QuickLZ-class fast CPU path. Its table is one per thread, reused by
/// each call (they do not nest): a slot holds Base + position, and each
/// call's Base is MaxInputSize above the last, so older slots read as
/// empty with no fill. Base wraps after 65536 calls; then it is cleared.
class ProbeMatcher {
public:
  explicit ProbeMatcher(ByteSpan Chunk)
      : Chunk(Chunk.data()), ChunkSize(Chunk.size()) {
    thread_local std::vector<std::uint32_t> Shared(HashSize);
    thread_local std::uint32_t LastBase = 0;
    LastBase += static_cast<std::uint32_t>(LzCodec::MaxInputSize);
    if (LastBase == 0) {
      std::fill(Shared.begin(), Shared.end(), 0u);
      LastBase = static_cast<std::uint32_t>(LzCodec::MaxInputSize);
    }
    Table = Shared.data();
    Base = LastBase;
  }

  void insert(std::size_t Position) {
    if (Position + LzCodec::MinMatch > ChunkSize)
      return;
    Table[hashGram(Chunk + Position)] =
        Base + static_cast<std::uint32_t>(Position);
  }

  ChainMatcher::Match find(std::size_t Position, std::size_t WindowStart,
                           std::size_t MaxLength, bool Insert) {
    ChainMatcher::Match Best;
    if (Position + LzCodec::MinMatch > ChunkSize)
      return Best;
    std::uint32_t &Entry = Table[hashGram(Chunk + Position)];
    const std::uint32_t Slot = Entry;
    if (Insert)
      Entry = Base + static_cast<std::uint32_t>(Position);
    if (Slot < Base || Slot - Base < WindowStart)
      return Best; // empty (a slot of an earlier call) or out of window
    const std::size_t Candidate = Slot - Base;
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
  std::uint32_t *Table;
  std::uint32_t Base;
};

/// The scan loop shared by both matchers; seeds [WindowStart, Begin) first.
template <typename Matcher>
void scan(Matcher &&Finder, ByteSpan Chunk, std::size_t Begin,
          std::size_t End, std::size_t WindowStart, bool Lazy,
          CompressResult &Result) {
  for (std::size_t I = WindowStart; I < Begin; ++I)
    Finder.insert(I);
  TokenEmitter Emitter(Chunk.data(), Begin, Result);
  std::size_t Position = Begin;
  while (Position < End) {
    const auto Match =
        Finder.find(Position, WindowStart, End - Position, /*Insert=*/true);
    // One-byte lookahead (a lookup, no insert): if deferring yields a
    // strictly longer match, emit this byte as a literal instead.
    if (Match.Length == 0 ||
        (Lazy && Position + 1 < End &&
         Finder.find(Position + 1, WindowStart, End - Position - 1, false)
                 .Length > Match.Length + 1)) {
      ++Position;
      continue;
    }
    Emitter.match(Position, Match.Distance, Match.Length);
    for (std::size_t I = Position + 1; I < Position + Match.Length; ++I)
      Finder.insert(I);
    Position += Match.Length;
  }
  Emitter.finish(End);
}

/// Copies \p N bytes between non-overlapping ranges in fixed-size moves:
/// GCC inlines a memcpy it can bound (here by the token format) as `rep
/// movs`, whose start-up cost tripled the decode time.
void copyShort(std::uint8_t *To, const std::uint8_t *From, std::size_t N) {
  if (N >= 16) {
    for (std::size_t I = 0; I + 16 < N; I += 16)
      std::memcpy(To + I, From + I, 16);
    std::memcpy(To + N - 16, From + N - 16, 16); // may rewrite a few
  } else if (N >= 8) {
    std::memcpy(To, From, 8);
    std::memcpy(To + N - 8, From + N - 8, 8);
  } else {
    for (std::size_t I = 0; I < N; ++I)
      To[I] = From[I];
  }
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

  if (Kind == MatcherKind::HashChain)
    scan(ChainMatcher(Chunk, Options.MaxChainLength), Chunk, Begin, End,
         WindowStart, Options.LazyMatching, Result);
  else
    scan(ProbeMatcher(Chunk), Chunk, Begin, End, WindowStart,
         /*Lazy=*/false, Result);
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
                         ByteVector &Out, LzTokenCounts *Counts) {
  const std::size_t OutStart = Out.size();
  Out.resize(OutStart + OriginalSize);
  std::uint8_t *const Dst = Out.data() + OutStart;
  const auto Fail = [&] {
    Out.resize(OutStart);
    return false;
  };
  std::size_t In = 0;
  std::size_t Produced = 0;
  LzTokenCounts Local;
  enum class TokenKind { None, Literal, Match } Last = TokenKind::None;
  while (In < Payload.size()) {
    const std::uint8_t Control = Payload[In++];
    if ((Control & 0x80) == 0) {
      const std::size_t Run = static_cast<std::size_t>(Control) + 1;
      if (Run > Payload.size() - In || Run > OriginalSize - Produced)
        return Fail();
      copyShort(Dst + Produced, Payload.data() + In, Run);
      In += Run;
      Produced += Run;
      Local.Stats.LiteralBytes += static_cast<std::uint32_t>(Run);
      ++Local.Stats.LiteralRuns;
      Local.TokenSwitches += Last == TokenKind::Match;
      Last = TokenKind::Literal;
      continue;
    }
    const std::size_t Length = (Control & 0x7F) + MinMatch;
    if (Payload.size() - In < 2)
      return Fail();
    const std::size_t Distance = Payload[In] | Payload[In + 1] << 8;
    In += 2;
    if (Distance == 0 || Distance > Produced ||
        Length > OriginalSize - Produced)
      return Fail();
    std::uint8_t *const To = Dst + Produced;
    const std::uint8_t *const From = To - Distance;
    if (Distance >= Length) {
      copyShort(To, From, Length);
    } else {
      // Self-overlapping, so the output repeats with period Distance:
      // after a bytewise head, copy words from Step back (the first
      // multiple of Distance >= 8), which are already written.
      std::size_t Step = Distance;
      while (Step < 8)
        Step += Distance;
      std::size_t I = 0;
      for (; I < std::min(Step - Distance, Length); ++I)
        To[I] = From[I];
      for (; I + 8 <= Length; I += 8)
        std::memcpy(To + I, To + I - Step, 8);
      for (; I < Length; ++I)
        To[I] = From[I];
      ++Local.OverlapMatches;
    }
    Produced += Length;
    Local.Stats.MatchBytes += static_cast<std::uint32_t>(Length);
    ++Local.Stats.Matches;
    Local.TokenSwitches += Last == TokenKind::Literal;
    Last = TokenKind::Match;
  }
  if (Produced != OriginalSize)
    return Fail();
  Local.Tokens = Local.Stats.LiteralRuns + Local.Stats.Matches;
  if (Counts)
    *Counts = Local;
  return true;
}
