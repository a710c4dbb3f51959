//===----------------------------------------------------------------------===//
///
/// \file
/// The LZ token codec family used for chunk compression (§2: "LZ-based
/// compression algorithms are widely used in main storage systems due
/// to their simplicity and effectiveness").
///
/// One payload format, two matchers:
///   * HashChain  — hash chains with optional lazy matching; the
///     better-ratio reference codec.
///   * SingleProbe — one hash-table probe per position, greedy; the
///     QuickLZ-class fast codec the paper uses as the parallel CPU
///     baseline ("parallel QuickLZ", §6) and the branch-light algorithm
///     the GPU lanes run (§3.1(2): GPU code must be simple).
///
/// Token stream format (payload of BlockMethod::Lz77/QuickLz/GpuLane):
///   control byte C:
///     C bit7 = 0: literal run of (C + 1) bytes (1..128), bytes follow
///     C bit7 = 1: match of length ((C & 0x7F) + MinMatch) (4..131),
///                 followed by a 16-bit LE back-distance (1..65535)
/// Inputs are limited to 64 KiB (chunk-sized), so 16-bit distances
/// always suffice.
///
/// One decoder reads the format, LzCodec::decompress: the CPU paths
/// call it bare, the warp kernel once per sub-block with a counts sink.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_COMPRESS_LZCODEC_H
#define PADRE_COMPRESS_LZCODEC_H

#include "util/Bytes.h"

#include <cstdint>
#include <vector>

namespace padre {

/// Functional outcome of compressing one chunk; the cost model charges
/// CPU time from these counts (literal bytes are slower than
/// match-covered bytes, reproducing "throughput is high when the
/// compression ratio is high", §4(2)).
struct CompressStats {
  std::uint32_t LiteralBytes = 0; ///< bytes emitted as literals
  std::uint32_t MatchBytes = 0;   ///< bytes covered by matches
  std::uint32_t LiteralRuns = 0;
  std::uint32_t Matches = 0;

  /// Merges another chunk's (or lane's) stats into this one.
  void merge(const CompressStats &Other) {
    LiteralBytes += Other.LiteralBytes;
    MatchBytes += Other.MatchBytes;
    LiteralRuns += Other.LiteralRuns;
    Matches += Other.Matches;
  }
};

/// Per-stream token counts the decoder fills on request: the inputs of
/// CostModel::gpuWarpSubBlockUs for one warp-decoded sub-block.
struct LzTokenCounts {
  std::uint32_t Tokens = 0;         ///< literal runs + matches
  std::uint32_t TokenSwitches = 0;  ///< literal<->match transitions
  std::uint32_t OverlapMatches = 0; ///< matches with distance < length
  CompressStats Stats;              ///< byte mix of the stream
};

/// A compressed payload plus its functional stats.
struct CompressResult {
  ByteVector Payload;
  CompressStats Stats;
};

/// Result of compressFramed: the LzFramed frame payload, the merged
/// stats of all sub-blocks, and the sub-block count actually used
/// (clamped for tiny inputs).
struct FramedCompressResult {
  ByteVector Payload;
  CompressStats Stats;
  unsigned SubBlockCount = 0;
};

/// Tuning knobs for the matchers.
struct LzOptions {
  /// Candidates examined per position (HashChain only).
  unsigned MaxChainLength = 32;
  /// One-token lookahead: prefer the longer of the matches at i and
  /// i+1 (HashChain only).
  bool LazyMatching = true;
};

/// The LZ compressor. Safe to share between threads; the only state kept
/// across calls is a per-thread hash table no call's output depends on.
class LzCodec {
public:
  enum class MatcherKind { HashChain, SingleProbe };

  static constexpr std::size_t MinMatch = 4;
  static constexpr std::size_t MaxMatch = 131;
  static constexpr std::size_t MaxLiteralRun = 128;
  static constexpr std::size_t MaxInputSize = 65536;

  explicit LzCodec(MatcherKind Kind, LzOptions Options = LzOptions());

  /// Compresses \p Input (≤ MaxInputSize bytes).
  CompressResult compress(ByteSpan Input) const;

  /// Compresses the lane [\p Begin, \p End) of \p Chunk, allowing
  /// matches that reach back up to \p HistoryBytes *before* Begin (the
  /// "adjacent threads inspect overlapping regions by the size of the
  /// history buffer" rule, §3.2(2)). Distances are back-distances in
  /// the full chunk, so lane payloads concatenate into one valid
  /// stream.
  CompressResult compressRange(ByteSpan Chunk, std::size_t Begin,
                               std::size_t End,
                               std::size_t HistoryBytes) const;

  /// The sub-block streams of the v2 framed format: \p Input split
  /// into \p SubBlocks near-equal pieces at `size * i / n`, each
  /// compressed with zero history, in order. The count is clamped to
  /// [1, MaxSubBlocks] and to the input size (an empty input gives no
  /// streams).
  std::vector<CompressResult> compressSubBlocks(ByteSpan Input,
                                                unsigned SubBlocks) const;

  /// Compresses \p Input into the v2 framed format (see
  /// compress/SubBlockFrame.h): compressSubBlocks' streams, framed by
  /// frameSubBlocks. The history reset at every boundary makes each
  /// sub-block's token stream an independently-decodable LZ stream; its
  /// ratio cost is the measured tradeoff of the two-level scheme.
  FramedCompressResult compressFramed(ByteSpan Input,
                                      unsigned SubBlocks) const;

  /// Decodes \p Payload into exactly \p OriginalSize bytes appended to
  /// \p Out. Every back-distance must reach only bytes this call
  /// produced. Returns false on any malformed token (no partial output
  /// is appended). When \p Counts is set, a successful decode stores
  /// the stream's token counts there.
  static bool decompress(ByteSpan Payload, std::size_t OriginalSize,
                         ByteVector &Out, LzTokenCounts *Counts = nullptr);

  const char *name() const;

private:
  MatcherKind Kind;
  LzOptions Options;
};

} // namespace padre

#endif // PADRE_COMPRESS_LZCODEC_H
