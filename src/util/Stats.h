//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight statistics helpers used by the engines and benchmark
/// harnesses: a fixed-resolution histogram with percentile queries.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_UTIL_STATS_H
#define PADRE_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace padre {

/// A histogram over [0, UpperBound) with uniformly sized buckets plus an
/// overflow bucket; supports percentile estimation by linear
/// interpolation inside the containing bucket.
class Histogram {
public:
  /// Creates a histogram with \p BucketCount buckets spanning
  /// [0, UpperBound). Values >= UpperBound land in the overflow bucket.
  Histogram(double UpperBound, std::size_t BucketCount);

  void add(double Value);
  std::uint64_t count() const { return Total; }

  /// Estimated value at percentile \p P in [0, 100]. Returns the upper
  /// bound if the percentile lands in the overflow bucket.
  double percentile(double P) const;

  /// One-line summary "count=… p50=… p95=… p99=… max=…".
  std::string summary() const;

private:
  double UpperBound;
  double BucketWidth;
  std::vector<std::uint64_t> Buckets; // last bucket is overflow
  std::uint64_t Total = 0;
  double MaxSeen = 0.0;
};

} // namespace padre

#endif // PADRE_UTIL_STATS_H
