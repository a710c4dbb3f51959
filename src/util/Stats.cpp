//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the statistics helpers.
///
//===----------------------------------------------------------------------===//

#include "util/Stats.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace padre;

Histogram::Histogram(double UpperBound, std::size_t BucketCount)
    : UpperBound(UpperBound),
      BucketWidth(UpperBound / static_cast<double>(BucketCount)),
      Buckets(BucketCount + 1, 0) {
  assert(UpperBound > 0.0 && "Histogram upper bound must be positive");
  assert(BucketCount > 0 && "Histogram needs at least one bucket");
}

void Histogram::add(double Value) {
  assert(Value >= 0.0 && "Histogram values must be non-negative");
  std::size_t Index = Value >= UpperBound
                          ? Buckets.size() - 1
                          : static_cast<std::size_t>(Value / BucketWidth);
  Index = std::min(Index, Buckets.size() - 1);
  ++Buckets[Index];
  ++Total;
  MaxSeen = std::max(MaxSeen, Value);
}

double Histogram::percentile(double P) const {
  assert(P >= 0.0 && P <= 100.0 && "Percentile out of range");
  if (Total == 0)
    return 0.0;
  const double Target = P / 100.0 * static_cast<double>(Total);
  double Cumulative = 0.0;
  for (std::size_t I = 0; I < Buckets.size(); ++I) {
    const double Next = Cumulative + static_cast<double>(Buckets[I]);
    if (Next >= Target) {
      if (I + 1 == Buckets.size())
        return MaxSeen; // overflow bucket
      const double Fraction =
          Buckets[I] == 0
              ? 0.0
              : (Target - Cumulative) / static_cast<double>(Buckets[I]);
      return (static_cast<double>(I) + Fraction) * BucketWidth;
    }
    Cumulative = Next;
  }
  return MaxSeen;
}

std::string Histogram::summary() const {
  char Buffer[160];
  std::snprintf(Buffer, sizeof(Buffer),
                "count=%llu p50=%.3g p95=%.3g p99=%.3g max=%.3g",
                static_cast<unsigned long long>(Total), percentile(50.0),
                percentile(95.0), percentile(99.0), MaxSeen);
  return Buffer;
}
