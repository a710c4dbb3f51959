//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the util module: thread pool, PRNG, statistics, byte
/// helpers.
///
//===----------------------------------------------------------------------===//

#include "util/Arena.h"
#include "util/Bytes.h"
#include "util/Random.h"
#include "util/Stats.h"
#include "util/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

using namespace padre;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEverySubmittedTask) {
  // A hundred jobs of growing size, back to back: every item of every
  // job runs once, and each job is complete when the call returns.
  ThreadPool Pool(4);
  int Total = 0;
  for (int Job = 1; Job <= 100; ++Job) {
    std::atomic<int> Counter{0};
    Pool.parallelFor(0, static_cast<std::size_t>(Job),
                     [&Counter](std::size_t) { Counter.fetch_add(1); });
    EXPECT_EQ(Counter.load(), Job);
    Total += Counter.load();
  }
  EXPECT_EQ(Total, 5050);
}

TEST(ThreadPool, WidthZeroIsHostWidth) {
  ThreadPool Pool;
  EXPECT_EQ(Pool.size(), std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(0, Hits.size(),
                   [&Hits](std::size_t I) { Hits[I].fetch_add(1); });
  for (const auto &Hit : Hits)
    EXPECT_EQ(Hit.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool Pool(2);
  bool Ran = false;
  Pool.parallelFor(5, 5, [&Ran](std::size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPool, SlicesAreDisjointAndComplete) {
  // Every range size from 1 to 40 at widths 1-5: the slices tile the
  // range exactly, each is non-empty, and all but the last hold
  // ceil(n / min(width, n)) items.
  for (unsigned Width = 1; Width <= 5; ++Width) {
    ThreadPool Pool(Width);
    for (std::size_t N = 1; N <= 40; ++N) {
      SCOPED_TRACE("width " + std::to_string(Width) + " n " +
                   std::to_string(N));
      std::mutex Mutex;
      std::vector<std::pair<std::size_t, std::size_t>> Slices;
      Pool.parallelForSlices(10, 10 + N,
                             [&](std::size_t Begin, std::size_t End,
                                 unsigned) {
                               std::lock_guard<std::mutex> Lock(Mutex);
                               Slices.push_back({Begin, End});
                             });
      std::sort(Slices.begin(), Slices.end());
      const std::size_t Per =
          (N + std::min<std::size_t>(Width, N) - 1) /
          std::min<std::size_t>(Width, N);
      std::size_t Expected = 10;
      for (const auto &[Begin, End] : Slices) {
        EXPECT_EQ(Begin, Expected);
        EXPECT_LT(Begin, End);
        if (End != 10 + N) {
          EXPECT_EQ(End - Begin, Per);
        }
        Expected = End;
      }
      EXPECT_EQ(Expected, 10 + N);
      EXPECT_LE(Slices.size(), Width);
    }
  }
}

TEST(ThreadPool, SliceIndexIsBounded) {
  // Indices are distinct, below size(), and name the slice's position.
  for (unsigned Width = 1; Width <= 5; ++Width) {
    ThreadPool Pool(Width);
    for (std::size_t N : {1u, 2u, 3u, 7u, 16u, 1000u}) {
      SCOPED_TRACE("width " + std::to_string(Width) + " n " +
                   std::to_string(N));
      const std::size_t Per =
          (N + std::min<std::size_t>(Width, N) - 1) /
          std::min<std::size_t>(Width, N);
      std::vector<std::atomic<int>> Seen(Width);
      std::atomic<bool> Misplaced{false};
      Pool.parallelForSlices(0, N,
                             [&](std::size_t Begin, std::size_t,
                                 unsigned Index) {
                               if (Index >= Width || Begin != Index * Per) {
                                 Misplaced = true;
                                 return;
                               }
                               Seen[Index].fetch_add(1);
                             });
      EXPECT_FALSE(Misplaced.load());
      for (const auto &Count : Seen)
        EXPECT_LE(Count.load(), 1);
    }
  }
}

TEST(ThreadPool, SingleWorkerPoolStillCompletes) {
  // Width 1 starts no worker: every slice runs on the caller.
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.size(), 1u);
  std::atomic<int> Counter{0};
  std::atomic<bool> OffCaller{false};
  const std::thread::id Caller = std::this_thread::get_id();
  Pool.parallelFor(0, 50, [&](std::size_t) {
    Counter.fetch_add(1);
    if (std::this_thread::get_id() != Caller)
      OffCaller = true;
  });
  EXPECT_EQ(Counter.load(), 50);
  EXPECT_FALSE(OffCaller.load());
}

TEST(ThreadPool, TenThousandBackToBackJobs) {
  // One-item slices, each job tagged: a worker that arrives late from
  // job J must neither run a slice of J + 1 on J's view nor leave one
  // of J unfinished when the call returns.
  ThreadPool Pool(4);
  const std::size_t Items = 2 * Pool.size();
  std::vector<std::atomic<int>> Owner(Items);
  int Bad = 0;
  for (int Job = 0; Job < 10000; ++Job) {
    const std::size_t N = 1 + static_cast<std::size_t>(Job) % Items;
    Pool.parallelFor(0, N, [&Owner, Job](std::size_t I) {
      Owner[I].store(Job, std::memory_order_relaxed);
    });
    for (std::size_t I = 0; I < N; ++I)
      Bad += Owner[I].load(std::memory_order_relaxed) != Job;
  }
  EXPECT_EQ(Bad, 0);
}

TEST(ThreadPool, CallerReturnsAfterEveryWorkerLeaves) {
  // The caller's own slice holds until a worker has claimed one, and
  // the worker's slice outlasts the caller's: the call must still wait
  // for it.
  ThreadPool Pool(4);
  const std::thread::id Caller = std::this_thread::get_id();
  for (int Round = 0; Round < 20; ++Round) {
    std::atomic<int> Done{0};
    std::atomic<bool> WorkerIn{false};
    Pool.parallelFor(0, 4, [&](std::size_t) {
      if (std::this_thread::get_id() == Caller) {
        const auto Deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (!WorkerIn.load() && std::chrono::steady_clock::now() < Deadline)
          std::this_thread::yield();
      } else {
        WorkerIn = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      Done.fetch_add(1);
    });
    EXPECT_EQ(Done.load(), 4);
  }
}

TEST(ThreadPool, ExceptionFromASliceReachesTheCaller) {
  // Whichever runner throws, the call rethrows after every slice has
  // run, and the pool takes the next job.
  ThreadPool Pool(4);
  for (std::size_t Thrower = 0; Thrower < 4; ++Thrower) {
    std::atomic<int> Ran{0};
    EXPECT_THROW(Pool.parallelFor(0, 4,
                                  [&](std::size_t I) {
                                    Ran.fetch_add(1);
                                    if (I == Thrower)
                                      throw std::runtime_error("slice");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(Ran.load(), 4);
  }
  std::atomic<int> Counter{0};
  Pool.parallelFor(0, 8, [&Counter](std::size_t) { Counter.fetch_add(1); });
  EXPECT_EQ(Counter.load(), 8);
}

TEST(ThreadPool, DestroyedRightAfterConstruction) {
  // Workers may first run after the destructor's shutdown bump; none
  // may miss it and hang the join.
  for (int I = 0; I < 200; ++I) {
    ThreadPool Pool(4);
  }
  for (int I = 0; I < 50; ++I) {
    ThreadPool Pool(4);
    std::atomic<int> Counter{0};
    Pool.parallelFor(0, 4, [&Counter](std::size_t) { Counter.fetch_add(1); });
    EXPECT_EQ(Counter.load(), 4);
  }
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(Random, DeterministicForSameSeed) {
  Random A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.nextU64(), B.nextU64());
}

TEST(Random, DifferentSeedsDiverge) {
  Random A(1), B(2);
  int Equal = 0;
  for (int I = 0; I < 100; ++I)
    Equal += A.nextU64() == B.nextU64();
  EXPECT_LT(Equal, 3);
}

TEST(Random, NextBelowStaysInRange) {
  Random Rng(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(Random, NextDoubleInUnitInterval) {
  Random Rng(9);
  for (int I = 0; I < 1000; ++I) {
    const double Value = Rng.nextDouble();
    EXPECT_GE(Value, 0.0);
    EXPECT_LT(Value, 1.0);
  }
}

TEST(Random, NextBoolMatchesProbability) {
  Random Rng(11);
  int Trues = 0;
  const int Trials = 20000;
  for (int I = 0; I < Trials; ++I)
    Trues += Rng.nextBool(0.3);
  EXPECT_NEAR(static_cast<double>(Trues) / Trials, 0.3, 0.02);
}

TEST(Random, FillBytesIsDeterministicAndCoversBuffer) {
  Random A(5), B(5);
  std::uint8_t BufA[37], BufB[37];
  A.fillBytes(BufA, sizeof(BufA));
  B.fillBytes(BufB, sizeof(BufB));
  EXPECT_EQ(0, std::memcmp(BufA, BufB, sizeof(BufA)));
  // Not all bytes equal (overwhelmingly likely for a working PRNG).
  std::set<std::uint8_t> Distinct(BufA, BufA + sizeof(BufA));
  EXPECT_GT(Distinct.size(), 8u);
}

TEST(Random, ReseedResetsStream) {
  Random Rng(77);
  const std::uint64_t First = Rng.nextU64();
  Rng.nextU64();
  Rng.reseed(77);
  EXPECT_EQ(Rng.nextU64(), First);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, PercentilesOfUniformData) {
  Histogram Hist(100.0, 100);
  for (int I = 0; I < 100; ++I)
    Hist.add(static_cast<double>(I) + 0.5);
  EXPECT_NEAR(Hist.percentile(50.0), 50.0, 1.5);
  EXPECT_NEAR(Hist.percentile(95.0), 95.0, 1.5);
}

TEST(Histogram, OverflowGoesToMax) {
  Histogram Hist(10.0, 10);
  Hist.add(5.0);
  Hist.add(1000.0);
  EXPECT_DOUBLE_EQ(Hist.percentile(100.0), 1000.0);
}

TEST(Histogram, SummaryMentionsCount) {
  Histogram Hist(10.0, 10);
  Hist.add(1.0);
  Hist.add(2.0);
  EXPECT_NE(Hist.summary().find("count=2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Bytes helpers
//===----------------------------------------------------------------------===//

TEST(Bytes, LittleEndianRoundTrip) {
  std::uint8_t Buffer[8];
  storeLe16(Buffer, 0xBEEF);
  EXPECT_EQ(loadLe16(Buffer), 0xBEEF);
  storeLe32(Buffer, 0xDEADBEEFu);
  EXPECT_EQ(loadLe32(Buffer), 0xDEADBEEFu);
  storeLe64(Buffer, 0x0123456789ABCDEFull);
  EXPECT_EQ(loadLe64(Buffer), 0x0123456789ABCDEFull);
}

TEST(Bytes, LittleEndianByteOrder) {
  std::uint8_t Buffer[4];
  storeLe32(Buffer, 0x11223344u);
  EXPECT_EQ(Buffer[0], 0x44);
  EXPECT_EQ(Buffer[3], 0x11);
}

TEST(Bytes, HexFormatting) {
  const std::uint8_t Data[] = {0xDE, 0xAD, 0x00, 0xFF};
  EXPECT_EQ(toHex(ByteSpan(Data, 4)), "dead00ff");
  EXPECT_EQ(toHex(ByteSpan(Data, 0)), "");
}

TEST(Bytes, SizeFormatting) {
  EXPECT_EQ(formatSize(512), "512 B");
  EXPECT_EQ(formatSize(4096), "4.00 KiB");
  EXPECT_EQ(formatSize(3ull << 30), "3.00 GiB");
}

TEST(Bytes, ThroughputFormatting) {
  EXPECT_EQ(formatThroughput(1e6, 1.0), "1.0 MB/s");
  EXPECT_EQ(formatThroughput(1.0, 0.0), "inf");
}

TEST(Bytes, AppendBytes) {
  ByteVector Out = {1, 2};
  const std::uint8_t More[] = {3, 4, 5};
  appendBytes(Out, ByteSpan(More, 3));
  EXPECT_EQ(Out, (ByteVector{1, 2, 3, 4, 5}));
}

//===----------------------------------------------------------------------===//
// Arena: bump allocation, poisoned reuse, retention policy
//===----------------------------------------------------------------------===//

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena A(256);
  const std::span<std::uint64_t> Words = A.allocateSpan<std::uint64_t>(8);
  const std::span<std::uint8_t> Bytes = A.allocateSpan<std::uint8_t>(13);
  const std::span<double> Doubles = A.allocateSpan<double>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Words.data()) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(Doubles.data()) % 8, 0u);
  // Fill each span with a distinct pattern; none may alias another.
  std::fill(Words.begin(), Words.end(), 0x1111111111111111ull);
  std::fill(Bytes.begin(), Bytes.end(), std::uint8_t(0x22));
  std::fill(Doubles.begin(), Doubles.end(), 3.0);
  EXPECT_TRUE(std::all_of(Words.begin(), Words.end(),
                          [](std::uint64_t W) {
                            return W == 0x1111111111111111ull;
                          }));
  EXPECT_TRUE(std::all_of(Bytes.begin(), Bytes.end(),
                          [](std::uint8_t B) { return B == 0x22; }));
  EXPECT_GE(A.bytesAllocated(), 8 * 8 + 13 + 4 * 8);
}

TEST(Arena, ResetPoisonsReclaimedBytes) {
  // The canary test behind the no-stale-chunk-refs guarantee: bytes
  // written before a reset must read back as PoisonByte afterwards, so
  // a dangling span read fails loudly instead of aliasing fresh data.
  Arena A(128);
  const std::span<std::uint8_t> Canary = A.allocateSpan<std::uint8_t>(64);
  std::fill(Canary.begin(), Canary.end(), std::uint8_t(0xCA));
  const std::uint8_t *Raw = Canary.data();
  A.reset();
  for (std::size_t I = 0; I < 64; ++I)
    ASSERT_EQ(Raw[I], Arena::PoisonByte) << "byte " << I;
  // The next batch's allocation reuses the block and sees no canary.
  const std::span<std::uint8_t> Fresh = A.allocateSpan<std::uint8_t>(64);
  for (std::size_t I = 0; I < 64; ++I)
    ASSERT_EQ(Fresh[I], Arena::PoisonByte);
  EXPECT_EQ(A.bytesAllocated(), 64u);
}

TEST(Arena, ResetKeepsOnlyLargestBlock) {
  Arena A(64);
  (void)A.allocateSpan<std::uint8_t>(64);
  (void)A.allocateSpan<std::uint8_t>(4096); // forces a bigger block
  EXPECT_GE(A.blockCount(), 2u);
  const std::size_t Reserved = A.bytesReserved();
  A.reset();
  EXPECT_EQ(A.blockCount(), 1u);
  EXPECT_LE(A.bytesReserved(), Reserved);
  EXPECT_EQ(A.bytesAllocated(), 0u);
  // Steady state: the survivor absorbs the next batch without growing.
  (void)A.allocateSpan<std::uint8_t>(4096);
  EXPECT_EQ(A.blockCount(), 1u);
}

TEST(Arena, FilledSpansAndAllocatorAdapter) {
  Arena A;
  const std::span<std::uint32_t> Filled =
      A.allocateFilled<std::uint32_t>(100, 0xDEADBEEF);
  EXPECT_TRUE(std::all_of(Filled.begin(), Filled.end(),
                          [](std::uint32_t V) { return V == 0xDEADBEEF; }));
  std::vector<int, ArenaAllocator<int>> Borrowed{ArenaAllocator<int>(A)};
  for (int I = 0; I < 1000; ++I)
    Borrowed.push_back(I);
  EXPECT_EQ(Borrowed[999], 999);
  EXPECT_GT(A.bytesAllocated(), 1000 * sizeof(int) / 2);
}

TEST(Arena, ZeroByteAllocationIsValid) {
  Arena A;
  EXPECT_NE(A.allocate(0, 1), nullptr);
  const std::span<std::uint8_t> Empty = A.allocateSpan<std::uint8_t>(0);
  EXPECT_EQ(Empty.size(), 0u);
}
