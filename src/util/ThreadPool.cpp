//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the fork-join pool.
///
//===----------------------------------------------------------------------===//

#include "util/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

using namespace padre;

namespace {

/// How long an idle runner polls before it parks. The write path issues
/// its hash, index and compress jobs a few microseconds apart, so a
/// worker that polls through the gap joins the next job at once instead
/// of paying a futex wake; past the bound it parks and costs nothing.
constexpr std::chrono::microseconds SpinBeforePark{50};

constexpr std::uint64_t ClosedBit = std::uint64_t(1) << 31;
constexpr std::uint64_t ActiveMask = ClosedBit - 1;

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls \p Done for at most SpinBeforePark; true once it holds.
template <typename Pred> bool spinFor(const Pred &Done) {
  const auto Deadline = std::chrono::steady_clock::now() + SpinBeforePark;
  for (;;) {
    for (unsigned I = 0; I < 64; ++I) {
      if (Done())
        return true;
      cpuRelax();
    }
    if (std::chrono::steady_clock::now() >= Deadline)
      return Done();
  }
}

} // namespace

ThreadPool::ThreadPool(unsigned Width)
    : Width(std::max(1u, Width ? Width : std::thread::hardware_concurrency())) {
  Workers.reserve(this->Width - 1);
  for (unsigned I = 1; I < this->Width; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  // A worker compares against the generation it last saw, which starts
  // at the constructor's 0, so one that first runs after this bump
  // still sees it and exits.
  Stopping.store(true, std::memory_order_relaxed);
  Generation.fetch_add(1, std::memory_order_release);
  Generation.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::run(std::size_t Begin, std::size_t End, const void *Body,
                     SliceCall Call) {
  if (Begin >= End)
    return;
  const std::size_t Total = End - Begin;
  const std::size_t Runners = std::min<std::size_t>(Width, Total);
  const std::size_t PerSlice = (Total + Runners - 1) / Runners;
  const auto Slices = static_cast<unsigned>((Total + PerSlice - 1) / PerSlice);
  if (Slices == 1) {
    Call(Body, Begin, End, 0);
    return;
  }

  assert((Entry.load(std::memory_order_relaxed) & ActiveMask) == 0 &&
         "Job published while a worker is inside the last one");
  JobBody = Body;
  JobCall = Call;
  JobBegin = Begin;
  JobEnd = End;
  JobPerSlice = PerSlice;
  JobSlices = Slices;
  Cursor.store(0, std::memory_order_relaxed);
  const std::uint32_t Gen = Generation.load(std::memory_order_relaxed) + 1;
  Entry.store(std::uint64_t(Gen) << 32, std::memory_order_release);
  Generation.store(Gen, std::memory_order_release);
  Generation.notify_all();

  runSlices();
  awaitWorkers();
  if (JobFailed.load(std::memory_order_relaxed)) {
    JobFailed.store(false, std::memory_order_relaxed);
    std::rethrow_exception(std::exchange(JobFailure, nullptr));
  }
}

void ThreadPool::awaitWorkers() {
  // Every slice is claimed; close the job to latecomers and wait for
  // the workers inside to finish theirs and leave.
  std::uint64_t State =
      Entry.fetch_or(ClosedBit, std::memory_order_acq_rel) | ClosedBit;
  if ((State & ActiveMask) == 0)
    return;
  if (spinFor([&] {
        State = Entry.load(std::memory_order_acquire);
        return (State & ActiveMask) == 0;
      }))
    return;
  while ((State & ActiveMask) != 0) {
    Entry.wait(State, std::memory_order_acquire);
    State = Entry.load(std::memory_order_acquire);
  }
}

void ThreadPool::runSlices() {
  for (;;) {
    const unsigned Slice = Cursor.fetch_add(1, std::memory_order_relaxed);
    if (Slice >= JobSlices)
      return;
    const std::size_t SliceBegin = JobBegin + Slice * JobPerSlice;
    try {
      JobCall(JobBody, SliceBegin,
              std::min(JobEnd, SliceBegin + JobPerSlice), Slice);
    } catch (...) {
      if (!JobFailed.exchange(true, std::memory_order_relaxed))
        JobFailure = std::current_exception();
    }
  }
}

void ThreadPool::workerLoop() {
  std::uint32_t Seen = 0;
  for (;;) {
    std::uint32_t Gen = Generation.load(std::memory_order_acquire);
    if (Gen == Seen && !spinFor([&] {
          Gen = Generation.load(std::memory_order_acquire);
          return Gen != Seen;
        })) {
      while (Gen == Seen) {
        Generation.wait(Seen, std::memory_order_acquire);
        Gen = Generation.load(std::memory_order_acquire);
      }
    }
    Seen = Gen;
    if (Stopping.load(std::memory_order_relaxed))
      return;

    // Enter job Gen unless it has closed or been replaced meanwhile.
    std::uint64_t State = Entry.load(std::memory_order_relaxed);
    bool Entered = false;
    while ((State >> 32) == Gen && !(State & ClosedBit)) {
      if (Entry.compare_exchange_weak(State, State + 1,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        Entered = true;
        break;
      }
    }
    if (!Entered)
      continue;
    runSlices();
    const std::uint64_t Before = Entry.fetch_sub(1, std::memory_order_release);
    if ((Before & ClosedBit) && (Before & ActiveMask) == 1)
      Entry.notify_one();
  }
}
