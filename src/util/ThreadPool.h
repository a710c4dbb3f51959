//===----------------------------------------------------------------------===//
///
/// \file
/// The host's fork-join pool, used by every parallel stage in padre.
///
/// The pool is as wide as the host (`std::thread::hardware_concurrency()`)
/// and the calling thread is one of its runners, so it starts width - 1
/// workers. A `parallelForSlices` call publishes one job — body, bounds
/// and slice count, tagged with a generation — and the caller and the
/// workers claim slices from one atomic cursor; the caller returns once
/// every worker that joined the job has left it. Idle workers spin for
/// a short compile-time bound, then park on the generation word.
///
/// Nothing modelled depends on the width: sites that price work on the
/// pool write per-item costs into a batch array and book them with
/// `ResourceLedger::chargeSliced`, which partitions by the modelled
/// `Cpu.Threads`. Host time does depend on it: hashing, the codecs, the
/// index and the modelled-kernel bodies all run across the pool.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_UTIL_THREADPOOL_H
#define PADRE_UTIL_THREADPOOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace padre {

/// A fork-join pool: one job at a time, run by the caller and the
/// workers together.
class ThreadPool {
public:
  /// Creates a pool of \p Width runners (the caller plus Width - 1
  /// workers). Zero selects `std::thread::hardware_concurrency()`, at
  /// least one; the pipelines use that. A fixed width is for tests,
  /// oracles and micro-benchmarks.
  explicit ThreadPool(unsigned Width = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of runners, the caller included.
  unsigned size() const { return Width; }

  /// Runs `Body(I)` for every I in [Begin, End) across the pool and
  /// blocks until all iterations complete. Same-slice iterations run on
  /// one thread in order.
  template <typename Fn>
  void parallelFor(std::size_t Begin, std::size_t End, const Fn &Body) {
    parallelForSlices(Begin, End,
                      [&Body](std::size_t SliceBegin, std::size_t SliceEnd,
                              unsigned) {
                        for (std::size_t I = SliceBegin; I < SliceEnd; ++I)
                          Body(I);
                      });
  }

  /// Runs `Body(SliceBegin, SliceEnd, SliceIndex)` for a partition of
  /// [Begin, End) into at most `size()` contiguous, non-empty slices of
  /// ceil(n / min(size(), n)) items, and blocks until all complete.
  /// `SliceIndex` is below `size()`. If a slice throws, the other slices
  /// still run and the call rethrows the first exception. One thread
  /// calls into a pool at a time, and never from inside a body.
  template <typename Fn>
  void parallelForSlices(std::size_t Begin, std::size_t End, const Fn &Body) {
    run(Begin, End, &Body,
        [](const void *F, std::size_t SliceBegin, std::size_t SliceEnd,
           unsigned Slice) {
          (*static_cast<const Fn *>(F))(SliceBegin, SliceEnd, Slice);
        });
  }

private:
  using SliceCall = void (*)(const void *, std::size_t, std::size_t,
                             unsigned);

  void run(std::size_t Begin, std::size_t End, const void *Body,
           SliceCall Call);
  void runSlices();
  void awaitWorkers();
  void workerLoop();

  const unsigned Width;

  // The published job. The caller writes it only while no worker is
  // inside a job; a worker reads it only after entering.
  const void *JobBody = nullptr;
  SliceCall JobCall = nullptr;
  std::size_t JobBegin = 0;
  std::size_t JobEnd = 0;
  std::size_t JobPerSlice = 0;
  unsigned JobSlices = 0;
  /// The first exception a slice of the job threw, set by the runner
  /// that wins JobFailed and read by the caller after the join.
  std::exception_ptr JobFailure;
  std::atomic<bool> JobFailed{false};

  /// Bumped once per job and once at shutdown; idle workers park on it.
  alignas(64) std::atomic<std::uint32_t> Generation{0};
  /// The open job's generation (high word), a closed bit and the count
  /// of workers inside it. A worker enters with a CAS that checks the
  /// generation it woke for, so a late worker never joins a later job
  /// on a stale view.
  alignas(64) std::atomic<std::uint64_t> Entry{0};
  /// The next unclaimed slice of the open job.
  alignas(64) std::atomic<unsigned> Cursor{0};
  std::atomic<bool> Stopping{false};
  std::vector<std::thread> Workers;
};

} // namespace padre

#endif // PADRE_UTIL_THREADPOOL_H
