//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool used by every parallel stage in padre.
///
/// The pool is deliberately simple: a single locked queue feeding N
/// workers, plus a structured `parallelFor` helper that blocks the caller
/// until all slices complete. Modelled time (sim/CostModel.h) does not
/// depend on it, but host time does: the hashing, codec, index and
/// modelled-kernel bodies all run across it, so a stage that leaves it
/// idle shows up directly in measured host throughput.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_UTIL_THREADPOOL_H
#define PADRE_UTIL_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace padre {

/// A fixed-size thread pool with a blocking wait-for-idle operation.
class ThreadPool {
public:
  /// Creates a pool with \p WorkerCount workers. A count of zero selects
  /// `std::thread::hardware_concurrency()` (at least one).
  explicit ThreadPool(unsigned WorkerCount = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p Task for asynchronous execution.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has finished executing.
  void waitIdle();

  /// Runs `Body(I)` for every I in [Begin, End) across the pool and blocks
  /// until all iterations complete. Iterations are grouped into
  /// contiguous slices (one per worker by default) so `Body` may assume
  /// that same-slice iterations run on one thread in order.
  void parallelFor(std::size_t Begin, std::size_t End,
                   const std::function<void(std::size_t)> &Body);

  /// Runs `Body(SliceBegin, SliceEnd, SliceIndex)` for a partition of
  /// [Begin, End) into at most `size()` contiguous slices and blocks
  /// until all slices complete. The wait is `waitIdle`, which waits for
  /// the whole pool, so neither this nor `parallelFor` may be called
  /// from a pool worker.
  void parallelForSlices(
      std::size_t Begin, std::size_t End,
      const std::function<void(std::size_t, std::size_t, unsigned)> &Body);

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  std::size_t InFlight = 0;
  bool ShuttingDown = false;
};

} // namespace padre

#endif // PADRE_UTIL_THREADPOOL_H
