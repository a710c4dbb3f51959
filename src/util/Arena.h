//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for per-batch scratch memory on the reduction
/// hot path. Every pipeline batch used to allocate (and free) a dozen
/// short-lived vectors — fingerprints, scatter tables, lookup results,
/// chunk refs — on the global heap. The arena replaces those with
/// pointer bumps over a few retained blocks: `reset()` recycles the
/// memory between batches without returning it to the allocator, so a
/// steady-state batch performs zero heap calls for scratch.
///
/// Safety: recycled memory is *poisoned* on reset (every reclaimed byte
/// is overwritten with `PoisonByte`), so a stale reference held across
/// a reset reads an obviously-wrong pattern instead of silently
/// aliasing the next batch's data — the allocator-poisoning tests in
/// tests/test_util.cpp and tests/test_pipeline.cpp assert exactly this
/// (no stale chunk refs can leak into recipes).
///
/// The arena is single-owner: one pipeline/engine instance resets it
/// between its own batches. It is not thread-safe; parallel stages may
/// *read* arena-backed spans freely (the owner does not reset while a
/// batch is in flight), but all allocation happens on the batch-driving
/// thread.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_UTIL_ARENA_H
#define PADRE_UTIL_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace padre {

/// Bump-pointer arena with poisoned reuse.
class Arena {
public:
  /// The pattern written over every reclaimed byte on reset().
  static constexpr std::uint8_t PoisonByte = 0xA5;

  /// \p FirstBlockBytes sizes the initial block (subsequent blocks grow
  /// geometrically).
  explicit Arena(std::size_t FirstBlockBytes = 64 * 1024);
  ~Arena();

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Returns \p Bytes of storage aligned to \p Align (a power of two).
  /// Never returns null; zero-byte requests return a valid aligned
  /// pointer into the current block (not necessarily distinct).
  void *allocate(std::size_t Bytes, std::size_t Align);

  /// Typed allocation: \p Count default-initialized elements of \p T.
  /// T must be trivially copyable and trivially destructible — arena
  /// memory is reclaimed wholesale, destructors never run.
  template <typename T> std::span<T> allocateSpan(std::size_t Count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Arena spans hold trivial types only");
    T *Data = static_cast<T *>(allocate(Count * sizeof(T), alignof(T)));
    return std::span<T>(Data, Count);
  }

  /// Typed allocation with every element set to \p Value.
  template <typename T>
  std::span<T> allocateFilled(std::size_t Count, const T &Value) {
    std::span<T> Out = allocateSpan<T>(Count);
    for (T &Element : Out)
      Element = Value;
    return Out;
  }

  /// Reclaims every allocation: all but the largest block are released,
  /// the survivor's used bytes are poisoned, and the bump pointer
  /// rewinds. Pointers handed out before the reset must not be
  /// dereferenced afterwards (they read PoisonByte until reused).
  void reset();

  /// Bytes handed out since construction or the last reset().
  std::size_t bytesAllocated() const { return Allocated; }

  /// Bytes of block storage currently owned (allocated or not).
  std::size_t bytesReserved() const;

  /// Blocks currently owned. Steady state is 1: reset() keeps only the
  /// largest block, so a spiky batch grows the arena once and then
  /// every later batch bump-allocates from the single survivor.
  std::size_t blockCount() const { return Blocks.size(); }

private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> Storage;
    std::size_t Capacity = 0;
    std::size_t Used = 0;
  };

  /// Appends a block of at least \p MinBytes (geometric growth).
  Block &grow(std::size_t MinBytes);

  std::vector<Block> Blocks;
  std::size_t NextBlockBytes;
  std::size_t Allocated = 0;
};

/// std::allocator-compatible adapter so standard containers can borrow
/// arena storage for batch-scoped scratch (`std::vector<T,
/// ArenaAllocator<T>>`). Deallocation is a no-op — the arena reclaims
/// wholesale on reset — so such containers must not outlive the owning
/// arena's next reset.
template <typename T> class ArenaAllocator {
public:
  using value_type = T;

  explicit ArenaAllocator(Arena &A) : A(&A) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U> &Other) : A(Other.arena()) {}

  T *allocate(std::size_t Count) {
    return static_cast<T *>(A->allocate(Count * sizeof(T), alignof(T)));
  }
  void deallocate(T *, std::size_t) {} // reclaimed by Arena::reset()

  Arena *arena() const { return A; }

  friend bool operator==(const ArenaAllocator &X, const ArenaAllocator &Y) {
    return X.A == Y.A;
  }

private:
  Arena *A;
};

} // namespace padre

#endif // PADRE_UTIL_ARENA_H
