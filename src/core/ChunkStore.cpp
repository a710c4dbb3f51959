//===----------------------------------------------------------------------===//
///
/// \file
/// Chunk store implementation.
///
//===----------------------------------------------------------------------===//

#include "core/ChunkStore.h"

#include <cassert>

using namespace padre;

void ChunkStore::put(std::uint64_t Location, ByteVector Block) {
  std::lock_guard<std::mutex> Lock(Mutex);
  TotalStoredBytes += Block.size();
  [[maybe_unused]] const bool Inserted =
      Blocks.emplace(Location, std::move(Block)).second;
  assert(Inserted && "Duplicate chunk location");
}

bool ChunkStore::contains(std::uint64_t Location) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Blocks.count(Location) != 0;
}

std::optional<ByteSpan>
ChunkStore::encodedBlock(std::uint64_t Location) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  const auto It = Blocks.find(Location);
  if (It == Blocks.end())
    return std::nullopt;
  return ByteSpan(It->second.data(), It->second.size());
}

std::uint64_t ChunkStore::erase(std::uint64_t Location) {
  std::lock_guard<std::mutex> Lock(Mutex);
  const auto It = Blocks.find(Location);
  if (It == Blocks.end())
    return 0;
  const std::uint64_t Freed = It->second.size();
  TotalStoredBytes -= Freed;
  TotalFreedBytes += Freed;
  Blocks.erase(It);
  return Freed;
}

std::size_t ChunkStore::chunkCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Blocks.size();
}

std::uint64_t ChunkStore::storedBytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return TotalStoredBytes;
}

std::uint64_t ChunkStore::freedBytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return TotalFreedBytes;
}

bool ChunkStore::corruptForTesting(std::uint64_t Location,
                                   std::size_t ByteOffset) {
  std::lock_guard<std::mutex> Lock(Mutex);
  const auto It = Blocks.find(Location);
  if (It == Blocks.end() || ByteOffset >= It->second.size())
    return false;
  It->second[ByteOffset] ^= 0x5A;
  return true;
}

void ChunkStore::forEach(
    const std::function<void(std::uint64_t, ByteSpan)> &Visit) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &[Location, Block] : Blocks)
    Visit(Location, ByteSpan(Block.data(), Block.size()));
}
