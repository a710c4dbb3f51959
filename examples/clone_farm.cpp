//===----------------------------------------------------------------------===//
///
/// \file
/// A VDI clone farm on one VolumeService: the operational showcase for
/// cross-volume deduplication. One golden desktop image is cloned for
/// a fleet of users, one tenant volume each; every clone boots (hot
/// reads through the shared cache), diverges a little (user data), gets
/// snapshotted for backup, and one departing user's desktop is deleted
/// — all while the shared dedup domain stores the common bits exactly
/// once.
///
//===----------------------------------------------------------------------===//

#include "service/VolumeService.h"
#include "workload/Trace.h"

#include <cstdio>
#include <vector>

using namespace padre;

namespace {

constexpr std::size_t BlockSize = 4096;
constexpr std::uint64_t ImageBlocks = 768; // 3 MiB golden image

void printPool(const VolumeService &Pool, const char *When) {
  const PoolStats Stats = Pool.poolStats();
  std::printf("  %-30s volumes=%llu logical=%s physical=%s "
              "(%.1fx reduction)\n",
              When, static_cast<unsigned long long>(Stats.Volumes),
              formatSize(Stats.LogicalBytes).c_str(),
              formatSize(Stats.PhysicalBytes).c_str(),
              Stats.reductionRatio());
}

ByteVector imageBlock(std::uint64_t Index) {
  ByteVector Data(BlockSize);
  fillTraceBlock(Index, MutableByteSpan(Data.data(), Data.size()));
  return Data;
}

} // namespace

int main() {
  ServiceConfig Config;
  Config.Pipeline.Mode = PipelineMode::GpuCompress;
  Config.Pipeline.Dedup.Index.BinBits = 10;
  Config.Pipeline.ReadCacheBytes = 2 << 20; // boot blocks are hot
  VolumeService Pool(Platform::paper(), Config);

  // Provision six user desktops from the golden image.
  ByteVector Golden;
  for (std::uint64_t I = 0; I < ImageBlocks; ++I)
    appendBytes(Golden, ByteSpan(imageBlock(I).data(), BlockSize));
  std::vector<Volume *> Desktops;
  TenantConfig Desktop;
  Desktop.Blocks = 1024;
  for (int User = 0; User < 6; ++User) {
    Volume &Vol = Pool.tenantVolume(
        Pool.addTenant("desktop" + std::to_string(User), Desktop));
    if (!Vol.writeBlocks(0, ByteSpan(Golden.data(), Golden.size()))) {
      std::fprintf(stderr, "error: provisioning failed\n");
      return 1;
    }
    Desktops.push_back(&Vol);
  }
  printPool(Pool, "after provisioning 6 clones");

  // Boot storm: every desktop reads the same first 256 blocks.
  for (Volume *Desktop : Desktops)
    if (!Desktop->readBlocks(0, 256))
      return 1;
  const ChunkCache *Cache = Pool.pipeline().readCache();
  std::printf("  boot storm: %.0f%% of reads served from the shared "
              "cache (%llu hits, %llu misses)\n",
              Cache->hitRate() * 100.0,
              static_cast<unsigned long long>(Cache->hits()),
              static_cast<unsigned long long>(Cache->misses()));

  // Each user writes some private data past the image.
  for (std::size_t User = 0; User < Desktops.size(); ++User) {
    ByteVector Private;
    for (std::uint64_t I = 0; I < 64; ++I)
      appendBytes(Private,
                  ByteSpan(imageBlock(10000 * (User + 1) + I).data(),
                           BlockSize));
    if (!Desktops[User]->writeBlocks(ImageBlocks,
                                     ByteSpan(Private.data(),
                                              Private.size())))
      return 1;
  }
  printPool(Pool, "after per-user private data");

  // Nightly backup: snapshot every desktop (nearly free).
  std::vector<Volume::SnapshotId> Backups;
  for (Volume *Desktop : Desktops)
    Backups.push_back(Desktop->createSnapshot());
  printPool(Pool, "after nightly snapshots");

  // One user leaves: wipe their desktop and its backup.
  Desktops[5]->deleteSnapshot(Backups[5]);
  Desktops[5]->trim(0, Desktops[5]->blockCount());
  const std::size_t Freed = Desktops[5]->collectGarbage();
  printPool(Pool, "after retiring one desktop");
  std::printf("  (GC reclaimed %zu chunks — the user's private data; "
              "the golden image stays shared)\n",
              Freed);

  // Everyone else's data is intact and healthy.
  for (std::size_t User = 0; User < 5; ++User) {
    const auto Boot = Desktops[User]->readBlocks(0, ImageBlocks);
    if (!Boot ||
        !std::equal(Boot->begin(), Boot->end(), Golden.begin())) {
      std::fprintf(stderr, "error: desktop %zu corrupted\n", User);
      return 1;
    }
  }
  const Volume::ScrubReport Scrub = Desktops[0]->scrub();
  std::printf("  scrub: %llu chunks, %llu corrupt\n",
              static_cast<unsigned long long>(Scrub.ChunksScanned),
              static_cast<unsigned long long>(Scrub.CorruptChunks));
  if (Scrub.CorruptChunks != 0)
    return 1;

  std::printf("\ntakeaway: the pool's shared dedup domain stores the "
              "golden image once for\nthe whole fleet; clones, backups "
              "and departures only move reference counts.\n");
  return 0;
}
