//===----------------------------------------------------------------------===//
///
/// \file
/// X3 — cross-volume deduplication in a storage pool (extension): the
/// VDI golden-image pattern. N clone volumes are provisioned from one
/// template and then diverge by a per-clone edit fraction; as tenant
/// volumes of one VolumeService they share a dedup domain that stores
/// the common chunks once, so total reduction grows with the clone
/// count while per-clone divergence prices the rest.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "service/VolumeService.h"
#include "util/Random.h"
#include "workload/Trace.h"

#include <cstdio>

using namespace padre;
using namespace padre::bench;

namespace {

constexpr std::size_t BlockSize = 4096;
constexpr std::uint64_t ImageBlocks = 512; // 2 MiB golden image

/// Provisions `CloneCount` clones and diverges each by `EditFraction`.
PoolStats provision(unsigned CloneCount, double EditFraction) {
  ServiceConfig Config;
  Config.Pipeline.Mode = PipelineMode::GpuCompress;
  Config.Pipeline.Dedup.Index.BinBits = 10;
  VolumeService Pool(Platform::paper(), Config);
  Random Rng(7);

  TenantConfig CloneConfig;
  CloneConfig.Blocks = ImageBlocks;
  for (unsigned Clone = 0; Clone < CloneCount; ++Clone) {
    Volume &Vol = Pool.tenantVolume(
        Pool.addTenant("clone" + std::to_string(Clone), CloneConfig));
    // The golden image: identical across clones.
    ByteVector Image(ImageBlocks * BlockSize);
    for (std::uint64_t I = 0; I < ImageBlocks; ++I)
      fillTraceBlock(I, MutableByteSpan(Image.data() + I * BlockSize,
                                        BlockSize));
    if (!Vol.writeBlocks(0, ByteSpan(Image.data(), Image.size())))
      std::abort();
    // Per-clone divergence: rewrite a fraction of blocks with
    // clone-unique content.
    for (std::uint64_t I = 0; I < ImageBlocks; ++I) {
      if (!Rng.nextBool(EditFraction))
        continue;
      ByteVector Block(BlockSize);
      fillTraceBlock(1000000ull * (Clone + 1) + I,
                     MutableByteSpan(Block.data(), BlockSize));
      Vol.writeBlocks(I, ByteSpan(Block.data(), Block.size()));
    }
  }
  Pool.tenantVolume(0).collectGarbage();
  Pool.finish();
  return Pool.poolStats();
}

} // namespace

int main() {
  banner("X3", "cross-volume dedup: VDI clone farm on one pool "
               "(extension)");

  std::printf("clone-count sweep (5%% divergence per clone):\n");
  std::printf("%8s %14s %14s %14s %12s\n", "clones", "logical MiB",
              "physical MiB", "live chunks", "reduction");
  for (unsigned Clones : {1u, 2u, 4u, 8u, 16u}) {
    const PoolStats Stats = provision(Clones, 0.05);
    std::printf("%8u %14.1f %14.2f %14llu %11.1fx\n", Clones,
                static_cast<double>(Stats.LogicalBytes) / (1 << 20),
                static_cast<double>(Stats.PhysicalBytes) / (1 << 20),
                static_cast<unsigned long long>(Stats.LiveChunks),
                Stats.reductionRatio());
  }

  std::printf("\ndivergence sweep (8 clones):\n");
  std::printf("%12s %14s %14s %12s\n", "divergence", "logical MiB",
              "physical MiB", "reduction");
  for (double Edit : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    const PoolStats Stats = provision(8, Edit);
    std::printf("%11.0f%% %14.1f %14.2f %11.1fx\n", Edit * 100.0,
                static_cast<double>(Stats.LogicalBytes) / (1 << 20),
                static_cast<double>(Stats.PhysicalBytes) / (1 << 20),
                Stats.reductionRatio());
  }

  std::printf("\nexpected shape: reduction grows ~linearly with the clone "
              "count at low\ndivergence (the image is stored once) and "
              "collapses toward the pure\ncompression ratio as clones "
              "fully diverge.\n");
  return 0;
}
