//===----------------------------------------------------------------------===//
///
/// \file
/// The GPU-resident bin table (§3.1(2)): the device-side copy of (part
/// of) the dedup index, organized per the paper's GPU considerations —
///
///   * each bin is a *linear* table, not a tree: consecutive slots let
///     lockstep threads stream entries from global to local memory and
///     avoid branch divergence;
///   * "only the hash value persists in GPU memory"; metadata stays in
///     system memory, so a probe returns an (index number, hit/miss)
///     pair and the host resolves the location from its mirror array;
///   * device memory is bounded, so only a subset of bins is resident
///     and slot updates use random replacement (§3.3).
///
/// The probe is a functional kernel body; the engine wraps it in
/// GpuDevice::launchKernel so launch/transfer/execution time is charged.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_INDEX_GPUBINTABLE_H
#define PADRE_INDEX_GPUBINTABLE_H

#include "gpu/GpuDevice.h"
#include "index/BinLayout.h"
#include "util/Bytes.h"
#include "util/Random.h"

#include <cstdint>
#include <vector>

namespace padre {

/// Result of probing one fingerprint against the GPU table.
struct GpuProbeResult {
  bool Hit = false;
  std::uint32_t SlotIndex = 0; ///< device slot; host resolves metadata
};

/// Device-resident linear bin tables with a host-side metadata mirror.
class GpuBinTable {
public:
  /// Sizes the table to the device-memory budget: covers as many bins
  /// as fit with \p SlotsPerBin suffix slots each. Reserves the arena
  /// space in \p Device; the device must outlive the table.
  GpuBinTable(GpuDevice &Device, const BinLayout &Layout,
              std::size_t SlotsPerBin, std::uint64_t Seed);
  ~GpuBinTable();

  GpuBinTable(const GpuBinTable &) = delete;
  GpuBinTable &operator=(const GpuBinTable &) = delete;

  /// True if \p Bin is device-resident (probe-able).
  bool coversBin(std::uint32_t Bin) const { return Bin < CoveredBins; }

  /// Fraction of the bin space that is device-resident.
  double coverageFraction() const;

  /// Kernel body: probes \p Fp against its (covered) bin by linear
  /// scan. The caller is responsible for charging launch/exec time.
  GpuProbeResult probe(const Fingerprint &Fp) const;

  /// Host-side metadata resolution for a hit ("the metadata space
  /// structure in system memory then uses the results of the GPU").
  std::uint64_t resolveLocation(std::uint32_t SlotIndex) const;

  /// Applies a drained bin-buffer run to the device table with random
  /// slot replacement. No-op for non-covered bins. The caller charges
  /// the update transfer.
  void applyFlush(std::uint32_t Bin, ByteSpan Suffixes,
                  const std::vector<std::uint64_t> &Locations);

  /// Invalidates the slot holding \p Fp, if resident (garbage
  /// collection of a dead chunk). Returns true if a slot was cleared.
  bool invalidate(const Fingerprint &Fp);

  /// Occupied slots across all covered bins.
  std::size_t occupiedSlots() const;

  /// Device memory reserved by this table, in bytes.
  std::uint64_t deviceBytes() const { return DeviceBytes; }

private:
  std::size_t slotBase(std::uint32_t Bin) const {
    return static_cast<std::size_t>(Bin) * SlotsPerBin;
  }

  GpuDevice &Device;
  BinLayout Layout;
  unsigned SuffixBytes;
  std::size_t SlotsPerBin;
  std::uint32_t CoveredBins;
  std::uint64_t DeviceBytes = 0;

  // "Device memory": flat suffix slots + validity, modelled on the
  // host but accounted against the device arena.
  ByteVector DeviceSuffixes;
  std::vector<std::uint8_t> SlotValid;
  std::vector<std::uint16_t> BinFill; ///< occupied slots per bin
  // Host-side metadata mirror (not device memory).
  std::vector<std::uint64_t> HostLocations;
  Random Rng;
};

} // namespace padre

#endif // PADRE_INDEX_GPUBINTABLE_H
