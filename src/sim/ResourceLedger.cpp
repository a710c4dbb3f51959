//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the resource ledger.
///
//===----------------------------------------------------------------------===//

#include "sim/ResourceLedger.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

using namespace padre;

const char *padre::resourceName(Resource R) {
  switch (R) {
  case Resource::CpuPool:
    return "cpu";
  case Resource::Gpu:
    return "gpu";
  case Resource::Pcie:
    return "pcie";
  case Resource::Ssd:
    return "ssd";
  case Resource::IndexLock:
    return "lock";
  }
  assert(false && "Unknown resource");
  return "?";
}

void ResourceLedger::reset() {
  for (auto &Busy : BusyNanos)
    Busy.store(0, std::memory_order_relaxed);
  KernelLaunches.store(0, std::memory_order_relaxed);
  BytesToDevice.store(0, std::memory_order_relaxed);
  BytesFromDevice.store(0, std::memory_order_relaxed);
  resetTimeline();
}

namespace {

/// Gaps narrower than the ledger's nanosecond resolution are noise —
/// not worth tracking or splitting on.
constexpr double GapMinUs = 1e-3;

} // namespace

LaneInterval ResourceLedger::scheduleLocked(unsigned LaneId,
                                            double ReadyUs, double DurUs,
                                            bool Backfill) {
  assert(LaneId < Lanes.size() && "Unknown timeline lane");
  TimelineLane &Lane = Lanes[LaneId];
  if (Backfill) {
    // Earliest-fit into an idle gap; the remainder of the gap (head
    // and/or tail) stays available for later backfills.
    auto &Gaps = Lane.GapsUs;
    for (auto It = Gaps.begin(); It != Gaps.end(); ++It) {
      const double Start = std::fmax(It->StartUs, ReadyUs);
      if (Start + DurUs > It->EndUs + GapMinUs)
        continue;
      const LaneInterval Placed{Start, Start + DurUs};
      const LaneInterval Tail{Placed.EndUs, It->EndUs};
      if (Start - It->StartUs > GapMinUs) {
        It->EndUs = Start;
        if (Tail.EndUs - Tail.StartUs > GapMinUs)
          Gaps.insert(It + 1, Tail);
      } else if (Tail.EndUs - Tail.StartUs > GapMinUs) {
        *It = Tail;
      } else {
        Gaps.erase(It);
      }
      Lane.SchedUs += DurUs;
      return Placed;
    }
  }
  double &Free = Lane.FreeUs;
  const double Start = std::fmax(Free, ReadyUs);
  if (Start - Free > GapMinUs)
    Lane.GapsUs.push_back(LaneInterval{Free, Start});
  Free = Start + DurUs;
  Lane.SchedUs += DurUs;
  return LaneInterval{Start, Free};
}

LaneInterval ResourceLedger::scheduleMicros(Resource R, double ReadyUs,
                                            double DurUs, bool Backfill) {
  return scheduleLaneMicros(static_cast<unsigned>(R), ReadyUs, DurUs,
                            Backfill);
}

LaneInterval ResourceLedger::scheduleLaneMicros(unsigned LaneId,
                                                double ReadyUs,
                                                double DurUs,
                                                bool Backfill) {
  assert(std::isfinite(ReadyUs) && ReadyUs >= 0.0 && "Invalid ready time");
  assert(std::isfinite(DurUs) && DurUs >= 0.0 && "Invalid duration");
  std::lock_guard<std::mutex> Lock(TimelineMutex);
  return scheduleLocked(LaneId, ReadyUs, DurUs, Backfill);
}

unsigned ResourceLedger::addTimelineLane(Resource Mirror) {
  std::lock_guard<std::mutex> Lock(TimelineMutex);
  TimelineLane Lane;
  Lane.Mirror = Mirror;
  Lanes.push_back(std::move(Lane));
  return static_cast<unsigned>(Lanes.size() - 1);
}

Resource ResourceLedger::laneMirror(unsigned LaneId) const {
  std::lock_guard<std::mutex> Lock(TimelineMutex);
  assert(LaneId < Lanes.size() && "Unknown timeline lane");
  return Lanes[LaneId].Mirror;
}

double ResourceLedger::laneScheduledMicros(Resource R) const {
  std::lock_guard<std::mutex> Lock(TimelineMutex);
  double Total = 0.0;
  for (const TimelineLane &Lane : Lanes)
    if (Lane.Mirror == R)
      Total += Lane.SchedUs;
  return Total;
}

double ResourceLedger::timelineWallMicros() const {
  std::lock_guard<std::mutex> Lock(TimelineMutex);
  double Max = 0.0;
  for (const TimelineLane &Lane : Lanes)
    Max = std::fmax(Max, Lane.FreeUs);
  return Max;
}

void ResourceLedger::resetTimeline() {
  std::lock_guard<std::mutex> Lock(TimelineMutex);
  if (Lanes.size() < ResourceCount) {
    Lanes.resize(ResourceCount);
    for (unsigned I = 0; I < ResourceCount; ++I)
      Lanes[I].Mirror = static_cast<Resource>(I);
  }
  for (TimelineLane &Lane : Lanes) {
    Lane.FreeUs = Lane.SchedUs = 0.0;
    Lane.GapsUs.clear();
  }
}

void ResourceLedger::chargeMicros(Resource R, double Micros) {
  assert(std::isfinite(Micros) && Micros >= 0.0 && "Invalid charge");
  const auto Nanos = static_cast<std::uint64_t>(Micros * 1e3 + 0.5);
  BusyNanos[static_cast<unsigned>(R)].fetch_add(Nanos,
                                                std::memory_order_relaxed);
}

void ResourceLedger::chargeSliced(Resource R, std::span<const double> ItemUs,
                                  unsigned ModelThreads) {
  const std::size_t Count = ItemUs.size();
  if (Count == 0)
    return;
  const std::size_t Slices =
      std::min<std::size_t>(std::max(1u, ModelThreads), Count);
  const std::size_t PerSlice = (Count + Slices - 1) / Slices;
  for (std::size_t Begin = 0; Begin < Count; Begin += PerSlice) {
    double Micros = 0.0;
    for (std::size_t I = Begin; I < std::min(Count, Begin + PerSlice); ++I)
      Micros += ItemUs[I];
    chargeMicros(R, Micros);
  }
}

double ResourceLedger::busySeconds(Resource R) const {
  return static_cast<double>(
             BusyNanos[static_cast<unsigned>(R)].load(
                 std::memory_order_relaxed)) *
         1e-9;
}

double ResourceLedger::busyMicros(Resource R) const {
  return static_cast<double>(
             BusyNanos[static_cast<unsigned>(R)].load(
                 std::memory_order_relaxed)) *
         1e-3;
}

namespace {

double laneCapacity(Resource R, unsigned CpuThreads,
                    unsigned GpuDevices) {
  if (R == Resource::CpuPool)
    return static_cast<double>(CpuThreads);
  if (R == Resource::Gpu || R == Resource::Pcie)
    return static_cast<double>(GpuDevices);
  return 1.0;
}

} // namespace

double ResourceLedger::makespanSeconds(unsigned CpuThreads, unsigned Mask,
                                       unsigned GpuDevices) const {
  assert(CpuThreads > 0 && "CPU pool needs at least one thread");
  assert(GpuDevices > 0 && "GPU capacity needs at least one device");
  double Max = 0.0;
  for (unsigned I = 0; I < ResourceCount; ++I) {
    if ((Mask & (1u << I)) == 0)
      continue;
    const auto R = static_cast<Resource>(I);
    Max = std::fmax(Max, busySeconds(R) /
                             laneCapacity(R, CpuThreads, GpuDevices));
  }
  return Max;
}

Resource ResourceLedger::bottleneck(unsigned CpuThreads, unsigned Mask,
                                    unsigned GpuDevices) const {
  Resource Best = Resource::CpuPool;
  double Max = -1.0;
  for (unsigned I = 0; I < ResourceCount; ++I) {
    if ((Mask & (1u << I)) == 0)
      continue;
    const auto R = static_cast<Resource>(I);
    const double Normalized =
        busySeconds(R) / laneCapacity(R, CpuThreads, GpuDevices);
    if (Normalized > Max) {
      Max = Normalized;
      Best = R;
    }
  }
  return Best;
}

std::string ResourceLedger::summary(unsigned CpuThreads) const {
  char Buffer[256];
  std::snprintf(
      Buffer, sizeof(Buffer),
      "cpu=%.4fs(/%u) gpu=%.4fs pcie=%.4fs ssd=%.4fs launches=%llu "
      "h2d=%llu d2h=%llu",
      busySeconds(Resource::CpuPool), CpuThreads,
      busySeconds(Resource::Gpu), busySeconds(Resource::Pcie),
      busySeconds(Resource::Ssd),
      static_cast<unsigned long long>(kernelLaunches()),
      static_cast<unsigned long long>(bytesToDevice()),
      static_cast<unsigned long long>(bytesFromDevice()));
  return Buffer;
}
