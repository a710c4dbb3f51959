//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the byte-level helpers.
///
//===----------------------------------------------------------------------===//

#include "util/Bytes.h"

#include <cstdio>

using namespace padre;

std::string padre::toHex(ByteSpan Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Result;
  Result.reserve(Bytes.size() * 2);
  for (std::uint8_t Byte : Bytes) {
    Result.push_back(Digits[Byte >> 4]);
    Result.push_back(Digits[Byte & 0xF]);
  }
  return Result;
}

std::string padre::formatSize(std::uint64_t Bytes) {
  static const char *Units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double Value = static_cast<double>(Bytes);
  unsigned Unit = 0;
  while (Value >= 1024.0 && Unit + 1 < 5) {
    Value /= 1024.0;
    ++Unit;
  }
  char Buffer[64];
  if (Unit == 0)
    std::snprintf(Buffer, sizeof(Buffer), "%llu B",
                  static_cast<unsigned long long>(Bytes));
  else
    std::snprintf(Buffer, sizeof(Buffer), "%.2f %s", Value, Units[Unit]);
  return Buffer;
}

std::string padre::formatThroughput(double Bytes, double Seconds) {
  if (Seconds <= 0.0)
    return "inf";
  const double MbPerSec = Bytes / Seconds / 1e6;
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.1f MB/s", MbPerSec);
  return Buffer;
}

void padre::appendBytes(ByteVector &Out, ByteSpan Suffix) {
  Out.insert(Out.end(), Suffix.begin(), Suffix.end());
}

void padre::appendLe32(ByteVector &Out, std::uint32_t Value) {
  std::uint8_t Buffer[4];
  storeLe32(Buffer, Value);
  appendBytes(Out, ByteSpan(Buffer, 4));
}

void padre::appendLe64(ByteVector &Out, std::uint64_t Value) {
  std::uint8_t Buffer[8];
  storeLe64(Buffer, Value);
  appendBytes(Out, ByteSpan(Buffer, 8));
}

bool ByteReader::readU8(std::uint8_t &Out) {
  if (remaining() < 1)
    return false;
  Out = Data[Pos];
  Pos += 1;
  return true;
}

bool ByteReader::readLe32(std::uint32_t &Out) {
  if (remaining() < 4)
    return false;
  Out = loadLe32(Data.data() + Pos);
  Pos += 4;
  return true;
}

bool ByteReader::readLe64(std::uint64_t &Out) {
  if (remaining() < 8)
    return false;
  Out = loadLe64(Data.data() + Pos);
  Pos += 8;
  return true;
}

bool ByteReader::readBytes(std::size_t Count, ByteSpan &Out) {
  if (remaining() < Count)
    return false;
  Out = Data.subspan(Pos, Count);
  Pos += Count;
  return true;
}
