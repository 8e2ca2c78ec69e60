//===- serve/ByteCodec.h - Little-endian byte codec ------------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounds-checked little-endian codec under the two serve byte formats
/// (the wire protocol, serve/Protocol.cpp, and the binary mapping file,
/// serve/MappingIO.cpp). Explicit byte packing keeps both formats
/// identical across hosts, and doubles travel as their raw IEEE-754 words,
/// so round trips are bit-exact. Each format keeps its own layout and
/// version; this header only packs and unpacks fields. Internal to the
/// serve sources.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_SERVE_BYTECODEC_H
#define PALMED_SERVE_BYTECODEC_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

namespace palmed {
namespace serve {
namespace bytes {

inline void putUint(std::string &Out, uint64_t V, int NumBytes) {
  for (int I = 0; I < NumBytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

inline void putU8(std::string &Out, uint8_t V) { putUint(Out, V, 1); }
inline void putU16(std::string &Out, uint16_t V) { putUint(Out, V, 2); }
inline void putU32(std::string &Out, uint32_t V) { putUint(Out, V, 4); }
inline void putU64(std::string &Out, uint64_t V) { putUint(Out, V, 8); }

inline void putF64(std::string &Out, double V) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

/// A string behind a 16-bit length prefix. Longer strings are truncated
/// rather than written as a record whose prefix disagrees with its body
/// (an undecodable frame or file).
inline void putStr16(std::string &Out, const std::string &S) {
  size_t Len = std::min<size_t>(S.size(), UINT16_MAX);
  putU16(Out, static_cast<uint16_t>(Len));
  Out.append(S, 0, Len);
}

/// A string behind a 32-bit length prefix.
inline void putStr32(std::string &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S);
}

/// Bounds-checked reader over a byte string. Reads past the end latch
/// fail() and return zero or empty values instead of throwing, so a
/// parser can run to completion and report one typed error.
class Reader {
public:
  explicit Reader(const std::string &Bytes, size_t Offset = 0)
      : Data(Bytes), Pos(Offset) {}

  bool fail() const { return Failed; }
  bool atEnd() const { return !Failed && Pos == Data.size(); }
  size_t pos() const { return Pos; }
  size_t remaining() const { return Failed ? 0 : Data.size() - Pos; }

  uint8_t u8() { return static_cast<uint8_t>(uint(1)); }
  uint16_t u16() { return static_cast<uint16_t>(uint(2)); }
  uint32_t u32() { return static_cast<uint32_t>(uint(4)); }
  uint64_t u64() { return uint(8); }

  double f64() {
    uint64_t Bits = uint(8);
    double V = 0.0;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  std::string str16() { return take(u16()); }
  std::string str32() { return take(u32()); }

private:
  std::string take(size_t Len) {
    if (Failed || Data.size() - Pos < Len) {
      Failed = true;
      return {};
    }
    std::string S = Data.substr(Pos, Len);
    Pos += Len;
    return S;
  }

  uint64_t uint(int NumBytes) {
    if (Failed || Data.size() - Pos < static_cast<size_t>(NumBytes)) {
      Failed = true;
      return 0;
    }
    uint64_t V = 0;
    for (int I = 0; I < NumBytes; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(Data[Pos + I]))
           << (8 * I);
    Pos += NumBytes;
    return V;
  }

  const std::string &Data;
  size_t Pos;
  bool Failed = false;
};

} // namespace bytes
} // namespace serve
} // namespace palmed

#endif // PALMED_SERVE_BYTECODEC_H
