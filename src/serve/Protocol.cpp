//===- serve/Protocol.cpp - Length-prefixed serving protocol --------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "serve/ByteCodec.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <sys/socket.h>
#include <unistd.h>

using namespace palmed;
using namespace palmed::serve;
using namespace palmed::serve::bytes;

namespace {

bool hasType(const std::string &Payload, MsgType T) {
  return !Payload.empty() &&
         static_cast<uint8_t>(Payload[0]) == static_cast<uint8_t>(T);
}

} // namespace

std::optional<MsgType> palmed::serve::peekType(const std::string &Payload) {
  if (Payload.empty())
    return std::nullopt;
  uint8_t T = static_cast<uint8_t>(Payload[0]);
  if (T < static_cast<uint8_t>(MsgType::QueryRequest) ||
      T > static_cast<uint8_t>(MsgType::ErrorResponse))
    return std::nullopt;
  return static_cast<MsgType>(T);
}

std::string palmed::serve::encodeQueryRequest(const QueryRequest &Msg) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(MsgType::QueryRequest));
  putStr16(Out, Msg.Machine);
  putU32(Out, static_cast<uint32_t>(Msg.Kernels.size()));
  for (const std::string &K : Msg.Kernels)
    putStr32(Out, K);
  return Out;
}

std::optional<QueryRequest>
palmed::serve::decodeQueryRequest(const std::string &Payload) {
  if (!hasType(Payload, MsgType::QueryRequest))
    return std::nullopt;
  Reader R(Payload, 1);
  QueryRequest Msg;
  Msg.Machine = R.str16();
  uint32_t N = R.u32();
  // The count is untrusted: a 20-byte frame may declare 2^32-1 kernels.
  // Every kernel record needs at least its 4-byte length prefix, so cap
  // the reservation by what the body could possibly hold — the loop below
  // then fails on the truncated read instead of reserve() forcing a
  // multi-gigabyte allocation first.
  Msg.Kernels.reserve(std::min<size_t>(R.fail() ? 0 : N, R.remaining() / 4));
  for (uint32_t I = 0; I < N && !R.fail(); ++I)
    Msg.Kernels.push_back(R.str32());
  if (R.fail() || !R.atEnd())
    return std::nullopt;
  return Msg;
}

void palmed::serve::appendKernelAnswer(std::string &Out,
                                       const KernelAnswer &A) {
  putU8(Out, static_cast<uint8_t>(A.S));
  putF64(Out, A.Ipc);
  putU16(Out, static_cast<uint16_t>(A.Bottlenecks.size()));
  for (const std::string &B : A.Bottlenecks)
    putStr16(Out, B);
}

void palmed::serve::appendQueryResponseHeader(std::string &Out,
                                              uint32_t NumAnswers) {
  putU8(Out, static_cast<uint8_t>(MsgType::QueryResponse));
  putU32(Out, NumAnswers);
}

std::string palmed::serve::encodeQueryResponse(const QueryResponse &Msg) {
  std::string Out;
  appendQueryResponseHeader(Out, static_cast<uint32_t>(Msg.Answers.size()));
  for (const KernelAnswer &A : Msg.Answers)
    appendKernelAnswer(Out, A);
  return Out;
}

std::optional<QueryResponse>
palmed::serve::decodeQueryResponse(const std::string &Payload) {
  if (!hasType(Payload, MsgType::QueryResponse))
    return std::nullopt;
  Reader R(Payload, 1);
  QueryResponse Msg;
  uint32_t N = R.u32();
  // Untrusted count (see decodeQueryRequest): an answer record is at
  // least 11 bytes (status + f64 + bottleneck count).
  Msg.Answers.reserve(std::min<size_t>(R.fail() ? 0 : N, R.remaining() / 11));
  for (uint32_t I = 0; I < N && !R.fail(); ++I) {
    KernelAnswer A;
    uint8_t S = R.u8();
    if (S > static_cast<uint8_t>(KernelAnswer::Status::Unsupported))
      return std::nullopt;
    A.S = static_cast<KernelAnswer::Status>(S);
    A.Ipc = R.f64();
    uint16_t NumBottlenecks = R.u16();
    A.Bottlenecks.reserve(R.fail() ? 0 : NumBottlenecks);
    for (uint16_t B = 0; B < NumBottlenecks && !R.fail(); ++B)
      A.Bottlenecks.push_back(R.str16());
    Msg.Answers.push_back(std::move(A));
  }
  if (R.fail() || !R.atEnd())
    return std::nullopt;
  return Msg;
}

std::string palmed::serve::encodeStatsRequest() {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(MsgType::StatsRequest));
  return Out;
}

std::string palmed::serve::encodeStatsResponse(const StatsResponse &Msg) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(MsgType::StatsResponse));
  putU32(Out, static_cast<uint32_t>(Msg.Counters.size()));
  for (const auto &[Key, Value] : Msg.Counters) {
    putStr16(Out, Key);
    putF64(Out, Value);
  }
  return Out;
}

std::optional<StatsResponse>
palmed::serve::decodeStatsResponse(const std::string &Payload) {
  if (!hasType(Payload, MsgType::StatsResponse))
    return std::nullopt;
  Reader R(Payload, 1);
  StatsResponse Msg;
  uint32_t N = R.u32();
  for (uint32_t I = 0; I < N && !R.fail(); ++I) {
    std::string Key = R.str16();
    double Value = R.f64();
    Msg.Counters.emplace_back(std::move(Key), Value);
  }
  if (R.fail() || !R.atEnd())
    return std::nullopt;
  return Msg;
}

std::string palmed::serve::encodeListRequest() {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(MsgType::ListRequest));
  return Out;
}

std::string palmed::serve::encodeListResponse(const ListResponse &Msg) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(MsgType::ListResponse));
  putU16(Out, static_cast<uint16_t>(Msg.Machines.size()));
  for (const MachineInfo &M : Msg.Machines) {
    putStr16(Out, M.Name);
    putU64(Out, M.Digest);
    putU32(Out, M.NumResources);
    putU32(Out, M.NumMapped);
  }
  return Out;
}

std::optional<ListResponse>
palmed::serve::decodeListResponse(const std::string &Payload) {
  if (!hasType(Payload, MsgType::ListResponse))
    return std::nullopt;
  Reader R(Payload, 1);
  ListResponse Msg;
  uint16_t N = R.u16();
  for (uint16_t I = 0; I < N && !R.fail(); ++I) {
    MachineInfo M;
    M.Name = R.str16();
    M.Digest = R.u64();
    M.NumResources = R.u32();
    M.NumMapped = R.u32();
    Msg.Machines.push_back(std::move(M));
  }
  if (R.fail() || !R.atEnd())
    return std::nullopt;
  return Msg;
}

std::string palmed::serve::encodeErrorResponse(const ErrorResponse &Msg) {
  std::string Out;
  putU8(Out, static_cast<uint8_t>(MsgType::ErrorResponse));
  putStr16(Out, Msg.Message);
  return Out;
}

std::optional<ErrorResponse>
palmed::serve::decodeErrorResponse(const std::string &Payload) {
  if (!hasType(Payload, MsgType::ErrorResponse))
    return std::nullopt;
  Reader R(Payload, 1);
  ErrorResponse Msg;
  Msg.Message = R.str16();
  if (R.fail() || !R.atEnd())
    return std::nullopt;
  return Msg;
}

namespace {

bool writeAll(int Fd, const char *Data, size_t Size) {
  while (Size > 0) {
    // MSG_NOSIGNAL: a peer that closed its socket must surface as EPIPE,
    // not deliver SIGPIPE (whose default disposition would kill the
    // process). Frames only ever travel over sockets, so send() is valid.
    ssize_t N = ::send(Fd, Data, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool readAll(int Fd, char *Data, size_t Size) {
  while (Size > 0) {
    ssize_t N = ::read(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0) // EOF mid-frame (or before one started).
      return false;
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

} // namespace

bool palmed::serve::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  char Prefix[4];
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Prefix[I] = static_cast<char>((Len >> (8 * I)) & 0xff);
  return writeAll(Fd, Prefix, sizeof(Prefix)) &&
         writeAll(Fd, Payload.data(), Payload.size());
}

bool palmed::serve::readFrame(int Fd, std::string &Payload) {
  char Prefix[4];
  if (!readAll(Fd, Prefix, sizeof(Prefix)))
    return false;
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len |= static_cast<uint32_t>(static_cast<unsigned char>(Prefix[I]))
           << (8 * I);
  if (Len > MaxFrameBytes)
    return false;
  Payload.resize(Len);
  return Len == 0 || readAll(Fd, Payload.data(), Len);
}
