//===- fuzz/fuzz_protocol.cpp - Fuzz the server-side request dispatch -----===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
//
// Feeds arbitrary frame payloads through Server::dispatchPayload — the
// exact code path a connection handler runs on bytes read off the socket
// (peekType, the per-message decoders, batch evaluation against an
// in-memory fig1 mapping, response encoding).
//
// Invariants checked beyond "no crash / no UB": every response the server
// emits must itself be a decodable response-type payload (the client-side
// decoders accept it), so hostile requests can never make the server
// produce an unparseable or request-typed frame; and every Ok answer
// carries a finite IPC, so no kernel text can smuggle a non-finite value
// into a prediction.
//
//===----------------------------------------------------------------------===//

#include "core/DualConstruction.h"
#include "machine/StandardMachines.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

using namespace palmed;
using namespace palmed::serve;

namespace {

std::unique_ptr<Server> makeServer() {
  ServerConfig C;
  C.SocketPath = "/unused-never-bound";
  C.NumThreads = 1;
  C.MaxBatchKernels = 1u << 12; // Keep a single fuzz iteration cheap.
  auto S = std::make_unique<Server>(std::move(C));
  MachineModel M = makeFig1Machine();
  ResourceMapping Mapping = buildDualMapping(M);
  S->addMachine("fig1", std::move(M), std::move(Mapping));
  return S;
}

Server &server() {
  // The prediction cache never evicts, and fuzzed kernel texts are all
  // distinct — rebuild the server periodically so a long fuzz run does
  // not mistake cache growth for a leak.
  static std::unique_ptr<Server> S = makeServer();
  static uint64_t Calls = 0;
  if (++Calls % 8192 == 0)
    S = makeServer();
  return *S;
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  if (Size > (1u << 20)) // readFrame caps frames far higher; parse cost
    return 0;            // is what bounds a fuzz iteration.
  std::string Payload(reinterpret_cast<const char *>(Data), Size);
  Server::ConnectionState Conn;
  std::string Resp = server().dispatchPayload(Payload, Conn);

  auto Type = peekType(Resp);
  if (!Type)
    __builtin_trap();
  switch (*Type) {
  case MsgType::QueryResponse: {
    auto Decoded = decodeQueryResponse(Resp);
    if (!Decoded)
      __builtin_trap();
    for (const KernelAnswer &A : Decoded->Answers)
      if (A.S == KernelAnswer::Status::Ok && !std::isfinite(A.Ipc))
        __builtin_trap();
    break;
  }
  case MsgType::StatsResponse:
    if (!decodeStatsResponse(Resp))
      __builtin_trap();
    break;
  case MsgType::ListResponse:
    if (!decodeListResponse(Resp))
      __builtin_trap();
    break;
  case MsgType::ErrorResponse:
    if (!decodeErrorResponse(Resp))
      __builtin_trap();
    break;
  default: // Request-typed or unknown responses are server bugs.
    __builtin_trap();
  }
  return 0;
}
