// Length-prefixed binary wire protocol spoken by `clado serve` / `clado
// query` / `loadgen` over a Unix-domain or TCP socket.
//
// Framing: every message is a little-endian u32 payload length followed by
// that many payload bytes. Payloads open with a magic ("CLSV") and a
// version word so a client talking to the wrong socket — or an old client
// talking to a new daemon — fails loudly instead of misinterpreting bytes.
//
// Version 2 (fleet serving) extends every request with a deadline class
// and a model name (routing key into the daemon's Fleet; empty = the only
// model when exactly one is loaded), and adds two control frames: kSwap
// (hot-swap the named engine: the daemon re-freezes from its master
// weights at the carried bit-widths and atomically replaces the model's
// Server) and kStats (text dump of the fleet's per-model state).
//
// Request payload:  magic u32 | version u32 | type u32 | class u32 |
//                   deadline_us i64 | model_len u32 | model bytes |
//                   kInfer: ndim u32 | dims i64[ndim] | data f32[prod]
//                   kSwap:  nbits u32 | bits i64[nbits]   (empty = fp32)
//                   others: nothing
// Response payload: magic u32 | version u32 | status u32 | predicted i64 |
//                   queue_us i64 | total_us i64 | nlogits u32 |
//                   logits f32[nlogits] | error_len u32 | error bytes |
//                   stats_len u32 | stats bytes
//
// encode_*/decode_* are pure byte-vector transforms (no I/O, little-endian
// regardless of host order) so they are unit-testable without a socket;
// socket.h owns the file descriptors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <span>

#include "clado/serve/serve.h"
#include "clado/tensor/tensor.h"

namespace clado::serve {

inline constexpr std::uint32_t kWireMagic = 0x434C5356;  // "CLSV"
inline constexpr std::uint32_t kWireVersion = 2;
/// Upper bound on a decoded frame; a corrupt length prefix fails here
/// instead of provoking a multi-gigabyte allocation.
inline constexpr std::uint32_t kWireMaxFrameBytes = 64u << 20;
/// Model names are routing keys, not payloads.
inline constexpr std::uint32_t kWireMaxModelNameBytes = 256;

enum class MsgType : std::uint32_t {
  kInfer = 1,     ///< run one sample through the named engine
  kPing = 2,      ///< liveness probe; daemon answers kOk with no logits
  kShutdown = 3,  ///< daemon drains its fleet and exits the accept loop
  kSwap = 4,      ///< hot-swap the named engine to the carried bit-widths
  kStats = 5,     ///< fleet stats snapshot in WireResponse::stats
};
inline constexpr std::uint32_t kNumMsgTypes = 5;

struct WireRequest {
  MsgType type = MsgType::kInfer;
  DeadlineClass klass = DeadlineClass::kInteractive;
  std::int64_t deadline_us = 0;  ///< queueing budget relative to admission; 0 = none
  std::string model;             ///< fleet routing key; empty = sole loaded model
  Tensor input;                  ///< kInfer only
  std::vector<int> swap_bits;    ///< kSwap only; empty = fp32 engine
};

struct WireResponse {
  Status status = Status::kEngineError;
  std::int64_t predicted = -1;
  std::int64_t queue_us = 0;
  std::int64_t total_us = 0;
  std::vector<float> logits;
  std::string error;
  std::string stats;  ///< kStats answers; also carries swap acknowledgements
};

std::vector<std::uint8_t> encode_request(const WireRequest& req);
std::vector<std::uint8_t> encode_response(const WireResponse& resp);

/// Decoders validate magic, version, declared lengths, and tensor shape
/// arithmetic; any mismatch throws std::runtime_error describing the
/// offending field (a version-1 peer gets an explicit "speaks wire version
/// 1" error, not a field-soup parse failure). A throwing decode consumes
/// nothing and never reads past the payload span.
WireRequest decode_request(std::span<const std::uint8_t> payload);
WireResponse decode_response(std::span<const std::uint8_t> payload);

}  // namespace clado::serve
