#pragma once

// The trial service's wire protocol: length-prefixed JSON-lines frames
// plus the serializers that move core::LinkConfig, sweep jobs, and trial
// results between server and worker processes.
//
// Framing: every message is one frame —
//
//   [4-byte big-endian payload length][payload bytes (UTF-8 JSON)]
//
// A frame longer than kMaxFramePayload is rejected before any
// allocation of its size, and a truncated or malformed frame yields an
// error, never UB (svc_wire_test feeds the decoder the protocol-fuzz
// corpus pattern under ASan/UBSan).
//
// Serialization contract: encode(parse(encode(x))) == encode(x) for
// every message, and numeric fields round-trip bit-exactly (doubles via
// 17-digit tokens, 64-bit seeds via raw integer tokens — see json.hpp).
// That exactness is what lets a sweep sharded over N workers aggregate
// byte-identically to the sequential run.
//
// Every serialized struct has one field list in wire.cpp, from which
// both the encoder and the strict decoder derive: an integer field
// accepts only an integer literal that fits its type, a double only a
// finite number, an enum only a known label, a decoded LinkConfig must
// pass LinkConfig::validate, and a sweep job's trial size must pass
// core::validate_trial_size.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "colorbars/adapt/simulator.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/svc/json.hpp"

namespace colorbars::svc {

/// Hard payload cap (16 MiB): no legitimate svc message comes close, and
/// a hostile length prefix must not drive a giant allocation.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// Encodes `payload` into one length-prefixed frame.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed bytes as they arrive, pop complete
/// payloads. Oversized or zero-length prefixes poison the decoder (every
/// later call reports the error) — a stream that lied about a length has
/// no trustworthy resynchronization point.
class FrameDecoder {
 public:
  /// Appends raw bytes from the stream.
  void feed(const char* data, std::size_t size);

  /// Pops the next complete payload, if any. Returns std::nullopt when
  /// more bytes are needed or the decoder is poisoned (check error()).
  [[nodiscard]] std::optional<std::string> next();

  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
  bool poisoned_ = false;
  std::string error_;
};

// --- LinkConfig serialization (every knob) ---

/// Serializes the full link configuration: order, rates, profile,
/// ChannelSpec (distance/ambient/flicker/occlusion/ISI/frame), frontend
/// selection, pd chain, LED hardware, matching space, decision engine,
/// ablation flags, lookahead and seed.
[[nodiscard]] Json link_config_to_json(const core::LinkConfig& config);

/// Parses a LinkConfig. Returns std::nullopt (and sets `error`) on any
/// missing field, wrong type, unknown enum label, out-of-range integer,
/// non-finite number, or config LinkConfig::validate rejects.
[[nodiscard]] std::optional<core::LinkConfig> link_config_from_json(
    const Json& json, std::string* error = nullptr);

// --- sweep vocabulary ---

/// Which LinkSimulator measurement one trial runs.
enum class TrialKind { kSer, kThroughput, kGoodput };

/// One goodput trial's outcome (the svc projection of LinkRunResult —
/// the full ReceiverReport stays in the worker).
struct GoodputTrial {
  long long payload_bytes = 0;
  long long recovered_bytes = 0;
  double air_time_s = 0.0;
  int packets_ok = 0;
  int packets_failed = 0;

  [[nodiscard]] double goodput_bps() const noexcept {
    return air_time_s > 0.0
               ? 8.0 * static_cast<double>(recovered_bytes) / air_time_s
               : 0.0;
  }
  [[nodiscard]] bool operator==(const GoodputTrial&) const = default;
};

/// One trial result on the wire; exactly one member is meaningful,
/// selected by the enclosing job's kind.
struct TrialResult {
  core::SerResult ser{};
  core::ThroughputResult throughput{};
  GoodputTrial goodput{};
};

/// One unit of scheduled work: trials [trial_begin, trial_end) of sweep
/// point `point`. Workers derive each trial's seed as
/// derive_stream_seed(config.seed, trial) — the shard→seed mapping that
/// makes results independent of worker count, job order and retries.
struct JobRequest {
  long long id = 0;
  TrialKind kind = TrialKind::kSer;
  int point = 0;
  int trial_begin = 0;
  int trial_end = 0;
  int symbols_per_trial = 0;  ///< kSer
  double duration_s = 0.0;    ///< kThroughput / kGoodput
  core::LinkConfig config{};
  /// Adaptive jobs (closed-loop policy runs) replace the LinkConfig
  /// grid payload; set when kind-independent `adaptive` is present.
  bool is_adaptive = false;
  adapt::AdaptiveLinkConfig adaptive{};
  adapt::Trajectory trajectory{};
};

struct JobResultMessage {
  long long id = 0;
  int worker = -1;
  /// Which TrialResult member the rows fill (travels with the result so
  /// the parser needs no job-table lookup).
  TrialKind trials_kind = TrialKind::kSer;
  std::vector<TrialResult> trials;
  /// Adaptive jobs return one run result instead of a trial vector.
  bool is_adaptive = false;
  adapt::AdaptiveRunResult adaptive{};
};

// --- message envelopes ---

/// Worker -> server after connecting.
struct HelloMessage {
  int worker = -1;
  int generation = 0;
  long long pid = 0;
};

/// Worker -> server while a job is in flight (sent from a side thread
/// on a fixed cadence; the server's liveness timer keys off any frame).
struct HeartbeatMessage {
  int worker = -1;
  long long job_id = -1;
};

[[nodiscard]] std::string encode_hello(const HelloMessage& hello);
[[nodiscard]] std::string encode_heartbeat(const HeartbeatMessage& heartbeat);
[[nodiscard]] std::string encode_job(const JobRequest& job);
[[nodiscard]] std::string encode_job_result(const JobResultMessage& result);
[[nodiscard]] std::string encode_shutdown();

/// A parsed incoming message (tagged by `type`).
struct Message {
  std::string type;  ///< "hello" | "heartbeat" | "job" | "result" | "shutdown"
  HelloMessage hello{};
  HeartbeatMessage heartbeat{};
  JobRequest job{};
  JobResultMessage result{};
};

/// Parses one frame payload into a typed message. Returns std::nullopt
/// (and sets `error`) on malformed input.
[[nodiscard]] std::optional<Message> parse_message(std::string_view payload,
                                                   std::string* error = nullptr);

// --- adaptive-run serialization (used by encode_job / results) ---

[[nodiscard]] Json adaptive_config_to_json(const adapt::AdaptiveLinkConfig& config);
/// Parses an AdaptiveLinkConfig with the same strict field rules; its
/// boundary check is SensorProfile::validate only.
[[nodiscard]] std::optional<adapt::AdaptiveLinkConfig> adaptive_config_from_json(
    const Json& json, std::string* error = nullptr);
/// Serializes every IntervalRecord scalar (the monitor sample / smoothed
/// quality snapshots stay in the worker — no consumer reads them across
/// the wire).
[[nodiscard]] Json adaptive_result_to_json(const adapt::AdaptiveRunResult& result);

}  // namespace colorbars::svc
