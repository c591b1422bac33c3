#pragma once

// End-to-end link simulation: transmitter -> tri-LED -> rolling-shutter
// camera -> receiver, with the metrics the paper evaluates in §8
// (symbol error rate, throughput, goodput, inter-frame loss ratio).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/channel/channel.hpp"
#include "colorbars/frontend/frontend.hpp"
#include "colorbars/pd/pd.hpp"
#include "colorbars/rx/receiver.hpp"
#include "colorbars/tx/transmitter.hpp"

// Trial grids run through svc::run_sweep. The trial recipe it shares
// with the batch APIs (run_ser_trials, run_goodput_trials) lives here:
// trial_config derives each trial's seed from its index, and stats_of
// folds the trial-ordered results, so every path is byte-identical at
// every thread and worker count (see DESIGN.md, "runtime subsystem").

namespace colorbars::core {

/// Full link configuration.
struct LinkConfig {
  csk::CskOrder order = csk::CskOrder::kCsk8;
  double symbol_rate_hz = 2000.0;
  /// phi: fraction of payload slots carrying data. The paper derives the
  /// flicker-free minimum white fraction from Fig. 3b; 0.8 matches its
  /// §5 example (20% illumination symbols).
  double illumination_ratio = 0.8;
  camera::SensorProfile profile = camera::nexus5_profile();
  /// The optical channel between LED and sensor (distance, ambient,
  /// occlusion, frame-domain impairments). The default is the identity
  /// close-range channel — byte-identical to the pre-channel link.
  /// Validated when a simulator run constructs the channel; stochastic
  /// stage streams derive from each run's camera seed, so results stay
  /// byte-identical at every thread count.
  channel::ChannelSpec channel{};
  /// Which sensor decodes the capture: the rolling-shutter camera (the
  /// paper's receiver, byte-identical to the pre-seam link) or the
  /// photodiode array (no frame raster, no rolling-shutter symbol-rate
  /// ceiling). Every run_* entry point routes through this selection.
  frontend::FrontendKind frontend = frontend::FrontendKind::kCamera;
  /// Photodiode frontend tuning (sampling chain, AGC, clock recovery);
  /// consulted only when frontend == kPhotodiode. `profile` still sets
  /// the receiver's holdback cadence and the RS code's loss ratio, so
  /// one LinkConfig decodes identically-coded transmissions on either
  /// frontend.
  pd::PdConfig pd{};
  /// Transmitter LED hardware. Raising max_symbol_rate_hz past the
  /// BeagleBone-class default lets rate sweeps drive the pd frontend
  /// beyond the camera's ceiling (bench_extension_solar).
  led::TriLedConfig led{};
  double calibration_rate_hz = 5.0;
  /// Metric the receiver matches observations to references in
  /// (ablation knob; see rx::MatchingSpace).
  rx::MatchingSpace matching_space = rx::MatchingSpace::kCielabAB;
  /// Symbol-decision engine the receiver classifies data slots with.
  /// The default nearest-reference engine reproduces the pre-seam link
  /// byte-for-byte; the equalized engines invert rolling-shutter /
  /// delay-spread ISI and unlock the CSK64 extension rungs.
  eq::EngineConfig engine{};
  /// Ablation knobs (see TransmitterConfig / ReceiverConfig).
  bool enable_dephasing_pad = true;
  bool use_erasure_decoding = true;
  /// Frames the streaming capture pipeline prefetches per refill — the
  /// peak number of frames resident during a run (pipeline::SourceConfig
  /// lookahead). Purely a memory/parallelism knob: results are
  /// byte-identical at every value.
  int pipeline_lookahead = 8;
  std::uint64_t seed = 0xc01055eedULL;

  /// Throws std::invalid_argument unless a simulator can run this
  /// config: the profile, channel, pd and engine validators, a finite
  /// positive LED radiance and rate limit, a symbol rate in
  /// (0, led.max_symbol_rate_hz], an illumination ratio in (0, 1] and a
  /// finite calibration rate (<= 0, or too small to fire, means never).
  /// LinkSimulator's constructor, svc::make_jobs and the svc wire
  /// decoder all run it, so every path rejects the same configs.
  void validate() const;

  /// RS code for this link, derived from the profile's loss ratio per
  /// the paper's §5 formulas (derive_link_code).
  [[nodiscard]] rs::CodeParameters code() const;

  /// Builds matching transmitter / receiver configurations, deriving the
  /// RS code from the profile's loss ratio per the paper's §5 formulas.
  [[nodiscard]] tx::TransmitterConfig transmitter_config() const;
  [[nodiscard]] rx::ReceiverConfig receiver_config() const;
};

/// Result of one end-to-end payload transfer.
struct LinkRunResult {
  rx::ReceiverReport report;
  /// Bytes the application handed to the transmitter.
  std::size_t payload_bytes = 0;
  /// Bytes correctly recovered (prefix-matched against ground truth,
  /// packet by packet).
  std::size_t recovered_bytes = 0;
  /// Wall-clock duration of the transmission, seconds.
  double air_time_s = 0.0;

  /// Application goodput in bits per second.
  [[nodiscard]] double goodput_bps() const noexcept {
    return air_time_s > 0.0 ? 8.0 * static_cast<double>(recovered_bytes) / air_time_s : 0.0;
  }
};

/// Result of a raw-symbol SER measurement.
struct SerResult {
  long long symbols_sent = 0;
  long long symbols_observed = 0;
  long long symbol_errors = 0;
  double inter_frame_loss_ratio = 0.0;  ///< measured 1 - observed/sent

  // Decision-engine diagnostics from the measurement's receiver (see
  // eq::DecisionStats / eq::EqualizerState): how many classifications
  // fell back to the plain scan for lack of FIR context, and whether
  // calibration produced usable taps.
  long long engine_decisions = 0;
  long long engine_fallback_decisions = 0;
  long long engine_retrains = 0;
  long long engine_train_fallbacks = 0;
  double engine_tap_norm = 0.0;

  [[nodiscard]] double ser() const noexcept {
    return symbols_observed > 0
               ? static_cast<double>(symbol_errors) / static_cast<double>(symbols_observed)
               : 0.0;
  }
};

/// Result of a raw-throughput measurement (paper Fig. 10: data symbols
/// observed per second times bits per symbol, no error correction).
struct ThroughputResult {
  long long data_slots_sent = 0;
  long long data_slots_observed = 0;
  double air_time_s = 0.0;
  int bits_per_symbol = 0;

  [[nodiscard]] double throughput_bps() const noexcept {
    return air_time_s > 0.0 ? static_cast<double>(data_slots_observed * bits_per_symbol) /
                                  air_time_s
                            : 0.0;
  }
};

/// Mean / sample standard deviation of one metric over a trial batch.
struct BatchStats {
  int trials = 0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// Folds metric(value) over `values`: the mean as the in-order sum over
/// n, then the n - 1 sample standard deviation. The batch APIs below and
/// svc::aggregate_point both aggregate through it, so their statistics
/// agree to the bit.
template <typename T, typename Metric>
[[nodiscard]] BatchStats stats_of(const std::vector<T>& values, Metric metric) {
  BatchStats stats;
  stats.trials = static_cast<int>(values.size());
  if (values.empty()) return stats;
  double sum = 0.0;
  for (const T& value : values) sum += metric(value);
  stats.mean = sum / static_cast<double>(values.size());
  if (values.size() < 2) return stats;
  double sum_sq = 0.0;
  for (const T& value : values) {
    const double d = metric(value) - stats.mean;
    sum_sq += d * d;
  }
  stats.stddev = std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
  return stats;
}

/// Aggregate of independent SER trials (Fig. 9 error bars).
struct SerBatchResult {
  std::vector<SerResult> trials;
  BatchStats ser;
  BatchStats inter_frame_loss_ratio;
};

/// Aggregate of independent goodput trials (Fig. 11).
struct GoodputBatchResult {
  std::vector<LinkRunResult> trials;
  BatchStats goodput_bps;
};

/// Derives the RS(n, k) code for a link so that one whole packet
/// (delimiter + flag + size field + white-interleaved payload) fits into
/// one frame-plus-gap period, with parity sized per the paper's §5 rule
/// (2t = 2 * phi * C * Ls bits).
[[nodiscard]] rs::CodeParameters derive_link_code(csk::CskOrder order,
                                                  double symbol_rate_hz,
                                                  double frame_rate_hz, double loss_ratio,
                                                  double illumination_ratio);

/// The config of trial `trial` of a batch over `base`: `base` with the
/// seed derive_stream_seed(base.seed, trial). The batch APIs and the svc
/// job executor run trial t on a fresh LinkSimulator of this config, so
/// a trial's result depends only on (base, t), never on the thread,
/// worker or shard that ran it.
[[nodiscard]] LinkConfig trial_config(const LinkConfig& base, int trial);

/// Symbol slots in `duration_s` seconds at `symbol_rate_hz`, rounded up.
/// Throws std::invalid_argument unless `duration_s` is finite and
/// non-negative and the count fits an int. Every duration-sized run
/// (run_throughput, each goodput burst) is sized here.
[[nodiscard]] long long slots_in(double duration_s, double symbol_rate_hz);

/// Throws std::invalid_argument unless run_ser(symbols) and a
/// `duration_s` run at `symbol_rate_hz` are trial sizes the simulator
/// accepts. svc::make_jobs and the svc job decoder run it, so a bad size
/// fails before any trial runs.
void validate_trial_size(int symbols, double duration_s, double symbol_rate_hz);

/// The payload of one goodput burst on `link`: as many whole data
/// packets as fit in `duration_s` (at least one), k random bytes each,
/// drawn from `rng` in order. LinkSimulator::run_goodput, each scene
/// luminaire and each adaptive control interval draw their payload here.
/// Throws as slots_in does.
[[nodiscard]] std::vector<std::uint8_t> draw_burst_payload(const LinkConfig& link,
                                                           double duration_s,
                                                           util::Xoshiro256& rng);

/// The ground-truth credit of one decoded packet: its payload size when
/// it is an OK data packet equal to one of `messages` at or after
/// `next_truth` (which then moves past that message), else 0. Scanning a
/// report's packets in order credits each sent message at most once.
[[nodiscard]] std::size_t credit_packet(const rx::PacketRecord& record,
                                        const std::vector<std::vector<std::uint8_t>>& messages,
                                        std::size_t& next_truth);

/// Orchestrates one transmitter/camera/receiver trio.
class LinkSimulator {
 public:
  explicit LinkSimulator(LinkConfig config);

  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

  /// Transfers `payload` end to end and reports per-packet recovery.
  [[nodiscard]] LinkRunResult run_payload(std::span<const std::uint8_t> payload);

  /// Measures the raw symbol error rate over `symbol_count` random data
  /// symbols (after a calibration preamble), as in Fig. 9. Only observed
  /// slots count — lost slots feed the loss ratio, not the SER. The
  /// calibration preamble and the data symbols ride one concatenated
  /// emission trace through a single streamed capture, as on a real
  /// device (the camera never stops between "calibrate" and "measure").
  /// Throws std::invalid_argument on a negative count.
  [[nodiscard]] SerResult run_ser(int symbol_count);

  /// Measures raw throughput over `duration_s` of random data symbols
  /// with the illumination schedule applied (Fig. 10): observed data
  /// slots per second times bits per symbol. Throws as slots_in does.
  [[nodiscard]] ThroughputResult run_throughput(double duration_s);

  /// Measures goodput (Fig. 11): RS-recovered payload bits per second
  /// over a stream of `duration_s` seconds of back-to-back data packets.
  /// Throws as slots_in does.
  [[nodiscard]] LinkRunResult run_goodput(double duration_s);

  // Batch trial APIs: trial t runs a fresh simulator of
  // trial_config(config, t); trials execute in parallel on the shared
  // runtime pool and aggregate with stats_of in trial order. Grids use
  // svc::run_sweep, which runs the same recipe.

  /// `trial_count` independent SER measurements of `symbols_per_trial`
  /// symbols each.
  [[nodiscard]] SerBatchResult run_ser_trials(int trial_count, int symbols_per_trial) const;

  /// `trial_count` independent goodput measurements of `duration_s`
  /// seconds each.
  [[nodiscard]] GoodputBatchResult run_goodput_trials(int trial_count,
                                                      double duration_s) const;

 private:
  LinkConfig config_;
  util::Xoshiro256 rng_;
};

}  // namespace colorbars::core
