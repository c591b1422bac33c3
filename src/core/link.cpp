#include "colorbars/core/link.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "colorbars/frontend/frontend.hpp"
#include "colorbars/pd/frontend.hpp"
#include "colorbars/runtime/seed.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/rx/streaming.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::core {

rs::CodeParameters derive_link_code(csk::CskOrder order, double symbol_rate_hz,
                                    double frame_rate_hz, double loss_ratio,
                                    double illumination_ratio) {
  // Paper §5: one packet per frame period, sized so the packet plus its
  // header fits exactly into Fs + Ls symbol slots. Unlike the paper's
  // back-of-envelope formula we account for the packet overhead
  // (delimiter + flag + size field), which keeps the probability of a
  // header landing in the gap at exactly the loss ratio l.
  //
  // The slot arithmetic runs in double and is clamped before each int
  // conversion, so no rate can overflow one; fmax/fmin also map a NaN
  // operand to the bound. Where every intermediate fits an int, n and k
  // equal plain integer arithmetic's.
  const auto clamp = [](double v, double lo, double hi) {
    return std::fmin(std::fmax(v, lo), hi);
  };
  const int bits = csk::bits_per_symbol(order);
  const double slots_per_period = symbol_rate_hz / frame_rate_hz;  // Fs + Ls
  const double overhead_slots = static_cast<double>(
      protocol::delimiter_sequence().size() + protocol::data_flag_sequence().size() +
      static_cast<std::size_t>(protocol::size_field_symbols(order)));
  const double payload_slots = std::fmax(std::floor(slots_per_period) - overhead_slots, 8.0);
  const double data_symbols = std::fmax(std::floor(payload_slots * illumination_ratio), 4.0);

  const int n = static_cast<int>(clamp(std::floor(data_symbols * bits / 8.0), 3.0, 255.0));
  // Parity sizing: the gap erases phi * C * Ls data bits per packet, but
  // the receiver *locates* the loss (the size field plus the band count
  // reveal where the gap fell, §7), so RS needs only ~1 parity byte per
  // erased byte, plus 25% margin for unlocated ISI errors. The paper's
  // literal 2t = 2*phi*C*Ls formula assumes blind error decoding and is
  // inconsistent with its own reported goodput; the erasure sizing used
  // here reproduces the Fig. 11 magnitudes (see EXPERIMENTS.md).
  const double lost_symbols = loss_ratio * slots_per_period;  // Ls
  const double parity_bits = 1.25 * illumination_ratio * bits * lost_symbols;
  const int parity = static_cast<int>(clamp(std::ceil(parity_bits / 8.0), 2.0, n - 1.0));
  return {n, n - parity};
}

void LinkConfig::validate() const {
  profile.validate();
  channel.validate();
  pd.validate();
  engine.validate();
  // `!(x op y)` so NaN fails every check.
  if (!(led.peak_radiance > 0.0) || !std::isfinite(led.peak_radiance) ||
      !(led.max_symbol_rate_hz > 0.0) || !std::isfinite(led.max_symbol_rate_hz)) {
    throw std::invalid_argument(
        "LinkConfig: led peak_radiance and max_symbol_rate_hz must be positive and finite");
  }
  if (!(symbol_rate_hz > 0.0) || !(symbol_rate_hz <= led.max_symbol_rate_hz)) {
    throw std::invalid_argument(
        "LinkConfig: symbol_rate_hz must be in (0, led.max_symbol_rate_hz]");
  }
  if (!(illumination_ratio > 0.0) || !(illumination_ratio <= 1.0)) {
    throw std::invalid_argument("LinkConfig: illumination_ratio must be in (0, 1]");
  }
  if (!std::isfinite(calibration_rate_hz)) {
    throw std::invalid_argument(
        "LinkConfig: calibration_rate_hz must be finite (<= 0 means never)");
  }
}

rs::CodeParameters LinkConfig::code() const {
  return derive_link_code(order, symbol_rate_hz, profile.fps,
                          profile.inter_frame_loss_ratio, illumination_ratio);
}

tx::TransmitterConfig LinkConfig::transmitter_config() const {
  tx::TransmitterConfig config;
  config.format.order = order;
  config.format.illumination_ratio = illumination_ratio;
  config.symbol_rate_hz = symbol_rate_hz;
  config.calibration_rate_hz = calibration_rate_hz;
  config.enable_dephasing_pad = enable_dephasing_pad;
  config.led = led;
  const rs::CodeParameters link_code = code();
  config.rs_n = link_code.n;
  config.rs_k = link_code.k;
  return config;
}

rx::ReceiverConfig LinkConfig::receiver_config() const {
  rx::ReceiverConfig config;
  config.format.order = order;
  config.format.illumination_ratio = illumination_ratio;
  config.symbol_rate_hz = symbol_rate_hz;
  config.frame_rate_hz = profile.fps;
  config.matching_space = matching_space;
  config.use_erasure_decoding = use_erasure_decoding;
  config.engine = engine;
  const rs::CodeParameters link_code = code();
  config.rs_n = link_code.n;
  config.rs_k = link_code.k;
  return config;
}

LinkSimulator::LinkSimulator(LinkConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  // Fail at construction, not at the first run_* call deep inside a
  // trial batch (mirrors ExposureSettings::validate).
  config_.validate();
}

namespace {

/// Builds the configured receiver frontend for one capture. Every
/// frontend derives its stochastic sub-streams (optical channel, frame
/// stages, sampler noise) from the single `capture_seed` the simulator
/// drew — the camera path with the exact pre-seam stream indices, so
/// identity-channel runs reproduce the old results byte for byte, and
/// the pd path sharing the optical stream, so both sensors see the same
/// occlusion bursts.
std::unique_ptr<frontend::SlotObservationSource> make_frontend(
    const LinkConfig& config, const led::EmissionTrace& trace, double start_offset_s,
    std::uint64_t capture_seed) {
  if (config.frontend == frontend::FrontendKind::kPhotodiode) {
    pd::PdFrontendConfig pd_config;
    pd_config.pd = config.pd;
    pd_config.channel = config.channel;
    pd_config.symbol_rate_hz = config.symbol_rate_hz;
    pd_config.start_offset_s = start_offset_s;
    return std::make_unique<pd::PdFrontend>(pd_config, trace, capture_seed);
  }
  frontend::CameraFrontendConfig camera_config;
  camera_config.profile = config.profile;
  camera_config.channel = config.channel;
  camera_config.symbol_rate_hz = config.symbol_rate_hz;
  camera_config.extractor = config.receiver_config().extractor;
  camera_config.source.lookahead = config.pipeline_lookahead;
  camera_config.source.start_offset_s = start_offset_s;
  return std::make_unique<frontend::CameraFrontend>(camera_config, trace, capture_seed);
}

}  // namespace

LinkRunResult LinkSimulator::run_payload(std::span<const std::uint8_t> payload) {
  const tx::Transmitter transmitter(config_.transmitter_config());
  const tx::Transmission transmission = transmitter.transmit(payload);

  const std::uint64_t capture_seed = rng_();
  // The receiver's capture starts at an arbitrary phase of the symbol
  // stream (a user raises the phone whenever) — this randomizes the
  // packet/gap alignment per run, exactly as in a field measurement.
  // The pd frontend keeps the same draw (and the same draw *order*, so
  // camera runs stay byte-identical to the pre-seam link): its sampler
  // simply starts mid-stream at the drawn offset.
  const double start_offset =
      rng_.uniform(0.0, config_.profile.frame_period_s());

  // Stream the capture through the configured frontend: observation
  // blocks flow sensor → reduction → receiver with O(lookahead)
  // frames/sample-blocks resident instead of the whole capture. For the
  // camera this is packet-for-packet identical to materializing the
  // capture and running the batch Receiver (rx_streaming_test).
  const std::unique_ptr<frontend::SlotObservationSource> source =
      make_frontend(config_, transmission.trace, start_offset, capture_seed);
  rx::StreamingReceiver receiver(config_.receiver_config());
  frontend::run_frontend(*source, receiver);
  receiver.on_stream_end();

  LinkRunResult result;
  result.report = receiver.take_report();
  result.payload_bytes = payload.size();
  result.air_time_s = transmission.duration_s();

  std::size_t next_truth = 0;
  for (const rx::PacketRecord& record : result.report.packets) {
    result.recovered_bytes +=
        credit_packet(record, transmission.packet_messages, next_truth);
  }
  return result;
}

SerResult LinkSimulator::run_ser(int symbol_count) {
  validate_trial_size(symbol_count, /*duration_s=*/0.0, config_.symbol_rate_hz);
  const tx::TransmitterConfig tx_config = config_.transmitter_config();
  const tx::Transmitter transmitter(tx_config);

  const int order_size = csk::symbol_count(config_.order);
  std::vector<int> symbols(static_cast<std::size_t>(symbol_count));
  for (int& s : symbols) {
    s = static_cast<int>(rng_.below(static_cast<std::uint64_t>(order_size)));
  }
  const tx::Transmission transmission = transmitter.transmit_raw_symbols(symbols);

  const std::uint64_t capture_seed = rng_();
  rx::Receiver receiver(config_.receiver_config());

  // Calibration phase: the paper's receivers run under a steady diet of
  // 5 calibration packets per second and measure SER only once
  // calibrated. A single calibration packet can exceed the gap-free
  // readout window (notably CSK-32 at 1 kHz), so repeat it at varying
  // gap phases until the reference set is complete.
  std::vector<protocol::ChannelSymbol> calibration_slots;
  {
    const std::vector<protocol::ChannelSymbol> packets[] = {
        transmitter.packetizer().build_calibration_packet(),
        transmitter.packetizer().build_reversed_calibration_packet(),
        transmitter.packetizer().build_rotated_calibration_packet(),
    };
    for (int repeat = 0; repeat < 24; ++repeat) {
      const auto& packet = packets[repeat % 3];
      calibration_slots.insert(calibration_slots.end(), packet.begin(), packet.end());
      // Pseudorandom pads: a fixed pad cycle can phase-lock one variant's
      // prefix with the inter-frame gap across every repetition.
      std::uint64_t state = static_cast<std::uint64_t>(repeat) + 0xca1;
      // Pad up to half a frame period, derived from the actual camera
      // frame rate (a hardcoded 30 fps mis-sizes the sweep range for
      // 24/60 fps devices).
      const int pad = static_cast<int>(util::splitmix64_next(state) %
                                       (static_cast<std::uint64_t>(
                                            config_.symbol_rate_hz /
                                            config_.profile.fps / 2) + 1));
      calibration_slots.insert(calibration_slots.end(), static_cast<std::size_t>(pad),
                               protocol::ChannelSymbol::white());
    }
  }

  // Calibration preamble and data ride one concatenated slot stream
  // through a single streamed capture — the camera rolls continuously
  // from "calibrate" into "measure", as on a real device, and only
  // O(lookahead) frames are ever resident.
  std::vector<protocol::ChannelSymbol> combined_slots = calibration_slots;
  combined_slots.insert(combined_slots.end(), transmission.slots.begin(),
                        transmission.slots.end());
  const led::EmissionTrace combined_trace = transmitter.led().emit(
      protocol::drives_of(combined_slots, transmitter.constellation()),
      config_.symbol_rate_hz);

  const std::unique_ptr<frontend::SlotObservationSource> source =
      make_frontend(config_, combined_trace, /*start_offset_s=*/0.0, capture_seed);
  const rx::SlotTimeline timeline = frontend::collect_timeline(*source);
  // Absorb the calibration packets (and the raw transmission's own
  // preamble) before classifying the data slots.
  (void)receiver.parse(timeline);

  SerResult result;
  const long long data_start =
      static_cast<long long>(calibration_slots.size()) +
      static_cast<long long>(transmission.slots.size() - symbols.size());
  result.symbols_sent = static_cast<long long>(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const long long slot = data_start + static_cast<long long>(i);
    const long long offset = slot - timeline.base_slot;
    if (offset < 0 || offset >= static_cast<long long>(timeline.slots.size())) continue;
    const auto& cell = timeline.slots[static_cast<std::size_t>(offset)];
    if (!cell.has_value()) continue;
    ++result.symbols_observed;
    // Contextual classification: equalized engines read the trailing
    // slots of the timeline as FIR context, exactly as the packet parse
    // does.
    const int detected =
        receiver.classify_data(timeline, static_cast<std::size_t>(offset));
    if (detected != symbols[i]) ++result.symbol_errors;
  }
  const eq::DecisionStats& decision_stats = receiver.engine().stats();
  const eq::EqualizerState& equalizer_state = receiver.store().equalizer();
  result.engine_decisions = decision_stats.decisions;
  result.engine_fallback_decisions = decision_stats.fallback_decisions;
  result.engine_retrains = equalizer_state.retrains;
  result.engine_train_fallbacks = equalizer_state.train_fallbacks;
  result.engine_tap_norm = equalizer_state.tap_norm();
  // Guard the empty measurement: 0/0 would make the ratio NaN (and a
  // stale negative with symbols_observed > 0 impossible anyway).
  result.inter_frame_loss_ratio =
      result.symbols_sent > 0
          ? 1.0 - static_cast<double>(result.symbols_observed) /
                      static_cast<double>(result.symbols_sent)
          : 0.0;
  return result;
}

ThroughputResult LinkSimulator::run_throughput(double duration_s) {
  const tx::TransmitterConfig tx_config = config_.transmitter_config();
  const tx::Transmitter transmitter(tx_config);
  const protocol::IlluminationSchedule schedule(config_.illumination_ratio);
  const int order_size = csk::symbol_count(config_.order);

  // Calibration preamble, then schedule-interleaved random data symbols
  // for the requested duration.
  std::vector<protocol::ChannelSymbol> slots = transmitter.packetizer().build_calibration_packet();
  const std::size_t preamble = slots.size();
  const long long total_slots = slots_in(duration_s, config_.symbol_rate_hz);
  std::vector<bool> is_data;
  is_data.reserve(static_cast<std::size_t>(total_slots));
  for (long long slot = 0; slot < total_slots; ++slot) {
    if (schedule.is_white_slot(slot)) {
      slots.push_back(protocol::ChannelSymbol::white());
      is_data.push_back(false);
    } else {
      const int index = static_cast<int>(rng_.below(static_cast<std::uint64_t>(order_size)));
      slots.push_back(protocol::ChannelSymbol::data(index));
      is_data.push_back(true);
    }
  }

  const led::EmissionTrace trace = transmitter.led().emit(
      protocol::drives_of(slots, transmitter.constellation()), config_.symbol_rate_hz);

  const std::uint64_t capture_seed = rng_();
  const std::unique_ptr<frontend::SlotObservationSource> source =
      make_frontend(config_, trace, /*start_offset_s=*/0.0, capture_seed);
  const rx::SlotTimeline timeline = frontend::collect_timeline(*source);

  ThroughputResult result;
  result.bits_per_symbol = csk::bits_per_symbol(config_.order);
  result.air_time_s = static_cast<double>(total_slots) / config_.symbol_rate_hz;
  for (long long i = 0; i < total_slots; ++i) {
    if (!is_data[static_cast<std::size_t>(i)]) continue;
    ++result.data_slots_sent;
    const long long slot = static_cast<long long>(preamble) + i;
    const long long offset = slot - timeline.base_slot;
    if (offset < 0 || offset >= static_cast<long long>(timeline.slots.size())) continue;
    if (timeline.slots[static_cast<std::size_t>(offset)].has_value()) {
      ++result.data_slots_observed;
    }
  }
  return result;
}

LinkRunResult LinkSimulator::run_goodput(double duration_s) {
  return run_payload(draw_burst_payload(config_, duration_s, rng_));
}

LinkConfig trial_config(const LinkConfig& base, int trial) {
  LinkConfig config = base;
  config.seed = runtime::derive_stream_seed(base.seed, static_cast<std::uint64_t>(trial));
  return config;
}

long long slots_in(double duration_s, double symbol_rate_hz) {
  const double slots = std::ceil(duration_s * symbol_rate_hz);
  // `!(x op y)` so NaN fails; an infinite duration fails the bound.
  if (!(duration_s >= 0.0) || !(slots <= std::numeric_limits<int>::max())) {
    throw std::invalid_argument(
        "LinkSimulator: duration_s must be finite and non-negative, with at most "
        "INT_MAX symbol slots");
  }
  return static_cast<long long>(slots);
}

void validate_trial_size(int symbols, double duration_s, double symbol_rate_hz) {
  if (symbols < 0) {
    throw std::invalid_argument("LinkSimulator: the SER symbol count must be >= 0");
  }
  (void)slots_in(duration_s, symbol_rate_hz);
}

std::vector<std::uint8_t> draw_burst_payload(const LinkConfig& link, double duration_s,
                                             util::Xoshiro256& rng) {
  const tx::TransmitterConfig tx_config = link.transmitter_config();
  const protocol::Packetizer packetizer(tx_config.format, csk::Constellation(link.order));
  const int packet_slots = packetizer.data_packet_slots(tx_config.rs_n);
  const long long packet_count =
      std::max<long long>(1, slots_in(duration_s, link.symbol_rate_hz) / packet_slots);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(packet_count) *
                                    static_cast<std::size_t>(tx_config.rs_k));
  for (std::uint8_t& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
  return payload;
}

std::size_t credit_packet(const rx::PacketRecord& record,
                          const std::vector<std::vector<std::uint8_t>>& messages,
                          std::size_t& next_truth) {
  // An OK packet is one RS decoded, not one that was sent: when errors
  // exhaust the parity, RS can "correct" a codeword into bytes no
  // transmitter sent (a probe over CSK32 runs counted 12 such packets in
  // 1,961 OK ones). Matching the transmitted messages is what keeps
  // those miscorrections out of goodput.
  if (record.kind != protocol::PacketKind::kData || !record.ok) return 0;
  for (std::size_t truth = next_truth; truth < messages.size(); ++truth) {
    if (record.payload == messages[truth]) {
      next_truth = truth + 1;
      return record.payload.size();
    }
  }
  return 0;
}

namespace {

/// Runs `trial_count` independent trials in parallel, trial t on a fresh
/// simulator of trial_config(base, t). Results land in trial-index
/// order, so aggregation is deterministic regardless of scheduling.
template <typename Result, typename Trial>
std::vector<Result> run_trials(const LinkConfig& base, int trial_count, Trial trial) {
  std::vector<Result> results(static_cast<std::size_t>(std::max(trial_count, 0)));
  runtime::parallel_for(0, static_cast<std::int64_t>(results.size()), 1,
                        [&](std::int64_t lo, std::int64_t hi) {
                          for (std::int64_t i = lo; i < hi; ++i) {
                            LinkSimulator simulator(trial_config(base, static_cast<int>(i)));
                            results[static_cast<std::size_t>(i)] = trial(simulator);
                          }
                        });
  return results;
}

}  // namespace

SerBatchResult LinkSimulator::run_ser_trials(int trial_count, int symbols_per_trial) const {
  SerBatchResult batch;
  batch.trials = run_trials<SerResult>(config_, trial_count, [&](LinkSimulator& sim) {
    return sim.run_ser(symbols_per_trial);
  });
  batch.ser = stats_of(batch.trials, [](const SerResult& r) { return r.ser(); });
  batch.inter_frame_loss_ratio =
      stats_of(batch.trials, [](const SerResult& r) { return r.inter_frame_loss_ratio; });
  return batch;
}

GoodputBatchResult LinkSimulator::run_goodput_trials(int trial_count,
                                                     double duration_s) const {
  GoodputBatchResult batch;
  batch.trials = run_trials<LinkRunResult>(
      config_, trial_count,
      [&](LinkSimulator& sim) { return sim.run_goodput(duration_s); });
  batch.goodput_bps =
      stats_of(batch.trials, [](const LinkRunResult& r) { return r.goodput_bps(); });
  return batch;
}

}  // namespace colorbars::core
