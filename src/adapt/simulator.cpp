#include "colorbars/adapt/simulator.hpp"

#include <cmath>
#include <stdexcept>

#include "colorbars/frontend/frontend.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/runtime/seed.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::adapt {

double Trajectory::total_duration_s() const noexcept {
  double total = 0.0;
  for (const TrajectorySegment& segment : segments) total += segment.duration_s;
  return total;
}

int Trajectory::segment_index_at(double t) const noexcept {
  double start = 0.0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    start += segments[i].duration_s;
    if (t < start) return static_cast<int>(i);
  }
  return static_cast<int>(segments.size()) - 1;
}

void Trajectory::validate() const {
  if (segments.empty()) {
    throw std::invalid_argument("Trajectory: must not be empty");
  }
  for (const TrajectorySegment& segment : segments) {
    if (!(segment.duration_s > 0.0)) {
      throw std::invalid_argument("Trajectory: segment durations must be > 0");
    }
    segment.channel.validate();
  }
  // A run transmits control intervals until the whole trajectory has
  // elapsed, so the total is bounded as a goodput trial's duration is:
  // its slots at the tri-LED's rate limit, which caps every rung
  // (validate_ladder), must pass core::slots_in.
  try {
    (void)core::slots_in(total_duration_s(), led::TriLedConfig{}.max_symbol_rate_hz);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "Trajectory: the total duration must be finite, with at most INT_MAX symbol "
        "slots at the tri-LED's rate limit");
  }
}

Trajectory walkaway_trajectory() {
  // Against an 8 cm reference panel (the paper's §10 LED-array
  // extension: a larger emitter keeps filling the field of view), the
  // measured rung cliffs sit at: 5 cm everything decodes, 13 cm the
  // 4 kHz rung is past its ISI cliff while 2 kHz is still strong,
  // 16 cm only the 1 kHz rungs survive, and 1 m is past any rung's
  // auto-exposure headroom — dead air where an adaptive link parks at
  // the bottom rung and a fixed one just burns photons.
  Trajectory trajectory;
  auto leg = [&](const char* name, double duration_s, double distance_m) {
    TrajectorySegment segment;
    segment.name = name;
    segment.duration_s = duration_s;
    segment.channel.distance.distance_m = distance_m;
    segment.channel.distance.reference_distance_m = 0.08;
    trajectory.segments.push_back(std::move(segment));
  };
  leg("in hand, 5cm", 3.0, 0.05);
  leg("step back, 13cm", 3.0, 0.13);
  leg("arm's length, 16cm", 2.0, 0.16);
  leg("across the room, 1m", 2.0, 1.0);
  return trajectory;
}

core::LinkConfig AdaptiveLinkConfig::link_at(const Rung& rung,
                                             const channel::ChannelSpec& spec) const {
  core::LinkConfig link;
  link.order = rung.order;
  link.symbol_rate_hz = rung.symbol_rate_hz;
  link.illumination_ratio = illumination_ratio;
  link.profile = profile;
  link.channel = spec;
  link.calibration_rate_hz = calibration_rate_hz;
  link.matching_space = matching_space;
  link.pipeline_lookahead = pipeline_lookahead;
  link.seed = seed;
  return link;
}

void AdaptiveLinkConfig::validate() const {
  validate_ladder(ladder, led::TriLedConfig{}.max_symbol_rate_hz);
  const int initial = resolved_initial_rung();
  if (initial < 0 || initial >= static_cast<int>(ladder.size())) {
    throw std::invalid_argument("AdaptiveLinkConfig: initial rung outside ladder");
  }
  if (!(control_interval_s > 0.0)) {
    throw std::invalid_argument("AdaptiveLinkConfig: control interval must be > 0");
  }
  // Every interval runs link_at(rung, the segment's channel), whose
  // payload burst is sized by core::slots_in; Trajectory::validate
  // checks the channels.
  for (const Rung& rung : ladder) {
    link_at(rung, channel::ChannelSpec{}).validate();
    (void)core::slots_in(control_interval_s, rung.symbol_rate_hz);
  }
  if (!(recalibration_cost_s >= 0.0) || !std::isfinite(recalibration_cost_s)) {
    throw std::invalid_argument(
        "AdaptiveLinkConfig: recalibration cost must be finite and non-negative");
  }
  monitor.validate();
  controller.validate();
  feedback.validate();
}

namespace {

// Run-level sub-streams of the adaptive simulator's seed.
constexpr std::uint64_t kCameraStream = 0xada0001;
constexpr std::uint64_t kPayloadStream = 0xada0002;
constexpr std::uint64_t kFeedbackStream = 0xada0003;

/// One interval's ground truth, waiting for its packets to decode (the
/// holdback means an interval's tail packets decode one interval late,
/// and an epoch's last packets only at the epoch flush).
struct PendingInterval {
  std::size_t interval_index = 0;  ///< into AdaptiveRunResult::intervals
  int epoch = 0;
  long long first_slot = 0;
  long long last_slot = 0;
  std::vector<std::vector<std::uint8_t>> messages;
  std::size_t next_truth = 0;
};

}  // namespace

AdaptiveLinkSimulator::AdaptiveLinkSimulator(AdaptiveLinkConfig config,
                                             Trajectory trajectory)
    : config_(std::move(config)), trajectory_(std::move(trajectory)) {
  config_.validate();
  trajectory_.validate();
}

AdaptiveRunResult AdaptiveLinkSimulator::run() {
  const std::vector<Rung>& ladder = config_.ladder;
  int applied = config_.resolved_initial_rung();

  RateController controller(ladder, config_.controller, applied);
  LinkMonitor monitor(config_.monitor);
  FeedbackLink feedback(config_.feedback,
                        runtime::derive_stream_seed(config_.seed, kFeedbackStream));
  const std::uint64_t camera_base = runtime::derive_stream_seed(config_.seed, kCameraStream);
  const std::uint64_t payload_base =
      runtime::derive_stream_seed(config_.seed, kPayloadStream);

  rx::StreamingReceiver receiver(
      config_.link_at(ladder[static_cast<std::size_t>(applied)],
                      trajectory_.segments.front().channel)
          .receiver_config());

  AdaptiveRunResult result;
  std::vector<PendingInterval> pending;
  // Attribution cursors: packets already attributed, and report-level
  // aggregate snapshots for the per-interval monitor sample deltas.
  std::size_t attributed = 0;
  int prev_ok = 0;
  int prev_failed = 0;
  double prev_margin_sum = 0.0;
  long long prev_margin_count = 0;

  /// Walks packets the receiver decoded since the last call and books
  /// them against the interval whose slots they occupy (epoch-tagged;
  /// slot grids restart per epoch). OK data packets must also match the
  /// interval's ground-truth messages to count as recovered bytes.
  auto attribute = [&] {
    const rx::ReceiverReport& report = receiver.report();
    for (; attributed < report.packets.size(); ++attributed) {
      const rx::PacketRecord& record = report.packets[attributed];
      if (record.kind != protocol::PacketKind::kData) continue;
      PendingInterval* home = nullptr;
      for (PendingInterval& p : pending) {
        if (p.epoch == record.epoch && record.start_slot >= p.first_slot &&
            record.start_slot <= p.last_slot) {
          home = &p;
          break;
        }
      }
      if (home == nullptr) continue;  // warmup/turnaround noise record
      IntervalRecord& interval = result.intervals[home->interval_index];
      if (record.ok) {
        ++interval.packets_ok;
        interval.corrected_symbols += record.corrected_errors + record.corrected_erasures;
        interval.recovered_bytes += static_cast<long long>(
            core::credit_packet(record, home->messages, home->next_truth));
      } else {
        ++interval.packets_failed;
        if (record.failure == rx::PacketFailure::kHeaderLost) ++interval.header_losses;
      }
    }
  };

  const double total_duration = trajectory_.total_duration_s();
  double elapsed = 0.0;
  long long epoch_slot_base = 0;
  long long sequence = 0;
  int desired = applied;
  long long interval = 0;

  while (elapsed < total_duration) {
    // 1. Control-plane delivery: the transmitter applies the newest
    // command that survived the uplink. A rung change starts a new
    // receiver epoch (flush, fresh calibration store, fresh slot grid).
    int arrived = applied;
    for (const RungCommand& command : feedback.poll(interval)) {
      if (command.rung >= 0 && command.rung < static_cast<int>(ladder.size())) {
        arrived = command.rung;
      }
    }
    const channel::ChannelSpec& spec = trajectory_.at(elapsed).channel;
    if (arrived != applied) {
      if (arrived > applied) ++result.upshifts; else ++result.downshifts;
      applied = arrived;
      // The switch costs real air time: the tx re-runs its calibration
      // sequence for the new rung while no payload flows.
      elapsed += config_.recalibration_cost_s;
      receiver.begin_epoch(
          config_.link_at(ladder[static_cast<std::size_t>(applied)], spec)
              .receiver_config());
      attribute();  // the flush decoded the old epoch's tail
      epoch_slot_base = 0;
      ++result.epochs;
      controller.on_applied(applied);
      monitor.reset();
    }

    // 2. Transmit one control interval's payload burst at the applied
    // rung through the channel the trajectory dictates right now.
    const Rung& rung = ladder[static_cast<std::size_t>(applied)];
    const core::LinkConfig link = config_.link_at(rung, spec);
    const tx::Transmitter transmitter(link.transmitter_config());
    util::Xoshiro256 payload_rng(
        runtime::derive_stream_seed(payload_base, static_cast<std::uint64_t>(interval)));
    const std::vector<std::uint8_t> payload =
        core::draw_burst_payload(link, config_.control_interval_s, payload_rng);
    const tx::Transmission transmission = transmitter.transmit(payload);

    // 3. Capture the burst through the camera frontend and push it into
    // the persistent receiver, re-stamped onto the epoch's continuous
    // slot grid. Two frame periods of dead air separate intervals — the
    // tx's reconfig / scheduling turnaround — so one interval's frame
    // overhang can never collide with the next interval's slots.
    const long long frame_period_slots =
        std::llround(rung.symbol_rate_hz / config_.profile.fps);
    const double symbol_duration_s = 1.0 / rung.symbol_rate_hz;
    frontend::CameraFrontendConfig capture_config;
    capture_config.profile = link.profile;
    capture_config.channel = link.channel;
    capture_config.symbol_rate_hz = link.symbol_rate_hz;
    capture_config.extractor = link.receiver_config().extractor;
    capture_config.source.lookahead = link.pipeline_lookahead;
    capture_config.source.time_shift_s =
        static_cast<double>(epoch_slot_base) * symbol_duration_s;
    capture_config.source.frame_index_base = receiver.frames_ingested();
    frontend::CameraFrontend capture(
        capture_config, transmission.trace,
        runtime::derive_stream_seed(camera_base, static_cast<std::uint64_t>(interval)));

    IntervalRecord record;
    record.interval = interval;
    record.epoch = receiver.epoch();
    record.rung = applied;
    record.segment = trajectory_.segment_index_at(elapsed);
    record.start_time_s = elapsed;
    record.payload_bytes = static_cast<long long>(payload.size());
    record.packets_sent = static_cast<int>(transmission.packet_messages.size());
    result.intervals.push_back(record);

    PendingInterval truth;
    truth.interval_index = result.intervals.size() - 1;
    truth.epoch = receiver.epoch();
    truth.first_slot = epoch_slot_base;
    truth.last_slot =
        epoch_slot_base + static_cast<long long>(transmission.slots.size()) - 1;
    truth.messages = transmission.packet_messages;
    pending.push_back(std::move(truth));

    // The stream stays open: one control interval is not the end of
    // the epoch, so held-back packets wait for the next interval or the
    // epoch flush.
    frontend::run_frontend(capture, receiver);
    attribute();

    // 4. Harvest the interval's quality sample from the decode deltas
    // (what became decodable during this interval, wherever its slots
    // lie — the EWMA absorbs the one-interval holdback lag).
    const rx::ReceiverReport& report = receiver.report();
    LinkQualitySample sample;
    sample.packets_sent = static_cast<int>(transmission.packet_messages.size());
    sample.packets_ok = report.data_packets_ok - prev_ok;
    sample.packets_decided =
        sample.packets_ok + (report.data_packets_failed - prev_failed);
    sample.margin_sum = report.decision_margin_sum - prev_margin_sum;
    sample.margin_count = report.decision_margin_count - prev_margin_count;
    sample.frames_streamed = capture.frames_delivered();
    sample.frames_dropped = capture.frames_dropped();
    prev_ok = report.data_packets_ok;
    prev_failed = report.data_packets_failed;
    prev_margin_sum = report.decision_margin_sum;
    prev_margin_count = report.decision_margin_count;

    monitor.observe(sample);

    // 5. Policy: decide, and keep re-sending while the transmitter is
    // not where we want it (commands can be lost; re-send is the
    // tolerance mechanism).
    if (config_.adaptation_enabled) {
      desired = controller.decide(monitor.quality());
    }
    IntervalRecord& stored = result.intervals.back();
    stored.sample = sample;
    stored.quality = monitor.quality();
    stored.desired_rung = desired;
    if (desired != applied) {
      stored.command_sent = true;
      stored.command_lost = !feedback.send({sequence++, desired}, interval);
    }

    const double dead_air_s =
        2.0 * static_cast<double>(frame_period_slots) * symbol_duration_s;
    stored.air_time_s = transmission.duration_s() + dead_air_s;
    elapsed += stored.air_time_s;
    epoch_slot_base += static_cast<long long>(transmission.slots.size()) +
                       2 * frame_period_slots;
    ++interval;
  }

  // Final epoch flush: decode and attribute everything still held back.
  receiver.on_stream_end();
  attribute();

  result.total_time_s = elapsed;
  for (const IntervalRecord& record : result.intervals) {
    result.payload_bytes += record.payload_bytes;
    result.recovered_bytes += record.recovered_bytes;
  }
  result.commands_sent = feedback.commands_sent();
  result.commands_lost = feedback.commands_lost();
  result.final_rung = applied;
  return result;
}

}  // namespace colorbars::adapt
