#pragma once

// End-to-end closed-loop link adaptation over a channel trajectory.
// AdaptiveLinkSimulator drives the full loop the subsystem exists for:
//
//   trajectory -> channel spec -> tx at the applied rung ->
//   frontend::CameraFrontend -> StreamingReceiver -> LinkMonitor ->
//   RateController -> FeedbackLink -> (delayed, maybe lost) rung switch
//   at the tx.
//
// Time advances in control intervals. Each interval transmits one
// payload burst at the applied rung through the channel the trajectory
// dictates at that moment, captures it through a CameraFrontend (the
// capture LinkSimulator runs) and pushes the blocks into the persistent
// StreamingReceiver (frames re-stamped onto the epoch's continuous slot
// grid via pipeline::SourceConfig::time_shift_s), then lets the
// controller act on the monitor's smoothed quality. A rung change
// begins a new receiver epoch: fresh calibration store, fresh slot
// grid, packet records tagged with the epoch they decoded under.
//
// Determinism: the control loop is sequential; every stochastic input
// (payload bytes, camera noise, channel stages, feedback loss) draws
// from streams derived with runtime::derive_stream_seed from the run
// seed and the interval counter, so a run is byte-identical at any
// thread count (only frame rendering is parallel, and it already
// carries per-frame derived streams).

#include <cstdint>
#include <string>
#include <vector>

#include "colorbars/adapt/controller.hpp"
#include "colorbars/adapt/feedback.hpp"
#include "colorbars/adapt/monitor.hpp"
#include "colorbars/channel/channel.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/rx/streaming.hpp"

namespace colorbars::adapt {

/// One leg of a channel trajectory: `channel` holds for `duration_s`.
struct TrajectorySegment {
  std::string name;
  double duration_s = 1.0;
  channel::ChannelSpec channel{};
};

/// A piecewise-constant channel trajectory (the "receiver walks away /
/// a hand blocks the LED" script an adaptive run plays against).
struct Trajectory {
  std::vector<TrajectorySegment> segments;

  [[nodiscard]] double total_duration_s() const noexcept;
  /// Segment index active at time `t` (clamped to the last segment).
  [[nodiscard]] int segment_index_at(double t) const noexcept;
  [[nodiscard]] const TrajectorySegment& at(double t) const noexcept {
    return segments[static_cast<std::size_t>(segment_index_at(t))];
  }

  /// Throws std::invalid_argument unless there is at least one segment,
  /// every segment has a positive duration and a valid channel, and the
  /// total duration is finite with at most INT_MAX symbol slots at
  /// led::TriLedConfig's rate limit (core::slots_in).
  void validate() const;
};

/// The examples' walk-away script: the receiver starts close to the
/// luminaire, backs off past the fixed link's SER cliff, and partially
/// recovers. Distances follow the EXPERIMENTS.md range sweep.
[[nodiscard]] Trajectory walkaway_trajectory();

/// Full configuration of an adaptive run.
struct AdaptiveLinkConfig {
  std::vector<Rung> ladder = default_ladder();
  /// Start rung; -1 means the top of the ladder (probe from the
  /// highest rate and let the channel push the link down).
  int initial_rung = -1;
  /// False freezes the transmitter on initial_rung — the fixed-rung
  /// baseline, run through the identical machinery so comparisons
  /// against the adaptive link differ only in the policy.
  bool adaptation_enabled = true;
  /// Nominal seconds of payload air time per control interval (the
  /// actual interval also carries warmup/calibration/tail overhead).
  double control_interval_s = 0.4;
  /// Transmitter re-calibration outage charged once per rung switch:
  /// dead air while the tx re-runs its white warmup / calibration
  /// sequence for the new (order, rate) before payload resumes. Elapsed
  /// time advances with no bytes transmitted, so every switch directly
  /// taxes goodput. The controller weighs the same cost via
  /// ControllerConfig::switch_cost_intervals — set that to
  /// recalibration_cost_s / control_interval_s so the policy only pays
  /// for downshifts the degradation amortizes. 0 keeps switching free.
  double recalibration_cost_s = 0.0;
  camera::SensorProfile profile = camera::nexus5_profile();
  double illumination_ratio = 0.8;
  double calibration_rate_hz = 5.0;
  rx::MatchingSpace matching_space = rx::MatchingSpace::kCielabAB;
  int pipeline_lookahead = 8;
  MonitorConfig monitor{};
  ControllerConfig controller{};
  FeedbackConfig feedback{};
  std::uint64_t seed = 0xada9707;

  /// The core::LinkConfig of one control interval: `rung` on `spec`'s
  /// channel, everything else from this config. Exposed so benches can
  /// reuse the exact per-rung link derivation (RS code sizing included).
  [[nodiscard]] core::LinkConfig link_at(const Rung& rung,
                                         const channel::ChannelSpec& spec) const;

  /// initial_rung resolved against the ladder (-1 -> top rung).
  [[nodiscard]] int resolved_initial_rung() const noexcept {
    return initial_rung >= 0 ? initial_rung : static_cast<int>(ladder.size()) - 1;
  }

  /// Throws std::invalid_argument unless a simulator can run this
  /// config: a ladder within the tri-LED's rate limit (validate_ladder),
  /// a resolved initial rung inside it, a positive control interval, a
  /// link every rung's interval can run (link_at(...).validate(): the
  /// profile, illumination ratio and calibration rate; core::slots_in
  /// for the interval), a finite non-negative recalibration cost, and
  /// valid monitor, controller and feedback configs.
  /// AdaptiveLinkSimulator's constructor and the svc wire decoder both
  /// run it.
  void validate() const;
};

/// Everything that happened in one control interval.
struct IntervalRecord {
  long long interval = 0;
  int epoch = 0;
  int rung = 0;            ///< rung the transmitter used
  int segment = 0;         ///< trajectory segment at interval start
  double start_time_s = 0.0;
  double air_time_s = 0.0;  ///< transmission duration + turnaround gap
  long long payload_bytes = 0;
  /// Ground-truth-matched bytes attributed to this interval's slots
  /// (finalized once the epoch flushes; late tail packets land here).
  long long recovered_bytes = 0;
  int packets_sent = 0;
  int packets_ok = 0;
  int packets_failed = 0;
  int header_losses = 0;
  long long corrected_symbols = 0;
  /// The raw sample the monitor observed at this interval's end.
  LinkQualitySample sample{};
  /// Smoothed quality after observing the sample.
  LinkQuality quality{};
  int desired_rung = 0;     ///< controller output after this interval
  bool command_sent = false;
  bool command_lost = false;
};

/// Aggregate outcome of an adaptive (or fixed-rung baseline) run.
struct AdaptiveRunResult {
  std::vector<IntervalRecord> intervals;
  double total_time_s = 0.0;
  long long payload_bytes = 0;
  long long recovered_bytes = 0;
  int epochs = 1;           ///< reconfiguration epochs (1 = never switched)
  int upshifts = 0;
  int downshifts = 0;
  long long commands_sent = 0;
  long long commands_lost = 0;
  int final_rung = 0;

  [[nodiscard]] double goodput_bps() const noexcept {
    return total_time_s > 0.0
               ? 8.0 * static_cast<double>(recovered_bytes) / total_time_s
               : 0.0;
  }
};

/// Drives one closed-loop run over a trajectory.
class AdaptiveLinkSimulator {
 public:
  /// Runs config.validate() and trajectory.validate(), which throw
  /// std::invalid_argument on violation, mirroring core::LinkSimulator.
  AdaptiveLinkSimulator(AdaptiveLinkConfig config, Trajectory trajectory);

  [[nodiscard]] const AdaptiveLinkConfig& config() const noexcept { return config_; }
  [[nodiscard]] const Trajectory& trajectory() const noexcept { return trajectory_; }

  /// Runs the whole trajectory once and returns the per-interval story
  /// plus aggregates. Deterministic per (config.seed, trajectory) at
  /// any thread count.
  [[nodiscard]] AdaptiveRunResult run();

 private:
  AdaptiveLinkConfig config_;
  Trajectory trajectory_;
};

}  // namespace colorbars::adapt
