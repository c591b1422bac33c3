#pragma once

// Closed-loop rate control for the ColorBars link. The paper fixes
// (constellation order, symbol rate) per run, but its own evaluation
// (Figs. 9-11) shows the best choice flips between 4/8/16-CSK as the
// channel moves; a deployed link must walk a ladder of such rungs
// instead of dying at the SER cliff. RateController implements the
// rx-side policy: downshift fast when the smoothed link quality
// collapses, probe upward cautiously (AIMD: a failed probe doubles the
// confirmation streak the next probe needs, a settled one halves it).

#include <string>
#include <vector>

#include "colorbars/adapt/monitor.hpp"
#include "colorbars/csk/constellation.hpp"
#include "colorbars/eq/state.hpp"

namespace colorbars::adapt {

/// One operating point of the link: a (CSK order, symbol rate) pair.
struct Rung {
  csk::CskOrder order = csk::CskOrder::kCsk8;
  double symbol_rate_hz = 2000.0;

  /// Raw modulation bitrate before overhead and coding.
  [[nodiscard]] double raw_bitrate_bps() const noexcept {
    return static_cast<double>(csk::bits_per_symbol(order)) * symbol_rate_hz;
  }

  [[nodiscard]] bool operator==(const Rung&) const = default;
};

/// "CSK8@2000Hz" — for logs and bench labels.
[[nodiscard]] std::string rung_name(const Rung& rung);

/// The default ladder, ascending in raw bitrate. Chosen from the
/// operating points the reproduction measures (EXPERIMENTS.md Fig. 11
/// and the range sweep): low rungs trade rate for ISI robustness (a
/// 1 kHz symbol outlives a lengthened auto-exposure window at range),
/// high rungs deliver the paper's peak goodput at close range. Every
/// rung respects the tri-LED's 4.5 kHz switching limit.
[[nodiscard]] std::vector<Rung> default_ladder();

/// The default ladder for a link decoding through `engine`: the base
/// ladder, extended with the CSK32 (and, for the equalized engines,
/// CSK64) extension rungs the engine can sustain
/// (eq::max_supported_order). The plain nearest-reference ladder tops
/// out at CSK32@4kHz; an equalized engine adds CSK64@4kHz above it.
[[nodiscard]] std::vector<Rung> default_ladder(eq::EngineKind engine);

/// Validates a ladder: non-empty, rungs strictly ascending in raw
/// bitrate, every symbol rate positive and within `max_rate_hz`.
/// Throws std::invalid_argument on violation.
void validate_ladder(const std::vector<Rung>& ladder, double max_rate_hz);

/// RateController policy knobs.
struct ControllerConfig {
  /// Smoothed packet success below this triggers a one-rung downshift.
  double down_success = 0.80;
  /// Success below this (margin collapse / dead link) drops two rungs.
  double collapse_success = 0.30;
  /// Success required (together with the margin gate) to count an
  /// interval toward the upshift confirmation streak.
  double up_success = 0.97;
  /// Smoothed ΔE decision margin required to count toward the streak;
  /// 0 disables the margin gate. A link can sit at ~100% success with
  /// margins about to collapse — the gate keeps it from probing into a
  /// cliff.
  double min_margin = 2.0;
  /// Consecutive good intervals required before the first up-probe.
  int up_confirm_intervals = 2;
  /// AIMD ceiling for the doubled confirmation requirement.
  int max_up_confirm_intervals = 16;
  /// Intervals a probe must survive at the higher rung to count as
  /// successful (halving the confirmation requirement back down).
  int probe_settle_intervals = 3;
  /// The transmitter's re-calibration outage, expressed in control
  /// intervals (see AdaptiveLinkConfig::recalibration_cost_s). 0 means
  /// switching is free and an ordinary downshift fires on the first
  /// sub-threshold interval (the original policy). When positive, the
  /// degradation must persist for more than this many intervals before
  /// the controller pays for a downshift — a one-interval dip is cheaper
  /// to ride out than a recalibration it would not amortize. Collapse
  /// (success below collapse_success) always switches immediately: a
  /// dead link loses more per interval than any recalibration costs.
  double switch_cost_intervals = 0.0;

  /// Throws std::invalid_argument unless 1 <= up_confirm_intervals <=
  /// max_up_confirm_intervals and switch_cost_intervals is finite and
  /// non-negative.
  void validate() const;
};

/// The rx-side rate-adaptation policy. decide() maps the monitor's
/// smoothed quality to a desired ladder rung; the caller owns actually
/// switching (via the feedback link) and reports back what the
/// transmitter applied through on_applied().
class RateController {
 public:
  /// Throws std::invalid_argument on an invalid ladder (see
  /// validate_ladder; max_rate_hz is the LED limit the caller enforces
  /// separately), an out-of-range initial rung or an invalid config
  /// (ControllerConfig::validate).
  RateController(std::vector<Rung> ladder, ControllerConfig config, int initial_rung);

  [[nodiscard]] const std::vector<Rung>& ladder() const noexcept { return ladder_; }
  [[nodiscard]] const ControllerConfig& config() const noexcept { return config_; }

  /// The rung the controller currently wants the transmitter on.
  [[nodiscard]] int desired_rung() const noexcept { return desired_; }
  /// Confirmation streak an up-probe currently requires (AIMD state).
  [[nodiscard]] int required_streak() const noexcept { return required_streak_; }

  /// One control-interval decision: folds the latest smoothed quality
  /// into the policy and returns the desired rung index. Quality from
  /// an interval with no samples (quality.valid() false) leaves the
  /// decision unchanged.
  int decide(const LinkQuality& quality);

  /// Informs the controller the transmitter is now on `rung` (feedback
  /// round-trip completed, or an initial sync). Clears the streak so a
  /// fresh epoch re-earns its confirmation; desired_rung() is left
  /// unchanged — a stale application must not override the policy, or
  /// the re-send loop would stop short of the rung it wants.
  void on_applied(int rung);

 private:
  void downshift(int rungs);

  /// Consecutive sub-threshold intervals an ordinary downshift needs
  /// before it fires (1 when switching is free).
  [[nodiscard]] int required_down_streak() const noexcept;

  std::vector<Rung> ladder_;
  ControllerConfig config_;
  int desired_ = 0;
  int streak_ = 0;
  int required_streak_ = 0;
  /// Consecutive intervals below down_success (persistence gate state).
  int down_streak_ = 0;
  /// Up-probe in flight: intervals survived at the probed rung.
  bool probing_ = false;
  int probe_age_ = 0;
};

}  // namespace colorbars::adapt
