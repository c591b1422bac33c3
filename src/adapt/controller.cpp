#include "colorbars/adapt/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace colorbars::adapt {

std::string rung_name(const Rung& rung) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s@%gHz", csk::order_name(rung.order),
                rung.symbol_rate_hz);
  return buf;
}

std::vector<Rung> default_ladder() {
  // Ascending raw bitrate. Symbol rate is the dominant range knob (the
  // SER cliff is ISI: auto-exposure lengthens past the symbol duration),
  // order the close-range capacity knob — so the ladder descends in
  // rate first, order second. CSK4@1kHz is deliberately absent: measured
  // over the range ladder it is strictly dominated by CSK8@1kHz (same
  // ISI survival, lower bitrate, and worse goodput — the paper's Fig. 11
  // shows the same 0.07 vs 0.18 kbps ordering), and a dominated bottom
  // rung is where a collapse downshift would strand the link.
  return {
      {csk::CskOrder::kCsk8, 1000.0},   //  3 kbps raw — survives the longest exposures
      {csk::CskOrder::kCsk8, 2000.0},   //  6 kbps raw — the paper's default point
      {csk::CskOrder::kCsk16, 2000.0},  //  8 kbps raw
      {csk::CskOrder::kCsk16, 4000.0},  // 16 kbps raw — the paper's peak goodput
  };
}

std::vector<Rung> default_ladder(eq::EngineKind engine) {
  std::vector<Rung> ladder = default_ladder();
  // Extension rungs above the paper's peak, gated on what the decision
  // engine can decode (eq::max_supported_order): CSK32@4kHz (20 kbps
  // raw) for every engine, CSK64@4kHz (24 kbps raw) only when the
  // engine equalizes ISI — offering CSK64 to the plain scan would hand
  // the controller a rung it can only fail on. All rates stay within
  // the tri-LED's 4.5 kHz switching limit.
  const int max_symbols = csk::symbol_count(eq::max_supported_order(engine));
  if (max_symbols >= csk::symbol_count(csk::CskOrder::kCsk32)) {
    ladder.push_back({csk::CskOrder::kCsk32, 4000.0});
  }
  if (max_symbols >= csk::symbol_count(csk::CskOrder::kCsk64)) {
    ladder.push_back({csk::CskOrder::kCsk64, 4000.0});
  }
  return ladder;
}

void validate_ladder(const std::vector<Rung>& ladder, double max_rate_hz) {
  if (ladder.empty()) {
    throw std::invalid_argument("validate_ladder: ladder must not be empty");
  }
  double previous = 0.0;
  for (const Rung& rung : ladder) {
    if (!(rung.symbol_rate_hz > 0.0) || rung.symbol_rate_hz > max_rate_hz) {
      throw std::invalid_argument("validate_ladder: symbol rate out of range for " +
                                  rung_name(rung));
    }
    const double raw = rung.raw_bitrate_bps();
    if (raw <= previous) {
      throw std::invalid_argument(
          "validate_ladder: rungs must strictly ascend in raw bitrate");
    }
    previous = raw;
  }
}

void ControllerConfig::validate() const {
  if (up_confirm_intervals < 1 || max_up_confirm_intervals < up_confirm_intervals) {
    throw std::invalid_argument("ControllerConfig: bad confirmation interval bounds");
  }
  if (!(switch_cost_intervals >= 0.0) || !std::isfinite(switch_cost_intervals)) {
    throw std::invalid_argument(
        "ControllerConfig: switch_cost_intervals must be finite and non-negative");
  }
}

RateController::RateController(std::vector<Rung> ladder, ControllerConfig config,
                               int initial_rung)
    : ladder_(std::move(ladder)), config_(config), desired_(initial_rung) {
  // The LED limit is enforced where a transmitter is built; here only
  // the ladder's internal consistency matters.
  validate_ladder(ladder_, std::numeric_limits<double>::infinity());
  if (initial_rung < 0 || initial_rung >= static_cast<int>(ladder_.size())) {
    throw std::invalid_argument("RateController: initial rung outside the ladder");
  }
  config_.validate();
  required_streak_ = config_.up_confirm_intervals;
}

int RateController::required_down_streak() const noexcept {
  // A downshift must outlast the recalibration it triggers: with a cost
  // of c intervals, only degradation persisting *past* c intervals is
  // worth paying for. Free switching (c == 0) keeps the original
  // downshift-on-first-bad-interval policy.
  return 1 + static_cast<int>(std::ceil(config_.switch_cost_intervals - 1e-12));
}

void RateController::downshift(int rungs) {
  const int target = std::max(desired_ - rungs, 0);
  if (target == desired_) return;
  desired_ = target;
  streak_ = 0;
  if (probing_) {
    // The probe failed: the channel rejected the higher rung. Back off
    // multiplicatively so the next probe waits longer (AIMD).
    probing_ = false;
    required_streak_ = std::min(required_streak_ * 2, config_.max_up_confirm_intervals);
  }
}

int RateController::decide(const LinkQuality& quality) {
  if (!quality.valid()) return desired_;

  if (probing_) {
    ++probe_age_;
    if (probe_age_ >= config_.probe_settle_intervals) {
      // The probed rung held: re-arm the next probe faster, but make it
      // re-earn its streak from zero — intervals spent settling this
      // probe must not double as confirmation for the next one.
      probing_ = false;
      required_streak_ = std::max(required_streak_ / 2, config_.up_confirm_intervals);
      streak_ = 0;
    }
  }

  if (quality.packet_success < config_.collapse_success) {
    // Margin collapse bypasses the switch-cost gate: every interval on a
    // dead link forfeits more than the recalibration outage costs.
    down_streak_ = 0;
    downshift(2);
    return desired_;
  }
  if (quality.packet_success < config_.down_success) {
    ++down_streak_;
    if (down_streak_ >= required_down_streak()) {
      down_streak_ = 0;
      downshift(1);
    }
    return desired_;
  }
  down_streak_ = 0;

  const bool margin_ok = config_.min_margin <= 0.0 ||
                         (quality.margin_valid && quality.margin >= config_.min_margin);
  if (quality.packet_success >= config_.up_success && margin_ok) {
    ++streak_;
    if (streak_ >= required_streak_ &&
        desired_ + 1 < static_cast<int>(ladder_.size())) {
      ++desired_;
      streak_ = 0;
      probing_ = true;
      probe_age_ = 0;
    }
  } else {
    streak_ = 0;
  }
  return desired_;
}

void RateController::on_applied(int rung) {
  if (rung < 0 || rung >= static_cast<int>(ladder_.size())) return;
  // The transmitter settled on `rung` (normally because we asked). A
  // fresh epoch re-earns its confirmation streak from scratch. desired_
  // stays untouched: it is the policy's output, and when a stale
  // command left the tx somewhere else the re-send loop keeps pushing
  // toward desired_ until the two agree.
  streak_ = 0;
  down_streak_ = 0;
}

}  // namespace colorbars::adapt
