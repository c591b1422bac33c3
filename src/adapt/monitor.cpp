#include "colorbars/adapt/monitor.hpp"

#include <stdexcept>

namespace colorbars::adapt {

void MonitorConfig::validate() const {
  if (!(alpha > 0.0) || !(alpha <= 1.0)) {
    throw std::invalid_argument("MonitorConfig: alpha must be in (0, 1]");
  }
}

LinkMonitor::LinkMonitor(MonitorConfig config) : config_(config) { config_.validate(); }

void LinkMonitor::observe(const LinkQualitySample& sample) {
  const double alpha = config_.alpha;
  // First sample initializes every estimate outright: blending against
  // the optimistic defaults would make a dead first interval look
  // half-healthy and slow the first downshift by a full interval.
  const bool first = quality_.samples == 0;
  auto blend = [&](double current, double value) {
    return first ? value : current + alpha * (value - current);
  };

  quality_.packet_success = blend(quality_.packet_success, sample.success());
  // Ratio signals carry evidence only when their denominator is
  // non-empty: an interval that sent nothing says nothing about header
  // loss, an interval with no frames says nothing about drops, and an
  // impossible-ratio placeholder of 0.0 would otherwise decay a real
  // estimate toward "healthy" during dead air (margin already followed
  // this discipline; the other ratios now match it).
  auto blend_ratio = [&](double& estimate, bool& estimate_valid, double value) {
    estimate = estimate_valid ? estimate + alpha * (value - estimate) : value;
    estimate_valid = true;
  };
  if (sample.packets_sent > 0) {
    blend_ratio(quality_.header_loss, quality_.header_loss_valid,
                static_cast<double>(sample.header_losses) /
                    static_cast<double>(sample.packets_sent));
  }
  const long long frames = sample.frames_streamed + sample.frames_dropped;
  if (frames > 0) {
    blend_ratio(quality_.frame_drop, quality_.frame_drop_valid,
                static_cast<double>(sample.frames_dropped) / static_cast<double>(frames));
  }
  if (sample.packets_decided > 0) {
    blend_ratio(quality_.corrected_per_packet, quality_.corrected_valid,
                static_cast<double>(sample.corrected_symbols) /
                    static_cast<double>(sample.packets_decided));
  }
  // Margins exist only when payload slots actually classified: a dead
  // interval must not drag the margin estimate toward zero (the success
  // collapse already reports the death), so the margin EWMA skips
  // sample-less intervals.
  if (sample.margin_count > 0) {
    blend_ratio(quality_.margin, quality_.margin_valid, sample.mean_margin());
  }
  ++quality_.samples;
}

void LinkMonitor::reset() { quality_ = LinkQuality{}; }

}  // namespace colorbars::adapt
