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
  // First sample initializes the success estimate outright: blending
  // against the optimistic default would make a dead first interval look
  // half-healthy and slow the first downshift by a full interval.
  const bool first = quality_.samples == 0;
  auto blend = [&](double current, double value) {
    return first ? value : current + alpha * (value - current);
  };

  quality_.packet_success = blend(quality_.packet_success, sample.success());
  // Margins exist only when payload slots actually classified: a dead
  // interval must not drag the margin estimate toward zero (the success
  // collapse already reports the death), so the margin EWMA skips
  // sample-less intervals, and the first interval with margins
  // initializes it outright.
  if (sample.margin_count > 0) {
    const double value = sample.mean_margin();
    quality_.margin = quality_.margin_valid
                          ? quality_.margin + alpha * (value - quality_.margin)
                          : value;
    quality_.margin_valid = true;
  }
  ++quality_.samples;
}

void LinkMonitor::reset() { quality_ = LinkQuality{}; }

}  // namespace colorbars::adapt
