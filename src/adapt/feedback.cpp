#include "colorbars/adapt/feedback.hpp"

#include <stdexcept>

namespace colorbars::adapt {

void FeedbackConfig::validate() const {
  if (delay_intervals < 0) {
    throw std::invalid_argument("FeedbackConfig: delay_intervals must be >= 0");
  }
  if (!(loss_probability >= 0.0) || loss_probability > 1.0) {
    throw std::invalid_argument("FeedbackConfig: loss_probability must be in [0, 1]");
  }
}

FeedbackLink::FeedbackLink(FeedbackConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  config_.validate();
}

bool FeedbackLink::send(const RungCommand& command, long long now) {
  ++sent_;
  // Draw unconditionally so the loss stream stays aligned with the send
  // count, not with the loss configuration.
  const bool lost = rng_.uniform() < config_.loss_probability;
  if (lost) {
    ++lost_;
    return false;
  }
  queue_.push_back({command, now + config_.delay_intervals});
  return true;
}

std::vector<RungCommand> FeedbackLink::poll(long long now) {
  std::vector<RungCommand> delivered;
  while (!queue_.empty() && queue_.front().deliver_at <= now) {
    delivered.push_back(queue_.front().command);
    queue_.pop_front();
    ++delivered_;
  }
  return delivered;
}

}  // namespace colorbars::adapt
