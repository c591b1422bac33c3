#pragma once

// The out-of-band control uplink. Real ColorBars deployments would
// carry rate-control decisions back to the luminaire over BLE or WiFi;
// that path has latency and loses packets, so the controller's command
// can arrive late or never. FeedbackLink models exactly that — a
// delayed, lossy, in-order message queue clocked in control intervals —
// and nothing else, so the controller must tolerate stale or missing
// acknowledgment (it re-sends while desired != applied).

#include <cstdint>
#include <deque>
#include <vector>

#include "colorbars/util/rng.hpp"

namespace colorbars::adapt {

/// One rate-change command from receiver to transmitter.
struct RungCommand {
  /// Monotonic per-sender sequence number (duplicates from re-sends are
  /// benign: applying the same rung twice is a no-op).
  long long sequence = 0;
  /// Ladder rung the transmitter should switch to.
  int rung = 0;

  [[nodiscard]] bool operator==(const RungCommand&) const = default;
};

/// FeedbackLink behavior knobs.
struct FeedbackConfig {
  /// Control intervals between send and earliest delivery. 0 delivers
  /// at the next poll; 1 models a one-interval BLE round trip.
  int delay_intervals = 1;
  /// Probability a command is lost outright, in [0, 1].
  double loss_probability = 0.0;

  /// Throws std::invalid_argument on a negative delay or a loss
  /// probability outside [0, 1].
  void validate() const;
};

/// Delayed, lossy, in-order command channel. Deterministic: loss draws
/// come from its own seeded generator and the link is used only from
/// the sequential control loop, so runs are byte-identical at any
/// thread count.
class FeedbackLink {
 public:
  /// Throws as FeedbackConfig::validate does.
  explicit FeedbackLink(FeedbackConfig config, std::uint64_t seed = 0xfeedbacc);

  /// Queues `command` at time `now` (a control-interval index). Returns
  /// false when the loss draw ate the command. Lost commands are gone —
  /// resending is the sender's job.
  bool send(const RungCommand& command, long long now);

  /// Commands whose delivery time has arrived by `now`, in send order.
  [[nodiscard]] std::vector<RungCommand> poll(long long now);

  [[nodiscard]] const FeedbackConfig& config() const noexcept { return config_; }
  [[nodiscard]] long long commands_sent() const noexcept { return sent_; }
  [[nodiscard]] long long commands_lost() const noexcept { return lost_; }
  [[nodiscard]] long long commands_delivered() const noexcept { return delivered_; }
  /// Commands queued but not yet deliverable.
  [[nodiscard]] std::size_t in_flight() const noexcept { return queue_.size(); }

 private:
  struct Pending {
    RungCommand command;
    long long deliver_at = 0;
  };

  FeedbackConfig config_;
  util::Xoshiro256 rng_;
  std::deque<Pending> queue_;
  long long sent_ = 0;
  long long lost_ = 0;
  long long delivered_ = 0;
};

}  // namespace colorbars::adapt
