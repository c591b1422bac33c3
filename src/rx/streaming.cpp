#include "colorbars/rx/streaming.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace colorbars::rx {

StreamingReceiver::StreamingReceiver(ReceiverConfig config)
    : receiver_(std::move(config)) {}

long long StreamingReceiver::frame_period_slots() const noexcept {
  const ReceiverConfig& config = receiver_.config();
  const double fps = config.frame_rate_hz > 0.0 ? config.frame_rate_hz : 30.0;
  return std::llround(config.symbol_rate_hz / fps);
}

long long StreamingReceiver::holdback_slots() const noexcept {
  return frame_period_slots() + 4;
}

long long StreamingReceiver::tail_keep_slots() const noexcept {
  return frame_period_slots();
}

void StreamingReceiver::push_frame(const camera::Frame& frame) {
  push_frame(frame, 0, frame.columns);
}

void StreamingReceiver::push_frame(const camera::Frame& frame, int column_begin,
                                   int column_end) {
  ingest_slots(extract_slots(frame, receiver_.config().symbol_rate_hz, column_begin,
                             column_end, arena_, receiver_.config().extractor));
}

void StreamingReceiver::push_observations(std::span<const SlotObservation> observations) {
  ingest_slots(observations);
  (void)drain(/*final_flush=*/false);
}

void StreamingReceiver::ingest_slots(std::span<const SlotObservation> slots) {
  for (const SlotObservation& slot : slots) {
    if (!window_valid_) {
      window_.base_slot = slot.slot;
      first_slot_ = slot.slot;
      latest_slot_ = slot.slot;
      window_valid_ = true;
    }
    // Behind the eviction boundary (or behind the first frame's earliest
    // band): already parsed, drop. Happens only at frame-boundary
    // overlap, where the earlier frame saw the fuller band anyway.
    if (slot.slot < window_.base_slot) continue;
    // Too far ahead to bridge (kMaxSlotGap): drop, as assemble_timeline
    // does, rather than grow the window across the hole.
    if (beyond_slot_gap(slot.slot, window_.base_slot, latest_slot_)) continue;
    const auto index = static_cast<std::size_t>(slot.slot - window_.base_slot);
    if (index >= window_.slots.size()) window_.slots.resize(index + 1);
    auto& cell = window_.slots[index];
    // First writer wins, matching the offline Receiver::collect.
    if (!cell.has_value()) {
      cell = slot;
      ++observed_cells_;
    }
    latest_slot_ = std::max(latest_slot_, slot.slot);
    ++stats_.slots_ingested;
  }
  ++frames_ingested_;
  stats_.peak_window_slots =
      std::max(stats_.peak_window_slots, static_cast<long long>(window_.slots.size()));
}

std::size_t StreamingReceiver::head_margin_slots() const noexcept {
  return static_cast<std::size_t>(holdback_slots()) + receiver_.max_decision_span_slots();
}

void StreamingReceiver::refresh_engine_stats() noexcept {
  const eq::DecisionStats& decisions = receiver_.engine().stats();
  stats_.engine_decisions = engine_base_.decisions + decisions.decisions;
  stats_.engine_fallback_decisions =
      engine_base_.fallback_decisions + decisions.fallback_decisions;
  stats_.engine_margin_sum = engine_base_.margin_sum + decisions.margin_sum;
  stats_.engine_margin_count = engine_base_.margin_count + decisions.margin_count;
}

void StreamingReceiver::note_drain(double elapsed_s) noexcept {
  ++stats_.drains;
  refresh_engine_stats();
  stats_.slots_scanned = report_.slots_scanned;
  stats_.peak_window_slots =
      std::max(stats_.peak_window_slots, static_cast<long long>(window_.slots.size()));
  stats_.parse_time_s += elapsed_s;
}

std::size_t StreamingReceiver::drain(bool final_flush) {
  const std::size_t first_new = report_.packets.size();
  if (!window_valid_ || window_.slots.empty()) return first_new;
  const auto started = std::chrono::steady_clock::now();
  auto elapsed = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
        .count();
  };

  // Cold start: run the resumable calibration pre-scan — each position
  // examined once, in stream order, the exact absorption sequence of the
  // offline pre-scan — and hold every decode decision until the store is
  // fully calibrated, so classification sees the same references the
  // offline parse does. Until then nothing is parsed or evicted; once
  // calibrated, the main parse replays from the stream start over the
  // fully retained window, making the packet sequence byte-identical to
  // Receiver::parse over the whole capture.
  if (!receiver_.store().calibrated()) {
    std::size_t prescan_limit = window_.slots.size();
    if (!final_flush) {
      const std::size_t margin = head_margin_slots();
      prescan_limit = prescan_limit > margin ? prescan_limit - margin : 0;
    }
    if (prescan_position_ < prescan_limit) {
      prescan_position_ =
          receiver_.prescan_calibration(window_, prescan_position_, prescan_limit);
    }
    if (!final_flush && !receiver_.store().calibrated()) {
      note_drain(elapsed());
      return first_new;
    }
  }

  // The parse may only conclude anything — "no packet starts here" or a
  // committed record — where every slot the decision probes is final: a
  // slot stops changing once a whole frame period has passed it (the
  // holdback), and a decision at one position can read up to a full
  // packet beyond it, so the scan limit stays a holdback plus one packet
  // span behind the head.
  std::size_t limit = window_.slots.size();
  if (!final_flush) {
    const std::size_t margin = head_margin_slots();
    limit = limit > margin ? limit - margin : 0;
  }

  resume_position_ =
      receiver_.parse_from(window_, resume_position_, limit, report_, final_flush);
  // Keep the aggregate fields the batch Receiver::parse fills in sync
  // with everything ingested so far (parse_from only appends packets and
  // scan counters).
  report_.slots_observed = observed_cells_;
  report_.slot_span =
      span_base_ + (latest_slot_ >= first_slot_ ? latest_slot_ - first_slot_ + 1 : 0);
  // Stamp this drain's records with the current reconfiguration epoch so
  // consumers can attribute them after a begin_epoch.
  for (std::size_t i = first_new; i < report_.packets.size(); ++i) {
    report_.packets[i].epoch = epoch_;
  }

  // Evict everything the parse can never revisit: the resume point only
  // moves forward, so slots more than the tail behind it are dead.
  const auto tail = static_cast<std::size_t>(tail_keep_slots());
  if (resume_position_ > tail) {
    const std::size_t evict = resume_position_ - tail;
    window_.slots.erase(window_.slots.begin(),
                        window_.slots.begin() + static_cast<std::ptrdiff_t>(evict));
    window_.base_slot += static_cast<long long>(evict);
    resume_position_ -= evict;
    stats_.slots_evicted += static_cast<long long>(evict);
  }

  note_drain(elapsed());
  return first_new;
}

std::vector<PacketRecord> StreamingReceiver::poll() {
  const std::size_t first_new = drain(/*final_flush=*/false);
  return {report_.packets.begin() + static_cast<std::ptrdiff_t>(first_new),
          report_.packets.end()};
}

std::vector<PacketRecord> StreamingReceiver::finish() {
  const std::size_t first_new = drain(/*final_flush=*/true);
  return {report_.packets.begin() + static_cast<std::ptrdiff_t>(first_new),
          report_.packets.end()};
}

void StreamingReceiver::begin_epoch(ReceiverConfig config) {
  // Flush the old epoch with end-of-stream semantics: anything still
  // held back decodes against the old calibration before it is lost.
  (void)drain(/*final_flush=*/true);
  // Fold the outgoing epoch's decision counters into the cumulative
  // base before the receiver (and its live engine stats) is replaced.
  {
    const eq::DecisionStats& decisions = receiver_.engine().stats();
    engine_base_.decisions += decisions.decisions;
    engine_base_.fallback_decisions += decisions.fallback_decisions;
    engine_base_.margin_sum += decisions.margin_sum;
    engine_base_.margin_count += decisions.margin_count;
  }
  receiver_ = Receiver(std::move(config));
  refresh_engine_stats();
  // The new epoch's slot grid restarts: a rung change re-times every
  // symbol, so old slot numbers are meaningless under the new rate.
  window_ = SlotTimeline{};
  window_valid_ = false;
  resume_position_ = 0;
  prescan_position_ = 0;
  span_base_ += latest_slot_ >= first_slot_ ? latest_slot_ - first_slot_ + 1 : 0;
  first_slot_ = 0;
  latest_slot_ = -1;
  ++epoch_;
}

void StreamingReceiver::on_stream_end() { (void)drain(/*final_flush=*/true); }

}  // namespace colorbars::rx
