#pragma once

// Frame-at-a-time receiver facade. The paper's Android receiver runs a
// two-thread pipeline: one thread converts each camera frame as it
// arrives, another consumes the preprocessed frames and emits decoded
// packets (§8, "Experiment Setup"). StreamingReceiver provides that
// consumption model on top of the batch Receiver: push frames as the
// camera delivers them, poll for packets that have become decodable.
// A frontend::CameraFrontend feeds it the same capture as reduced slot
// observations (push_observations), with O(lookahead) frames resident.
//
// The decode path is incremental and bounded: observations live in a
// sliding SlotTimeline window, each poll() resumes the parse where the
// previous one stopped (Receiver::parse_from), and slots behind the
// resume point are evicted once a configurable tail no longer needs
// them. Work per poll() and retained memory are therefore proportional
// to the window, not to the capture length.
//
// Cold start is the one exception to the bounded window: until the
// calibration store completes, drains only run the resumable
// calibration pre-scan (each position examined once, in stream order —
// the exact absorption sequence of the offline pre-scan) and no slot is
// parsed or evicted. Decoding a data packet before the references are
// complete would classify it against a different store state than the
// offline pass, breaking byte-identity. Calibration normally completes
// within the first frame or two; a capture whose calibration never
// completes degenerates to the offline memory profile, exactly as the
// batch receiver would.
//
// Packets are reported exactly once, in slot order. Because a packet can
// span the inter-frame gap into the *next* frame, a packet is only
// finalized once the timeline extends at least one whole frame period
// beyond it; call finish() at end of capture to flush the tail.

#include <span>

#include "colorbars/rx/receiver.hpp"
#include "colorbars/util/arena.hpp"

namespace colorbars::rx {

/// Per-stream decode-side counters, cumulative across begin_epoch
/// reconfigurations. The capture arena and the frame pool keep their
/// own counters (util::CaptureArena::stats, pipeline::BufferPool::stats).
struct StreamingStats {
  long long drains = 0;              ///< poll()/finish() calls that parsed
  long long slots_ingested = 0;      ///< observations accepted from frames
  long long slots_scanned = 0;       ///< cumulative parse-loop positions
  long long slots_evicted = 0;       ///< slots dropped from the window
  long long peak_window_slots = 0;   ///< max window length ever retained
  double parse_time_s = 0.0;         ///< cumulative wall time inside drains
  // Decision-engine counters (see eq::DecisionStats), refreshed after
  // every drain.
  long long engine_decisions = 0;          ///< data-slot decisions taken
  long long engine_fallback_decisions = 0; ///< decided on the nearest fallback
  double engine_margin_sum = 0.0;          ///< Σ per-decision ΔE margins
  long long engine_margin_count = 0;
};

class StreamingReceiver {
 public:
  explicit StreamingReceiver(ReceiverConfig config);

  [[nodiscard]] const CalibrationStore& store() const noexcept {
    return receiver_.store();
  }

  /// Ingests the next camera frame (frames must arrive in capture order).
  void push_frame(const camera::Frame& frame);

  /// ROI-scoped ingest: column-averages only [column_begin, column_end)
  /// of each scanline — the decode slice of one tracked luminaire. All
  /// other semantics match push_frame.
  void push_frame(const camera::Frame& frame, int column_begin, int column_end);

  /// Frontend-seam ingest: accepts one block of already-reduced slot
  /// observations (a frontend::SlotObservationSource delivery — a
  /// camera frame's bands, a photodiode sample block's slots) and runs
  /// the incremental drain poll() runs. Pushing the blocks a
  /// CameraFrontend yields decodes byte-identically to push_frame +
  /// poll on the frames themselves.
  void push_observations(std::span<const SlotObservation> observations);

  /// Returns the packets that have become decodable since the last call
  /// (possibly none). Cheap when no new frames arrived.
  [[nodiscard]] std::vector<PacketRecord> poll();

  /// Flushes everything, including packets near the end of the capture
  /// that poll() was still holding back. Call once, at end of stream.
  [[nodiscard]] std::vector<PacketRecord> finish();

  /// Mid-stream reconfiguration (a link-adaptation rung change): flushes
  /// the current epoch with end-of-stream semantics, replaces the inner
  /// Receiver with one built from `config` — fresh calibration store,
  /// fresh slot window, slot numbering restarting at the new epoch's
  /// grid — and increments the epoch counter stamped on every packet
  /// record decoded from then on. Aggregate report fields (payload,
  /// packet counts, slot span) keep accumulating across epochs.
  void begin_epoch(ReceiverConfig config);

  /// Reconfiguration epochs started so far (0 until the first
  /// begin_epoch call).
  [[nodiscard]] int epoch() const noexcept { return epoch_; }

  /// finish() for a caller that reads the packets from report(): the
  /// end-of-stream flush, discarding the returned batch.
  void on_stream_end();

  /// Everything decoded so far, in the same shape the batch
  /// Receiver::process returns: packet records, concatenated payload and
  /// aggregate counters. slots_scanned counts incremental work and may
  /// exceed the batch value (deferred head positions re-scan); all other
  /// fields match the offline parse byte for byte.
  [[nodiscard]] const ReceiverReport& report() const noexcept { return report_; }

  /// Moves the accumulated report out (the receiver is then spent).
  [[nodiscard]] ReceiverReport take_report() { return std::move(report_); }

  /// Concatenated payloads of every OK data packet reported so far.
  [[nodiscard]] const std::vector<std::uint8_t>& payload() const noexcept {
    return report_.payload;
  }

  /// Total frames ingested.
  [[nodiscard]] int frames_ingested() const noexcept { return frames_ingested_; }

  /// Decode-side counters (window size, eviction, parse cost, engine
  /// decisions).
  [[nodiscard]] const StreamingStats& stats() const noexcept { return stats_; }

  /// Slots held back from the stream head before a packet may be
  /// finalized: one camera frame period (symbol_rate_hz /
  /// frame_rate_hz) plus a small guard, so a packet straddling the
  /// inter-frame gap has had its tail arrive.
  [[nodiscard]] long long holdback_slots() const noexcept;

  /// Already-parsed slots retained behind the resume point (headroom
  /// for gap-straddling packets): one frame period.
  [[nodiscard]] long long tail_keep_slots() const noexcept;

 private:
  /// Parses the retained window from the resume point and evicts slots
  /// the parse can never revisit. `final_flush` applies end-of-stream
  /// semantics (truncated tails reported, no head holdback). Appends to
  /// report_ and returns the index of the first record this drain added.
  std::size_t drain(bool final_flush);

  /// One frame period expressed in symbol slots.
  [[nodiscard]] long long frame_period_slots() const noexcept;

  /// Slots a non-final drain must leave untouched behind the head: a
  /// slot only stops changing once a whole frame period has passed it
  /// (a later frame can fill a cell the gap left missing), and a
  /// decision at one position reads up to a full packet beyond it.
  [[nodiscard]] std::size_t head_margin_slots() const noexcept;

  /// Records per-drain stats bookkeeping shared by every drain path.
  void note_drain(double elapsed_s) noexcept;

  /// Refreshes the engine_* stats from the inner receiver's engine, on
  /// top of the accumulated pre-epoch base.
  void refresh_engine_stats() noexcept;

  /// Shared ingest tail of the push_frame and push_observations paths.
  void ingest_slots(std::span<const SlotObservation> slots);

  Receiver receiver_;
  /// Per-stream scratch arena for the frame reduction (scanline colors);
  /// reset once per pushed frame.
  util::CaptureArena arena_;
  /// Sliding window of observations. base_slot tracks eviction; valid
  /// once the first observation arrives.
  SlotTimeline window_;
  bool window_valid_ = false;
  /// Index into window_.slots the next parse resumes from.
  std::size_t resume_position_ = 0;
  /// Cold-start pre-scan cursor: the next window position the resumable
  /// calibration pre-scan examines. Stable across drains because no
  /// eviction happens while the store is uncalibrated; unused once the
  /// store completes.
  std::size_t prescan_position_ = 0;
  long long first_slot_ = 0;
  long long latest_slot_ = -1;
  long long observed_cells_ = 0;
  int frames_ingested_ = 0;
  /// Current reconfiguration epoch, stamped on every record drained.
  int epoch_ = 0;
  /// Slot span accumulated by epochs already flushed (report_.slot_span
  /// stays cumulative across begin_epoch).
  long long span_base_ = 0;
  /// Decision counters accumulated by epochs already flushed
  /// (begin_epoch replaces the receiver, and with it the live engine).
  eq::DecisionStats engine_base_;
  ReceiverReport report_;
  StreamingStats stats_;
};

}  // namespace colorbars::rx
