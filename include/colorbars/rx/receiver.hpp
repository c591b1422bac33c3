#pragma once

// Stream-level ColorBars receiver (paper §7). Consumes the frames of a
// video capture, projects every detected band onto the global
// symbol-slot timeline, finds packet delimiters/flags, absorbs
// calibration packets, and decodes data packets through positional
// white-stripping and Reed-Solomon error/erasure correction. Slots that
// fall into the camera's inter-frame gap are simply never observed;
// they surface as erasures inside whatever packet spans the gap.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "colorbars/camera/image.hpp"
#include "colorbars/eq/engine.hpp"
#include "colorbars/protocol/packetizer.hpp"
#include "colorbars/rs/reed_solomon.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/rx/calibration_store.hpp"

namespace colorbars::rx {

/// Everything the receiver must know a priori (modulation settings are
/// link configuration; the camera timing is the receiver's own device).
struct ReceiverConfig {
  protocol::FrameFormat format{};
  double symbol_rate_hz = 2000.0;
  /// Video frame rate of the receiving camera. Streaming consumers use
  /// it to convert one frame period into symbol slots (head holdback,
  /// eviction tail); it does not affect offline parsing.
  double frame_rate_hz = 30.0;
  /// RS code dimensions the transmitter uses for data packets.
  int rs_n = 64;
  int rs_k = 32;
  ExtractorConfig extractor{};
  ClassifierConfig classifier{};
  /// Declare gap-lost payload slots as RS erasures (paper §7: the size
  /// field plus the band count locate the loss). Disabling falls back to
  /// blind error decoding — the paper's literal 2t formula — and roughly
  /// halves the recoverable loss. Ablation knob.
  bool use_erasure_decoding = true;
  /// Symbol-decision engine. The default nearest-reference engine is
  /// byte-identical to the pre-seam receiver; the equalized engines
  /// (eq::EngineKind::kLinearMmse / kFrequencyDomain) invert the
  /// rolling-shutter ISI and are what makes CSK64 decodable.
  eq::EngineConfig engine{};
};

/// The dense slot timeline assembled from a set of frames.
struct SlotTimeline {
  long long base_slot = 0;
  std::vector<std::optional<SlotObservation>> slots;

  [[nodiscard]] std::size_t observed_count() const noexcept {
    std::size_t count = 0;
    for (const auto& slot : slots) count += slot.has_value() ? 1 : 0;
    return count;
  }
};

/// Why a packet attempt was abandoned.
enum class PacketFailure {
  kNone,
  kHeaderLost,        ///< flag or size field hit the gap / was unreadable
  kNotCalibrated,     ///< data packet arrived before any calibration packet
  kRsFailure,         ///< too many errors+erasures for the RS code
  kTruncated,         ///< stream ended mid-packet
};

/// Outcome of one parsed packet.
struct PacketRecord {
  protocol::PacketKind kind = protocol::PacketKind::kData;
  bool ok = false;
  PacketFailure failure = PacketFailure::kNone;
  long long start_slot = 0;
  /// Reconfiguration epoch the packet decoded under (always 0 for the
  /// batch Receiver; StreamingReceiver stamps its current epoch).
  int epoch = 0;
  std::vector<std::uint8_t> payload;  ///< decoded message bytes (data packets)
  int corrected_errors = 0;
  int corrected_erasures = 0;
  int erased_slots = 0;  ///< payload slots lost to the inter-frame gap
};

/// Aggregate result of processing a capture.
struct ReceiverReport {
  std::vector<PacketRecord> packets;
  std::vector<std::uint8_t> payload;  ///< concatenated payloads of good packets
  long long slots_observed = 0;
  long long slot_span = 0;            ///< first-to-last observed slot distance
  long long slots_scanned = 0;        ///< scan-loop positions examined
  int calibration_packets = 0;
  int data_packets_ok = 0;
  int data_packets_failed = 0;
  /// Sum/count of per-slot ΔE decision margins (runner-up minus best
  /// reference distance) over every classified payload slot — the
  /// confidence signal adapt::LinkMonitor folds into its link-quality
  /// estimate. Accumulated only in the payload loop, which runs exactly
  /// once per committed packet, so streamed and batch parses agree.
  double decision_margin_sum = 0.0;
  long long decision_margin_count = 0;
};

/// The longest run of unobserved slots a receiver bridges: 2^16 slots,
/// 16 s at 4 kHz. Both receivers take observations in arrival order
/// and drop one that lies more than this many slots outside the slots
/// kept before it, so a frame with a far-off start time (a hostile or
/// corrupt timestamp) cannot make them allocate a cell for every slot
/// in between: a frame 10^5 s after the first at 4 kHz would ask for
/// 4 x 10^8 cells, 26 GB. A capture with a longer hole decodes up to
/// the hole.
inline constexpr long long kMaxSlotGap = 1LL << 16;

/// True when `slot` lies more than kMaxSlotGap slots outside
/// [first, last]. Exact for every long long, with no overflow.
[[nodiscard]] constexpr bool beyond_slot_gap(long long slot, long long first,
                                             long long last) noexcept {
  using U = unsigned long long;
  if (slot > last) return U(slot) - U(last) > U(kMaxSlotGap);
  if (slot < first) return U(first) - U(slot) > U(kMaxSlotGap);
  return false;
}

/// Assembles a dense slot timeline from observations in arrival order:
/// base_slot is the earliest slot kept, span covers earliest→latest, and
/// the first observation of a slot wins (duplicate coverage only happens
/// at frame boundaries, where the earlier frame saw the fuller band).
/// An observation beyond kMaxSlotGap of the ones kept before it is
/// dropped. This is the batch Receiver::collect back end, exposed so
/// streaming consumers that gather observations frame by frame build
/// the exact same timeline.
[[nodiscard]] SlotTimeline assemble_timeline(std::span<const SlotObservation> observations);

class Receiver {
 public:
  explicit Receiver(ReceiverConfig config);

  [[nodiscard]] const ReceiverConfig& config() const noexcept { return config_; }
  [[nodiscard]] const CalibrationStore& store() const noexcept { return store_; }
  [[nodiscard]] CalibrationStore& store() noexcept { return store_; }

  /// Front end: builds the dense slot timeline from captured frames.
  [[nodiscard]] SlotTimeline collect(std::span<const camera::Frame> frames) const;

  /// Full pipeline: collect + parse + decode.
  [[nodiscard]] ReceiverReport process(std::span<const camera::Frame> frames);

  /// Parses an already-collected timeline (exposed for tests and for
  /// experiments that inspect the timeline).
  [[nodiscard]] ReceiverReport parse(const SlotTimeline& timeline);

  /// Resumable incremental parse (the streaming path). Scans
  /// `timeline.slots` from `start_position`, appending packet records
  /// and counters to `report`, and returns the position a later call
  /// must resume from so no position is ever scanned twice.
  ///
  /// With `final_flush` false the scan assumes slots past the timeline
  /// head may still arrive: it stops before `limit_position` (callers
  /// must keep `limit_position` at least max_decision_span_slots()
  /// behind the last *final* slot so every conclusion — "no packet
  /// starts here" as well as every classified color — is final), and
  /// defers any matched packet whose body extends past the head instead
  /// of reporting it truncated. With `final_flush` true it runs to the
  /// end with offline semantics (truncated packets are reported) and
  /// returns `timeline.slots.size()`.
  ///
  /// It runs no calibration pre-scan: parse() runs one over the whole
  /// timeline first, and StreamingReceiver threads its own cursor
  /// through prescan_calibration (re-scanning on every call would
  /// re-absorb the same partials in a different blend order than the
  /// offline pass).
  std::size_t parse_from(const SlotTimeline& timeline, std::size_t start_position,
                         std::size_t limit_position, ReceiverReport& report,
                         bool final_flush);

  /// Cold-start calibration pre-scan: scans `[from, limit)` for
  /// calibration packets and absorbs each matching partial once, in
  /// order, stopping as soon as the store is fully calibrated. This is
  /// what lets data packets that *precede* the first intact calibration
  /// packet still be demodulated (the capture is decoded offline, as the
  /// paper does for its iPhone receiver). Returns the next position a
  /// resumed pre-scan must continue from; incremental callers thread
  /// that cursor through so the absorption sequence is byte-identical to
  /// one offline pass over the full capture.
  std::size_t prescan_calibration(const SlotTimeline& timeline, std::size_t from,
                                  std::size_t limit);

  /// Slots a scan decision at one position may probe beyond it (the
  /// longest start-of-packet prefix plus the extension guard). The
  /// incremental-parse limit must stay this far behind the stream head.
  [[nodiscard]] std::size_t scan_lookahead_slots() const noexcept;

  /// Worst-case slots a parse decision at one position may read beyond
  /// it before committing a record: a full data packet (prefix + size
  /// field + payload slots) or a full calibration packet, plus the
  /// extension guard. Incremental callers must keep their parse limit
  /// this far behind the last final slot so a committed record never
  /// reads a cell a later frame could still fill in.
  [[nodiscard]] std::size_t max_decision_span_slots() const noexcept;

  /// Classifies the slot at `position` of the timeline against the
  /// current calibration, restricted to data symbols (size fields and
  /// payload slots, where the schedule says the slot cannot be
  /// white/off), through the configured decision engine, which may read
  /// the trailing slots as FIR context. `timeline.slots[position]` must
  /// be an observed cell. With `margin_out` non-null, stores the
  /// decision margin: the runner-up reference distance minus the best
  /// one (-1 when fewer than two references are available).
  [[nodiscard]] int classify_data(const SlotTimeline& timeline, std::size_t position,
                                  double* margin_out = nullptr) const;

  /// The decision engine behind classify_data (for stats readout).
  [[nodiscard]] const eq::DecisionEngine& engine() const noexcept { return *engine_; }

 private:
  /// Observation state of one timeline slot.
  enum class SlotState { kMissing, kOff, kLit };

  /// Calibration flag variants. Color slot j of a packet carries
  /// constellation index permute(j).
  enum class CalibrationVariant { kRotated, kReversed, kForward };
  struct CalibrationMatch {
    CalibrationVariant variant;
    const std::vector<protocol::ChannelSymbol>* prefix;
  };

  /// Finds a calibration-variant match at `position`, longest pattern
  /// first (each shorter prefix is a strict prefix of the longer ones;
  /// the extension guard disambiguates gap truncation).
  [[nodiscard]] std::optional<CalibrationMatch> match_calibration(
      const SlotTimeline& timeline, std::size_t position) const;

  /// Reorders raw color slots into constellation order for the variant.
  void permute_calibration_colors(std::vector<std::optional<ReferenceColor>>& colors,
                                  CalibrationVariant variant) const;

  [[nodiscard]] SlotState slot_state(const SlotTimeline& timeline,
                                     std::size_t position) const;

  /// True if the timeline matches `pattern` at `position` (O = dark band
  /// present, W = lit band present; any missing slot fails the match).
  [[nodiscard]] bool matches_pattern(const SlotTimeline& timeline, std::size_t position,
                                     std::span<const protocol::ChannelSymbol> pattern) const;

  /// Guard against prefix masquerading: every shorter flag pattern is a
  /// strict prefix of the longer ones, so a gap-truncated longer prefix
  /// can impersonate a shorter one. A match of a pattern of length N is
  /// only accepted when slots N and N+1 after `position` prove it is NOT
  /// the continuation of a longer alternating prefix — i.e. they are
  /// observed and not (lit, dark). Missing slots are ambiguous and
  /// reject the match (the packet would be undecodable anyway).
  [[nodiscard]] bool extension_rules_out_longer_prefix(const SlotTimeline& timeline,
                                                       std::size_t position,
                                                       std::size_t pattern_size) const;

  /// Learns the white reference from the W slots of a matched pattern.
  void absorb_pattern_white(const SlotTimeline& timeline, std::size_t position,
                            std::span<const protocol::ChannelSymbol> pattern);

  /// Reads the constellation-size color sequence of a calibration packet
  /// starting at `colors_at`; colors lost to the gap are left empty.
  [[nodiscard]] std::vector<std::optional<ReferenceColor>> read_calibration_colors(
      const SlotTimeline& timeline, std::size_t colors_at) const;

  /// Forwards one absorbed calibration packet to the decision engine as
  /// training data: `raw_colors` in slot order (pre-permutation, so the
  /// temporal structure the equalizer fits is preserved) with the known
  /// transmitted constellation index of each slot under `variant`.
  void train_engine(const std::vector<std::optional<ReferenceColor>>& raw_colors,
                    CalibrationVariant variant);

  ReceiverConfig config_;
  csk::Constellation constellation_;
  protocol::Packetizer packetizer_;
  rs::ReedSolomon code_;
  CalibrationStore store_;
  /// Pluggable symbol-decision engine (never null). unique_ptr makes
  /// Receiver move-only, which every holder already honors.
  std::unique_ptr<eq::DecisionEngine> engine_;
  /// Start-of-packet sequences (delimiter + flag), built once.
  std::vector<protocol::ChannelSymbol> data_prefix_;
  std::vector<protocol::ChannelSymbol> calibration_prefix_;
  std::vector<protocol::ChannelSymbol> reversed_calibration_prefix_;
  std::vector<protocol::ChannelSymbol> rotated_calibration_prefix_;
};

}  // namespace colorbars::rx
