#include "colorbars/rx/receiver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace colorbars::rx {

using protocol::ChannelSymbol;
using protocol::SymbolKind;

Receiver::Receiver(ReceiverConfig config)
    : config_(config),
      constellation_(config.format.order),
      packetizer_(config.format, constellation_),
      code_(config.rs_n, config.rs_k),
      store_(constellation_.size(), config.matching_space),
      engine_(eq::make_engine(config.engine)) {
  // The combined start-of-packet sequences: delimiter followed by flag.
  const auto with_flag = [](const std::vector<ChannelSymbol>& flag) {
    std::vector<ChannelSymbol> prefix = protocol::delimiter_sequence();
    prefix.insert(prefix.end(), flag.begin(), flag.end());
    return prefix;
  };
  data_prefix_ = with_flag(protocol::data_flag_sequence());
  calibration_prefix_ = with_flag(protocol::calibration_flag_sequence());
  reversed_calibration_prefix_ = with_flag(protocol::reversed_calibration_flag_sequence());
  rotated_calibration_prefix_ = with_flag(protocol::rotated_calibration_flag_sequence());
}

std::size_t Receiver::scan_lookahead_slots() const noexcept {
  const std::size_t longest =
      std::max({data_prefix_.size(), calibration_prefix_.size(),
                reversed_calibration_prefix_.size(), rotated_calibration_prefix_.size()});
  return longest + 2;  // extension guard probes two slots past the prefix
}

std::size_t Receiver::max_decision_span_slots() const noexcept {
  // A committed data record reads prefix + size field + payload slots; a
  // committed calibration record reads prefix + one color slot per
  // constellation point. The extension guard probes two slots past any
  // matched prefix. Every data packet carries exactly one RS codeword,
  // so the payload span is fixed by the link's RS configuration.
  const auto size_symbols =
      static_cast<std::size_t>(protocol::size_field_symbols(config_.format.order));
  const auto payload_slots = static_cast<std::size_t>(
      packetizer_.schedule().slots_for_data(packetizer_.symbols_for_bytes(config_.rs_n)));
  const std::size_t data_span = data_prefix_.size() + size_symbols + payload_slots;
  const std::size_t calibration_span =
      std::max({calibration_prefix_.size(), reversed_calibration_prefix_.size(),
                rotated_calibration_prefix_.size()}) +
      static_cast<std::size_t>(constellation_.size());
  return std::max({data_span, calibration_span, scan_lookahead_slots()}) + 2;
}

namespace {

/// The arrival-order gap rule of assemble_timeline: the span of the
/// observations kept so far, and whether the next one is kept.
struct KeptSpan {
  long long first;
  long long last;

  bool keep(long long slot) noexcept {
    if (beyond_slot_gap(slot, first, last)) return false;
    first = std::min(first, slot);
    last = std::max(last, slot);
    return true;
  }
};

}  // namespace

SlotTimeline assemble_timeline(std::span<const SlotObservation> observations) {
  SlotTimeline timeline;
  if (observations.empty()) return timeline;

  // Two passes replay the same rule: the first sizes the timeline, the
  // second fills it with exactly the observations the first kept.
  const long long origin = observations.front().slot;
  KeptSpan span{origin, origin};
  for (const SlotObservation& observation : observations) (void)span.keep(observation.slot);
  timeline.base_slot = span.first;
  timeline.slots.resize(static_cast<std::size_t>(span.last - span.first) + 1);
  KeptSpan replay{origin, origin};
  for (const SlotObservation& observation : observations) {
    if (!replay.keep(observation.slot)) continue;
    auto& cell = timeline.slots[static_cast<std::size_t>(observation.slot -
                                                         timeline.base_slot)];
    // First writer wins: duplicate coverage can only happen at frame
    // boundaries where the earlier frame saw the fuller band.
    if (!cell.has_value()) cell = observation;
  }
  return timeline;
}

SlotTimeline Receiver::collect(std::span<const camera::Frame> frames) const {
  std::vector<SlotObservation> observations;
  for (const camera::Frame& frame : frames) {
    const std::vector<SlotObservation> frame_slots =
        extract_slots(frame, config_.symbol_rate_hz, config_.extractor);
    observations.insert(observations.end(), frame_slots.begin(), frame_slots.end());
  }
  return assemble_timeline(observations);
}

int Receiver::classify_data(const SlotTimeline& timeline, std::size_t position,
                            double* margin_out) const {
  return engine_->decide(store_, timeline.slots, position, margin_out);
}

void Receiver::train_engine(const std::vector<std::optional<ReferenceColor>>& raw_colors,
                            CalibrationVariant variant) {
  const int count = constellation_.size();
  std::vector<eq::CalibrationObservation> sequence(static_cast<std::size_t>(count));
  for (int j = 0; j < count; ++j) {
    // Color slot j of the packet carries constellation index permute(j)
    // — the same mapping permute_calibration_colors applies, expressed
    // forward so the engine sees the transmitted temporal order.
    int symbol = j;
    if (variant == CalibrationVariant::kReversed) {
      symbol = count - 1 - j;
    } else if (variant == CalibrationVariant::kRotated) {
      symbol = (count / 2 + j) % count;
    }
    sequence[static_cast<std::size_t>(j)].symbol = symbol;
    if (raw_colors[static_cast<std::size_t>(j)].has_value()) {
      sequence[static_cast<std::size_t>(j)].chroma =
          raw_colors[static_cast<std::size_t>(j)]->chroma;
    }
  }
  engine_->on_calibration(store_, sequence);
}

Receiver::SlotState Receiver::slot_state(const SlotTimeline& timeline,
                                         std::size_t position) const {
  if (position >= timeline.slots.size()) return SlotState::kMissing;
  const auto& cell = timeline.slots[position];
  if (!cell.has_value()) return SlotState::kMissing;
  return store_.is_off(*cell) ? SlotState::kOff : SlotState::kLit;
}

bool Receiver::matches_pattern(const SlotTimeline& timeline, std::size_t position,
                               std::span<const ChannelSymbol> pattern) const {
  if (position + pattern.size() > timeline.slots.size()) return false;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const SlotState state = slot_state(timeline, position + i);
    if (state == SlotState::kMissing) return false;
    const bool dark = state == SlotState::kOff;
    if (pattern[i].kind == SymbolKind::kOff && !dark) return false;
    if (pattern[i].kind != SymbolKind::kOff && dark) return false;
  }
  return true;
}

bool Receiver::extension_rules_out_longer_prefix(const SlotTimeline& timeline,
                                                 std::size_t position,
                                                 std::size_t pattern_size) const {
  // A longer alternating prefix would continue (lit, dark) at offsets
  // pattern_size and pattern_size + 1. The match stands only when both
  // slots are observed and break that continuation.
  const SlotState next = slot_state(timeline, position + pattern_size);
  const SlotState after = slot_state(timeline, position + pattern_size + 1);
  if (next == SlotState::kMissing || after == SlotState::kMissing) return false;
  return !(next == SlotState::kLit && after == SlotState::kOff);
}

ReceiverReport Receiver::process(std::span<const camera::Frame> frames) {
  return parse(collect(frames));
}

std::vector<std::optional<ReferenceColor>> Receiver::read_calibration_colors(
    const SlotTimeline& timeline, std::size_t colors_at) const {
  // The flag anchors each color's constellation index positionally, so
  // colors lost to the inter-frame gap simply stay unknown — the rest of
  // the packet is still usable (a CSK-32 calibration packet is nearly as
  // long as a frame's gap-free window, so partial reception is the
  // common case at low symbol rates).
  const int count = constellation_.size();
  std::vector<std::optional<ReferenceColor>> colors(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::size_t at = colors_at + static_cast<std::size_t>(i);
    if (at >= timeline.slots.size()) break;
    const auto& cell = timeline.slots[at];
    if (cell.has_value() && !store_.is_off(*cell)) {
      colors[static_cast<std::size_t>(i)] = ReferenceColor::from(*cell);
    }
  }
  return colors;
}

namespace {

int observed_color_count(const std::vector<std::optional<ReferenceColor>>& colors) {
  int count = 0;
  for (const auto& color : colors) count += color.has_value() ? 1 : 0;
  return count;
}

}  // namespace

std::optional<Receiver::CalibrationMatch> Receiver::match_calibration(
    const SlotTimeline& timeline, std::size_t position) const {
  struct VariantEntry {
    CalibrationVariant variant;
    const std::vector<ChannelSymbol>* prefix;
    bool needs_extension_guard;
  };
  // Longest pattern first: each shorter prefix is a strict prefix of the
  // longer ones, so testing in descending length (plus the extension
  // guard against gap truncation) disambiguates.
  const VariantEntry variants[] = {
      {CalibrationVariant::kRotated, &rotated_calibration_prefix_, false},
      {CalibrationVariant::kReversed, &reversed_calibration_prefix_, true},
      {CalibrationVariant::kForward, &calibration_prefix_, true},
  };
  for (const VariantEntry& entry : variants) {
    if (!matches_pattern(timeline, position, *entry.prefix)) continue;
    if (entry.needs_extension_guard &&
        !extension_rules_out_longer_prefix(timeline, position, entry.prefix->size())) {
      continue;
    }
    return CalibrationMatch{entry.variant, entry.prefix};
  }
  return std::nullopt;
}

void Receiver::permute_calibration_colors(
    std::vector<std::optional<ReferenceColor>>& colors, CalibrationVariant variant) const {
  if (variant == CalibrationVariant::kForward) return;
  const int color_count = constellation_.size();
  std::vector<std::optional<ReferenceColor>> out(colors.size());
  for (int j = 0; j < color_count; ++j) {
    const int index = variant == CalibrationVariant::kReversed
                          ? color_count - 1 - j
                          : (color_count / 2 + j) % color_count;
    out[static_cast<std::size_t>(index)] = colors[static_cast<std::size_t>(j)];
  }
  colors = std::move(out);
}

int Receiver::absorb_calibration_packet(const SlotTimeline& timeline, std::size_t position,
                                        const CalibrationMatch& match) {
  const auto raw = read_calibration_colors(timeline, position + match.prefix->size());
  auto colors = raw;
  permute_calibration_colors(colors, match.variant);
  const int observed = observed_color_count(colors);
  if (observed > 0) {
    store_.absorb_calibration_partial(colors);
    // Train after absorption so the engine's reference prior sees the
    // freshly blended store.
    train_engine(raw, match.variant);
  }
  return observed;
}

std::size_t Receiver::prescan_calibration(const SlotTimeline& timeline, std::size_t from,
                                          std::size_t limit) {
  limit = std::min(limit, timeline.slots.size());
  std::size_t position = from;
  for (; position < limit && !store_.calibrated(); ++position) {
    const std::optional<CalibrationMatch> entry = match_calibration(timeline, position);
    if (entry.has_value()) (void)absorb_calibration_packet(timeline, position, *entry);
  }
  return position;
}

ReceiverReport Receiver::parse(const SlotTimeline& timeline) {
  ReceiverReport report;
  report.slots_observed = static_cast<long long>(timeline.observed_count());
  report.slot_span = static_cast<long long>(timeline.slots.size());
  // Cold-start pre-scan: the capture is decoded offline (as the paper
  // does for its iPhone receiver), so data packets that precede the
  // first *intact* calibration packet can still be demodulated against
  // it. Find and absorb the earliest calibration packets before the
  // sequential parse; later calibration packets refresh the store as
  // they are reached.
  (void)prescan_calibration(timeline, 0, timeline.slots.size());
  (void)parse_from(timeline, 0, timeline.slots.size(), report, /*final_flush=*/true);
  return report;
}

std::size_t Receiver::parse_from(const SlotTimeline& timeline, std::size_t start_position,
                                 std::size_t limit_position, ReceiverReport& report,
                                 bool final_flush) {
  const std::size_t end = timeline.slots.size();
  limit_position = std::min(limit_position, end);
  if (start_position >= end) return final_flush ? end : start_position;

  const std::vector<ChannelSymbol>& data_prefix = data_prefix_;
  const int size_symbols = protocol::size_field_symbols(config_.format.order);
  const auto& schedule = packetizer_.schedule();
  const int bits = constellation_.bits();

  std::size_t position = start_position;
  while (position < end) {
    // In incremental mode, stop before the head region: conclusions
    // there could be invalidated by slots that arrive with later frames.
    if (!final_flush && position >= limit_position) break;
    ++report.slots_scanned;
    // Longest pattern first: each shorter prefix is a strict prefix of
    // the longer ones, so testing in descending length (plus the
    // extension guard against gap truncation) disambiguates.
    const std::optional<CalibrationMatch> calibration_entry =
        match_calibration(timeline, position);
    const bool data_here = !calibration_entry.has_value() &&
                           matches_pattern(timeline, position, data_prefix) &&
                           extension_rules_out_longer_prefix(timeline, position,
                                                             data_prefix.size());
    if (!calibration_entry.has_value() && !data_here) {
      ++position;
      continue;
    }

    if (calibration_entry.has_value()) {
      const std::size_t colors_at = position + calibration_entry->prefix->size();
      // Defer a packet whose color block extends past the head: the
      // missing colors may still arrive with the next frame. Deferral
      // precedes any absorption so the packet is absorbed exactly once.
      if (!final_flush &&
          colors_at + static_cast<std::size_t>(constellation_.size()) > end) {
        break;
      }
      PacketRecord record;
      record.kind = protocol::PacketKind::kCalibration;
      record.start_slot = timeline.base_slot + static_cast<long long>(position);
      const int observed = absorb_calibration_packet(timeline, position, *calibration_entry);
      if (observed > 0) {
        record.ok = true;
        record.erased_slots = constellation_.size() - observed;
        ++report.calibration_packets;
        position = colors_at + static_cast<std::size_t>(constellation_.size());
      } else {
        record.failure = PacketFailure::kHeaderLost;
        position += calibration_entry->prefix->size();
      }
      report.packets.push_back(std::move(record));
      continue;
    }

    // Data packet. Defer when the header could still be completed by
    // slots past the current head.
    const std::size_t header_end = position + data_prefix.size() +
                                   static_cast<std::size_t>(size_symbols);
    if (!final_flush && header_end > end) break;
    PacketRecord record;
    record.kind = protocol::PacketKind::kData;
    record.start_slot = timeline.base_slot + static_cast<long long>(position);

    if (!store_.has_any_reference()) {
      record.failure = PacketFailure::kNotCalibrated;
      ++report.data_packets_failed;
      report.packets.push_back(std::move(record));
      position += data_prefix.size();
      continue;
    }

    // Size field: every slot must be an observed, lit band.
    const std::size_t size_at = position + data_prefix.size();
    if (size_at + static_cast<std::size_t>(size_symbols) > end) {
      record.failure = PacketFailure::kTruncated;
      ++report.data_packets_failed;
      report.packets.push_back(std::move(record));
      break;
    }
    std::vector<ChannelSymbol> size_field;
    bool header_ok = true;
    for (int i = 0; i < size_symbols; ++i) {
      const auto& cell = timeline.slots[size_at + static_cast<std::size_t>(i)];
      if (!cell.has_value() || store_.is_off(*cell)) {
        header_ok = false;
        break;
      }
      size_field.push_back(ChannelSymbol::data(
          classify_data(timeline, size_at + static_cast<std::size_t>(i))));
    }
    const std::optional<int> payload_symbols =
        header_ok ? protocol::decode_size_field(size_field, config_.format.order)
                  : std::nullopt;
    // Validate the size against the link's RS configuration: every data
    // packet carries exactly one codeword, so a mismatching size means a
    // corrupted header. Without this check a misread size field would
    // make the parser swallow the following packets as "payload".
    const int expected_symbols = packetizer_.symbols_for_bytes(config_.rs_n);
    if (!payload_symbols.has_value() || *payload_symbols != expected_symbols) {
      record.failure = PacketFailure::kHeaderLost;
      ++report.data_packets_failed;
      report.packets.push_back(std::move(record));
      // Resync by rescanning from the next slot: a real delimiter can
      // begin *inside* the misread header region (the "delimiter" here
      // may have been noise), and jumping past the size field would
      // silently skip the packet it starts.
      ++position;
      continue;
    }

    // Payload region: a fixed number of slots derived from the size field
    // (the white-insertion schedule is deterministic on both sides).
    const int payload_slots = schedule.slots_for_data(*payload_symbols);
    const std::size_t payload_at = size_at + static_cast<std::size_t>(size_symbols);
    // Defer a body that runs past the head: its tail can arrive with the
    // next frame.
    if (!final_flush && payload_at + static_cast<std::size_t>(payload_slots) > end) break;
    if (payload_at + static_cast<std::size_t>(payload_slots) > end) {
      record.failure = PacketFailure::kTruncated;
      ++report.data_packets_failed;
      report.packets.push_back(std::move(record));
      break;
    }

    // Strip white slots positionally; record gap-erased data slots.
    std::vector<int> symbol_indices;          // classified payload data symbols
    std::vector<bool> symbol_erased;          // per data symbol
    symbol_indices.reserve(static_cast<std::size_t>(*payload_symbols));
    symbol_erased.reserve(static_cast<std::size_t>(*payload_symbols));
    for (int slot = 0; slot < payload_slots; ++slot) {
      if (schedule.is_white_slot(slot)) continue;
      const auto& cell = timeline.slots[payload_at + static_cast<std::size_t>(slot)];
      if (!cell.has_value()) {
        symbol_indices.push_back(0);
        symbol_erased.push_back(true);
        ++record.erased_slots;
      } else {
        double margin = -1.0;
        symbol_indices.push_back(classify_data(
            timeline, payload_at + static_cast<std::size_t>(slot), &margin));
        symbol_erased.push_back(false);
        if (margin >= 0.0) {
          report.decision_margin_sum += margin;
          ++report.decision_margin_count;
        }
      }
    }

    // Map symbols to the RS codeword bytes; a byte is an erasure if any
    // of the symbols contributing its bits was erased.
    const csk::SymbolMapper& mapper = packetizer_.mapper();
    const std::size_t byte_count =
        static_cast<std::size_t>(symbol_indices.size()) * static_cast<std::size_t>(bits) / 8;
    const std::vector<std::uint8_t> bytes =
        mapper.unmap_symbols(symbol_indices, byte_count);
    std::vector<int> byte_erasures;
    for (std::size_t byte = 0; byte < byte_count; ++byte) {
      const std::size_t first_bit = byte * 8;
      const std::size_t last_bit = first_bit + 7;
      const std::size_t first_symbol = first_bit / static_cast<std::size_t>(bits);
      const std::size_t last_symbol = last_bit / static_cast<std::size_t>(bits);
      for (std::size_t s = first_symbol; s <= last_symbol && s < symbol_erased.size(); ++s) {
        if (symbol_erased[s]) {
          byte_erasures.push_back(static_cast<int>(byte));
          break;
        }
      }
    }

    if (static_cast<int>(byte_count) != code_.n()) {
      // Size field got corrupted into a different (but decodable) value.
      record.failure = PacketFailure::kHeaderLost;
      ++report.data_packets_failed;
      report.packets.push_back(std::move(record));
      position = payload_at;
      continue;
    }

    const rs::DecodeResult decoded =
        config_.use_erasure_decoding ? code_.decode(bytes, byte_erasures)
                                     : code_.decode(bytes);
    if (decoded.ok()) {
      record.ok = true;
      record.payload = decoded.message;
      record.corrected_errors = decoded.corrected_errors;
      record.corrected_erasures = decoded.corrected_erasures;
      report.payload.insert(report.payload.end(), decoded.message.begin(),
                            decoded.message.end());
      ++report.data_packets_ok;
    } else {
      record.failure = PacketFailure::kRsFailure;
      ++report.data_packets_failed;
    }
    report.packets.push_back(std::move(record));
    position = payload_at + static_cast<std::size_t>(payload_slots);
  }

  // A final flush consumes the timeline outright (truncated tails were
  // reported); an incremental pass resumes exactly where it stopped.
  return final_flush ? end : position;
}

}  // namespace colorbars::rx
