#pragma once

// Calibration store (paper §6-§7). The receiver keeps the most recent
// reference color for every constellation symbol, learned from the
// transmitter's periodic calibration packets, and the OFF test that
// packet framing needs before any calibration. Because the references
// come through the *same* camera as the data, device color-response
// skew and current exposure/ISO settings cancel out — this is the
// paper's answer to receiver diversity. The symbol decision itself is
// eq::DecisionEngine's (nearest reference under this store's metric),
// and the illumination schedule places the white slots.
//
// The matching space is configurable: the production choice is the
// CIELab (a,b) plane with lightness removed (paper §7); RGB-space
// matching — the "naive way" the paper dismisses in §6.1 — is provided
// for the ablation bench that validates that design decision.

#include <optional>
#include <vector>

#include "colorbars/color/lab.hpp"
#include "colorbars/eq/state.hpp"
#include "colorbars/rx/band_extractor.hpp"

namespace colorbars::rx {

/// Color space / metric used to match observations to references.
enum class MatchingSpace {
  kCielabAB,  ///< ΔE (CIE76) in the (a,b) plane, lightness removed — default
  kCielab94,  ///< ΔE (CIE94) over (L, a, b) — perceptual weighting
  kRgb,       ///< Euclidean distance in gamma-encoded RGB (the §6.1 baseline)
};

/// One learned reference color (everything needed by any metric).
struct ReferenceColor {
  color::ChromaAB chroma;
  double lightness = 0.0;
  util::Vec3 rgb;

  [[nodiscard]] static ReferenceColor from(const SlotObservation& observation) {
    return {observation.chroma, observation.lightness, observation.rgb};
  }
};

/// Lightness below which a band may be the LED-OFF symbol. Exposure
/// blur from the lit neighbors brightens a single-slot OFF band well
/// above true darkness at high symbol rates, so the threshold sits
/// midway between blurred-OFF (~L 35) and WHITE (~L 60); the chroma
/// guard below keeps dim saturated colors out.
inline constexpr double kOffLightness = 37.0;
/// Chroma magnitude above which a dim band is a saturated color (deep
/// blue symbols are dim but strongly chromatic) rather than OFF.
inline constexpr double kOffMaxChroma = 25.0;

class CalibrationStore {
 public:
  CalibrationStore(int symbol_count,
                   MatchingSpace matching_space = MatchingSpace::kCielabAB);

  /// True once every constellation reference has been learned; until
  /// then data symbols cannot be classified (paper §6: a new receiver
  /// waits for calibration). References may accumulate across several
  /// partially-observed calibration packets — a calibration packet can
  /// itself straddle the inter-frame gap, and the flag anchors each
  /// color's index positionally, so the observed subset is still valid.
  [[nodiscard]] bool calibrated() const noexcept;

  /// True once any reference is known — enough to *attempt* data
  /// demodulation (Reed-Solomon rejects packets whose symbols were
  /// classified against an insufficient reference set).
  [[nodiscard]] bool has_any_reference() const noexcept;

  [[nodiscard]] int symbol_count() const noexcept {
    return static_cast<int>(references_.size());
  }

  [[nodiscard]] MatchingSpace matching_space() const noexcept { return matching_space_; }

  /// Absorbs a partially-observed calibration packet: entries without a
  /// value (lost to the inter-frame gap) leave the existing reference
  /// untouched; present entries blend 50/50 with any existing value.
  /// Must have exactly symbol_count() entries.
  void absorb_calibration_partial(const std::vector<std::optional<ReferenceColor>>& colors);

  /// Reference chroma of symbol `index`; nullopt before calibration.
  [[nodiscard]] std::optional<color::ChromaAB> reference(int index) const;

  /// Full reference color of symbol `index` (all matching spaces).
  [[nodiscard]] std::optional<ReferenceColor> reference_color(int index) const;

  /// Distance between an observation and a reference under the
  /// configured matching space.
  [[nodiscard]] double distance(const SlotObservation& observation,
                                const ReferenceColor& reference) const noexcept;

  /// True if the observation is the OFF symbol (dark band). This works
  /// without calibration — the paper's flags rely on it. Dim but
  /// strongly chromatic bands (deep blue) are not OFF.
  [[nodiscard]] static bool is_off(const SlotObservation& observation) noexcept {
    return observation.lightness < kOffLightness &&
           color::delta_e_ab(observation.chroma, {0.0, 0.0}) < kOffMaxChroma;
  }

  /// Equalizer state fit by an eq::DecisionEngine from the same
  /// calibration packets that populate the references. It lives here —
  /// not in the engine — so the taps travel with the references they
  /// deconvolve (streaming epoch handoffs, store copies).
  [[nodiscard]] eq::EqualizerState& equalizer() noexcept { return equalizer_; }
  [[nodiscard]] const eq::EqualizerState& equalizer() const noexcept {
    return equalizer_;
  }

 private:
  MatchingSpace matching_space_;
  std::vector<std::optional<ReferenceColor>> references_;
  eq::EqualizerState equalizer_{};
};

}  // namespace colorbars::rx
