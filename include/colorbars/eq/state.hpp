#pragma once

// Plain-data state and configuration of the pluggable symbol-decision
// engines (the colorbars::eq subsystem). Split from engine.hpp so lower
// layers can speak the engine vocabulary without pulling in the rx
// headers: rx::CalibrationStore embeds an EqualizerState (the taps live
// alongside the references they equalize), and adapt::default_ladder
// keys its top rungs on the EngineKind — neither needs the engine
// interface itself.

#include <cmath>
#include <cstdint>
#include <vector>

#include "colorbars/color/lab.hpp"
#include "colorbars/csk/constellation.hpp"

namespace colorbars::eq {

/// Which symbol-decision engine classifies data slots.
enum class EngineKind {
  /// The paper's per-band nearest-reference ΔE scan — byte-identical to
  /// the pre-seam receiver, and the fallback every other engine degrades
  /// to when its taps are unavailable.
  kNearestReference,
  /// Linear ZF/MMSE equalizer: a causal FIR inverse of the channel taps
  /// estimated from the calibration preamble, designed in the time
  /// domain by regularized least squares.
  kLinearMmse,
  /// Same estimated channel, equalizer designed in the frequency domain
  /// (Singh et al.: per-bin MMSE inversion of the DFT of the impulse
  /// response, then truncated back to FIR taps).
  kFrequencyDomain,
};

/// "nearest" / "mmse" / "freq" — for logs and bench labels.
[[nodiscard]] const char* engine_name(EngineKind kind) noexcept;

/// Highest constellation order an engine is expected to sustain (the
/// adapt ladder only offers CSK32/CSK64 rungs to engines that can decode
/// them): the nearest-reference scan tops out at the paper's CSK32,
/// the equalized engines extend to CSK64.
[[nodiscard]] csk::CskOrder max_supported_order(EngineKind kind) noexcept;

/// Engine selection plus estimation/design knobs. The default is the
/// nearest-reference engine, which keeps every existing configuration
/// byte-identical to the pre-seam receiver.
struct EngineConfig {
  EngineKind kind = EngineKind::kNearestReference;
  /// Channel impulse-response taps the calibration fit estimates (L).
  int channel_taps = 3;
  /// FIR equalizer taps applied per decision (M).
  int equalizer_taps = 8;
  /// MMSE diagonal loading for the tap estimation and inverse design;
  /// also the frequency-domain per-bin noise floor.
  double mmse_lambda = 1e-3;
  /// DFT length of the frequency-domain design (>= channel_taps +
  /// equalizer_taps).
  int dft_size = 32;
  /// Guard: reject equalizers whose tap L2 norm exceeds this (a
  /// near-singular channel fit explodes the inverse).
  double max_tap_norm = 32.0;
  /// Tikhonov pull of the deconvolved references toward the raw learned
  /// references (regularizes symbols that a partial calibration packet
  /// never showed in full context).
  double reference_prior = 0.25;
  /// Alternating-least-squares refinement rounds per calibration packet.
  int train_iterations = 3;

  /// Throws std::invalid_argument when a knob is out of range.
  void validate() const;
};

/// Equalizer state learned from calibration packets, stored in
/// rx::CalibrationStore alongside the references it deconvolves.
struct EqualizerState {
  /// True once a tap estimation succeeded; until then (and whenever an
  /// estimation is rejected as ill-conditioned) equalized engines fall
  /// back to the nearest-reference decision.
  bool valid = false;
  /// Estimated channel impulse response in chroma space (c, causal,
  /// c[0] = direct path).
  std::vector<double> channel_taps;
  /// FIR equalizer taps (w, causal — applied to the observation at the
  /// decision slot and its predecessors).
  std::vector<double> equalizer_taps;
  /// Deconvolved per-symbol reference chromas (the "clean" constellation
  /// the equalized observation is matched against).
  std::vector<color::ChromaAB> references;
  /// Successful tap (re-)estimations absorbed.
  long long retrains = 0;
  /// Estimations rejected by the ill-conditioning guard (singular
  /// normal equations, non-finite taps, exploding inverse). The engine
  /// keeps its previous taps — never NaN — and decisions fall back to
  /// nearest-reference while valid stays false.
  long long train_fallbacks = 0;

  /// L2 norm of the equalizer taps (0 when no equalizer is loaded).
  [[nodiscard]] double tap_norm() const noexcept {
    double sum = 0.0;
    for (const double w : equalizer_taps) sum += w * w;
    return std::sqrt(sum);
  }
};

/// Per-engine decision counters (margin sum and count, plus how often
/// the engine had to decide without equalization).
struct DecisionStats {
  long long decisions = 0;
  /// Decisions taken on the nearest-reference fallback path (taps not
  /// valid, or the FIR context window was incomplete — capture start,
  /// evicted tail, missing neighbor slot).
  long long fallback_decisions = 0;
  double margin_sum = 0.0;
  long long margin_count = 0;
};

}  // namespace colorbars::eq
