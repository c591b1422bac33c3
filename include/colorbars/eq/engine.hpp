#pragma once

// The pluggable symbol-decision seam between slot observation and
// symbol decision. The receiver used to hard-code the nearest-reference
// ΔE scan; it now owns a DecisionEngine and asks it to decide each data
// slot, passing the surrounding timeline so equalizing engines can see
// the trailing context their FIR taps need. The default engine
// (kNearestReference) reproduces the old scan byte-for-byte — same
// reference iteration order, same SIMD batch path, same tie-breaking —
// so every frozen golden hash and determinism suite is unchanged.
//
// Engines also get a calibration hook: the receiver forwards every
// absorbed calibration packet (the known transmitted symbol sequence
// plus the observed chromas) and equalizing engines fit their channel
// taps from it, storing the result in the CalibrationStore next to the
// references it deconvolves.

#include <memory>
#include <optional>
#include <span>

#include "colorbars/eq/state.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/rx/calibration_store.hpp"

namespace colorbars::eq {

/// One slot of equalizer training data: the symbol the transmitter sent
/// (known from the calibration packet's structure) and the chroma the
/// receiver observed for it — absent when the slot fell into the
/// inter-frame gap.
struct CalibrationObservation {
  int symbol = 0;
  std::optional<color::ChromaAB> chroma;
};

/// Interface between slot observation and symbol decision. Engines are
/// stateless across packets except through the CalibrationStore they are
/// handed (taps + references live there, so a streaming epoch handoff
/// carries them automatically) and their own DecisionStats counters.
class DecisionEngine {
 public:
  virtual ~DecisionEngine() = default;

  [[nodiscard]] virtual EngineKind kind() const noexcept = 0;

  /// Absorbs one calibration packet worth of training data. Called after
  /// the store has absorbed the same packet's references. Default: no-op
  /// (the nearest-reference engine learns nothing beyond the store).
  virtual void on_calibration(rx::CalibrationStore& store,
                              std::span<const CalibrationObservation> sequence);

  /// Decides the data symbol at `position` of a slot window.
  /// `window[position]` is guaranteed present; earlier cells provide the
  /// FIR context and may be absent (capture start, inter-frame gap) —
  /// engines must degrade gracefully, falling back to the
  /// nearest-reference decision for that slot. Returns the constellation
  /// index; when `margin_out` is non-null, stores second-minus-best
  /// distance (-1 when fewer than two references were comparable).
  [[nodiscard]] virtual int decide(
      const rx::CalibrationStore& store,
      std::span<const std::optional<rx::SlotObservation>> window,
      std::size_t position, double* margin_out) const = 0;

  [[nodiscard]] const DecisionStats& stats() const noexcept { return stats_; }

 protected:
  /// Records one decision's margin into the stats (call from decide()).
  void note_decision(double margin, bool fallback) const noexcept;

  /// decide() is const (classification must not mutate decode state) but
  /// the counters are observability, not state — mutable keeps the
  /// interface honest.
  mutable DecisionStats stats_;
};

/// Builds the engine selected by `config` (validates it first).
[[nodiscard]] std::unique_ptr<DecisionEngine> make_engine(const EngineConfig& config);

}  // namespace colorbars::eq
