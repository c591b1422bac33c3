#include "colorbars/eq/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "colorbars/simd/simd.hpp"
#include "engines_internal.hpp"

namespace colorbars::eq {

using rx::MatchingSpace;
using rx::SlotObservation;

void DecisionEngine::on_calibration(rx::CalibrationStore&,
                                    std::span<const CalibrationObservation>) {}

void DecisionEngine::note_decision(double margin, bool fallback) const noexcept {
  ++stats_.decisions;
  if (fallback) ++stats_.fallback_decisions;
  if (margin >= 0.0) {
    stats_.margin_sum += margin;
    ++stats_.margin_count;
  }
}

namespace detail {

int classify_nearest_store(const rx::CalibrationStore& store,
                           const SlotObservation& observation, double* margin_out) {
  const int count = store.symbol_count();
  // Fast path for the production metric: gather the learned references
  // and their symbol indices, and run classify_against_refs' batched
  // ΔE(ab) scan over them. Constellations are tiny (4-64 symbols), so 64
  // covers every configuration; anything larger or any other metric
  // takes the per-reference path.
  constexpr int kMaxBatch = 64;
  if (store.matching_space() == MatchingSpace::kCielabAB && count <= kMaxBatch) {
    color::ChromaAB references[kMaxBatch];
    int symbol_of[kMaxBatch];
    int learned = 0;
    for (int i = 0; i < count; ++i) {
      const auto reference = store.reference(i);
      if (!reference.has_value()) continue;
      references[learned] = *reference;
      symbol_of[learned] = i;
      ++learned;
    }
    if (learned == 0) {
      if (margin_out != nullptr) *margin_out = -1.0;
      return 0;
    }
    return symbol_of[classify_against_refs(
        std::span<const color::ChromaAB>(references, static_cast<std::size_t>(learned)),
        observation.chroma, margin_out)];
  }
  int best_index = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  double second_distance = std::numeric_limits<double>::infinity();
  for (int i = 0; i < count; ++i) {
    const auto reference = store.reference_color(i);
    if (!reference.has_value()) continue;
    const double d = store.distance(observation, *reference);
    if (d < best_distance) {
      second_distance = best_distance;
      best_distance = d;
      best_index = i;
    } else if (d < second_distance) {
      second_distance = d;
    }
  }
  if (margin_out != nullptr) {
    *margin_out = std::isfinite(second_distance) ? second_distance - best_distance : -1.0;
  }
  return best_index;
}

int classify_against_refs(std::span<const color::ChromaAB> references,
                          const color::ChromaAB& chroma, double* margin_out) {
  int best_index = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  double second_distance = std::numeric_limits<double>::infinity();
  constexpr int kMaxBatch = 64;
  const int count = static_cast<int>(references.size());
  double dist_buffer[kMaxBatch];
  std::vector<double> dist_heap;
  double* dist = dist_buffer;
  if (count > kMaxBatch) {
    dist_heap.resize(static_cast<std::size_t>(count));
    dist = dist_heap.data();
  }
  {
    double ref_a[kMaxBatch];
    double ref_b[kMaxBatch];
    for (int base = 0; base < count; base += kMaxBatch) {
      const int chunk = std::min(kMaxBatch, count - base);
      for (int i = 0; i < chunk; ++i) {
        ref_a[i] = references[static_cast<std::size_t>(base + i)].a;
        ref_b[i] = references[static_cast<std::size_t>(base + i)].b;
      }
      simd::delta_e_ab_many(ref_a, ref_b, chunk, chroma.a, chroma.b, dist + base);
    }
  }
  for (int j = 0; j < count; ++j) {
    const double d = dist[j];
    if (d < best_distance) {
      second_distance = best_distance;
      best_distance = d;
      best_index = j;
    } else if (d < second_distance) {
      second_distance = d;
    }
  }
  if (margin_out != nullptr) {
    *margin_out = std::isfinite(second_distance) ? second_distance - best_distance : -1.0;
  }
  return best_index;
}

bool solve_dense(std::vector<double>& matrix, std::vector<double>& rhs, int n,
                 int cols, double pivot_floor) {
  const auto at = [&](int r, int c) -> double& {
    return matrix[static_cast<std::size_t>(r) * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(c)];
  };
  const auto b_at = [&](int r, int c) -> double& {
    return rhs[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
               static_cast<std::size_t>(c)];
  };
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int row = col + 1; row < n; ++row) {
      if (std::fabs(at(row, col)) > std::fabs(at(pivot, col))) pivot = row;
    }
    if (!(std::fabs(at(pivot, col)) > pivot_floor)) return false;
    if (pivot != col) {
      for (int c = col; c < n; ++c) std::swap(at(pivot, c), at(col, c));
      for (int c = 0; c < cols; ++c) std::swap(b_at(pivot, c), b_at(col, c));
    }
    const double inv = 1.0 / at(col, col);
    for (int row = col + 1; row < n; ++row) {
      const double factor = at(row, col) * inv;
      if (factor == 0.0) continue;
      for (int c = col; c < n; ++c) at(row, c) -= factor * at(col, c);
      for (int c = 0; c < cols; ++c) b_at(row, c) -= factor * b_at(col, c);
    }
  }
  for (int col = n - 1; col >= 0; --col) {
    const double inv = 1.0 / at(col, col);
    for (int c = 0; c < cols; ++c) {
      double value = b_at(col, c);
      for (int k = col + 1; k < n; ++k) value -= at(col, k) * b_at(k, c);
      b_at(col, c) = value * inv;
    }
  }
  for (const double value : rhs) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

namespace {

/// The paper's per-band nearest-reference decision, lifted out of the
/// receiver unchanged. Ignores the context window beyond the decision
/// slot and learns nothing from calibration beyond what the store
/// already absorbs.
class NearestReferenceEngine final : public DecisionEngine {
 public:
  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kNearestReference;
  }

  [[nodiscard]] int decide(const rx::CalibrationStore& store,
                           std::span<const std::optional<SlotObservation>> window,
                           std::size_t position, double* margin_out) const override {
    double margin = -1.0;
    const int symbol = classify_nearest_store(store, *window[position], &margin);
    if (margin_out != nullptr) *margin_out = margin;
    note_decision(margin, /*fallback=*/false);
    return symbol;
  }
};

}  // namespace

std::unique_ptr<DecisionEngine> make_nearest_engine(const EngineConfig&) {
  return std::make_unique<NearestReferenceEngine>();
}

}  // namespace detail

std::unique_ptr<DecisionEngine> make_engine(const EngineConfig& config) {
  config.validate();
  switch (config.kind) {
    case EngineKind::kNearestReference:
      return detail::make_nearest_engine(config);
    case EngineKind::kLinearMmse:
    case EngineKind::kFrequencyDomain:
      return detail::make_equalized_engine(config);
  }
  return detail::make_nearest_engine(config);
}

}  // namespace colorbars::eq
