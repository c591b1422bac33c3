#include "colorbars/rx/calibration_store.hpp"

#include <stdexcept>

namespace colorbars::rx {

namespace {

ReferenceColor blend(const ReferenceColor& a, const ReferenceColor& b) {
  ReferenceColor out;
  out.chroma = {0.5 * (a.chroma.a + b.chroma.a), 0.5 * (a.chroma.b + b.chroma.b)};
  out.lightness = 0.5 * (a.lightness + b.lightness);
  out.rgb = (a.rgb + b.rgb) * 0.5;
  return out;
}

}  // namespace

CalibrationStore::CalibrationStore(int symbol_count, MatchingSpace matching_space)
    : matching_space_(matching_space) {
  if (symbol_count <= 0) {
    throw std::invalid_argument("CalibrationStore: symbol count must be positive");
  }
  references_.resize(static_cast<std::size_t>(symbol_count));
}

bool CalibrationStore::calibrated() const noexcept {
  for (const auto& reference : references_) {
    if (!reference.has_value()) return false;
  }
  return true;
}

bool CalibrationStore::has_any_reference() const noexcept {
  for (const auto& reference : references_) {
    if (reference.has_value()) return true;
  }
  return false;
}

void CalibrationStore::absorb_calibration_partial(
    const std::vector<std::optional<ReferenceColor>>& colors) {
  if (colors.size() != references_.size()) {
    throw std::invalid_argument("CalibrationStore: wrong calibration color count");
  }
  for (std::size_t i = 0; i < colors.size(); ++i) {
    if (!colors[i].has_value()) continue;
    if (references_[i].has_value()) {
      // Blend with the existing reference: smooths single-band noise
      // while still tracking exposure drift across calibration packets.
      references_[i] = blend(*references_[i], *colors[i]);
    } else {
      references_[i] = colors[i];
    }
  }
}

std::optional<color::ChromaAB> CalibrationStore::reference(int index) const {
  if (index < 0 || index >= symbol_count()) return std::nullopt;
  const auto& reference = references_[static_cast<std::size_t>(index)];
  if (!reference.has_value()) return std::nullopt;
  return reference->chroma;
}

std::optional<ReferenceColor> CalibrationStore::reference_color(int index) const {
  if (index < 0 || index >= symbol_count()) return std::nullopt;
  return references_[static_cast<std::size_t>(index)];
}

double CalibrationStore::distance(const SlotObservation& observation,
                                  const ReferenceColor& reference) const noexcept {
  switch (matching_space_) {
    case MatchingSpace::kCielabAB:
      return color::delta_e_ab(observation.chroma, reference.chroma);
    case MatchingSpace::kCielab94:
      return color::delta_e_94(
          {reference.lightness, reference.chroma.a, reference.chroma.b},
          {observation.lightness, observation.chroma.a, observation.chroma.b});
    case MatchingSpace::kRgb:
      // Scaled to 8-bit units so decision margins, which the rate
      // controller's min_margin gate reads, are comparable in magnitude
      // to the Lab metrics'.
      return util::distance(observation.rgb, reference.rgb) * 255.0 / 3.0;
  }
  return 0.0;
}

}  // namespace colorbars::rx
