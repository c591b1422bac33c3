#include "colorbars/csk/constellation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "colorbars/color/lab.hpp"
#include "colorbars/color/srgb.hpp"

namespace colorbars::csk {

using color::Barycentric;
using color::Chromaticity;
using color::GamutTriangle;

const std::vector<CskOrder>& all_orders() {
  static const std::vector<CskOrder> orders{CskOrder::kCsk4, CskOrder::kCsk8,
                                            CskOrder::kCsk16, CskOrder::kCsk32,
                                            CskOrder::kCsk64};
  return orders;
}

std::optional<CskOrder> order_from_int(int symbols) {
  for (const CskOrder order : all_orders()) {
    if (symbol_count(order) == symbols) return order;
  }
  return std::nullopt;
}

const char* order_name(CskOrder order) noexcept {
  switch (order) {
    case CskOrder::kCsk4: return "CSK4";
    case CskOrder::kCsk8: return "CSK8";
    case CskOrder::kCsk16: return "CSK16";
    case CskOrder::kCsk32: return "CSK32";
    case CskOrder::kCsk64: return "CSK64";
  }
  return "?";
}

namespace {

// Triangular-lattice barycentric layouts mirroring the 802.15.7 figures
// (the layouts the paper reproduces as Figs. 1e/1f). Each entry is the
// (r, g, b) weight triple of one symbol.

// 4-CSK: the three vertices and the centroid.
constexpr Barycentric kLayout4[] = {
    {1.0, 0.0, 0.0},
    {0.0, 1.0, 0.0},
    {0.0, 0.0, 1.0},
    {1.0 / 3, 1.0 / 3, 1.0 / 3},
};

// 8-CSK: vertices, edge thirds on two edges, and two interior points —
// eight well-spread points matching the standard's 8-CSK arrangement.
constexpr Barycentric kLayout8[] = {
    {1.0, 0.0, 0.0},          // red vertex
    {0.0, 1.0, 0.0},          // green vertex
    {0.0, 0.0, 1.0},          // blue vertex
    {2.0 / 3, 1.0 / 3, 0.0},  // red-green edge, near red
    {1.0 / 3, 2.0 / 3, 0.0},  // red-green edge, near green
    {0.0, 2.0 / 3, 1.0 / 3},  // green-blue edge, near green
    {4.0 / 9, 1.0 / 9, 4.0 / 9},  // interior, toward red-blue edge
    {1.0 / 9, 4.0 / 9, 4.0 / 9},  // interior, toward green-blue edge
};

// 16-CSK: the side-4 triangular lattice (15 points) plus the centroid of
// the central upward sub-triangle, matching the standard's 16-CSK grid.
constexpr Barycentric kLayout16[] = {
    {1.0, 0.0, 0.0},
    {2.0 / 3, 1.0 / 3, 0.0},
    {1.0 / 3, 2.0 / 3, 0.0},
    {0.0, 1.0, 0.0},
    {2.0 / 3, 0.0, 1.0 / 3},
    {1.0 / 3, 1.0 / 3, 1.0 / 3},
    {0.0, 2.0 / 3, 1.0 / 3},
    {1.0 / 3, 0.0, 2.0 / 3},
    {0.0, 1.0 / 3, 2.0 / 3},
    {0.0, 0.0, 1.0},
    {7.0 / 9, 1.0 / 9, 1.0 / 9},
    {1.0 / 9, 7.0 / 9, 1.0 / 9},
    {1.0 / 9, 1.0 / 9, 7.0 / 9},
    {4.0 / 9, 4.0 / 9, 1.0 / 9},
    {4.0 / 9, 1.0 / 9, 4.0 / 9},
    {1.0 / 9, 4.0 / 9, 4.0 / 9},
};

std::vector<Chromaticity> layout_points(const GamutTriangle& gamut,
                                        std::span<const Barycentric> layout) {
  std::vector<Chromaticity> points;
  points.reserve(layout.size());
  for (const Barycentric& w : layout) points.push_back(gamut.at(w));
  return points;
}

}  // namespace

std::vector<Chromaticity> maxmin_packing(const GamutTriangle& gamut, int count,
                                         int grid_resolution) {
  if (count < 3) throw std::invalid_argument("maxmin_packing: need at least 3 points");
  if (grid_resolution < 2) throw std::invalid_argument("maxmin_packing: grid too coarse");

  // Candidate set: a fine barycentric lattice over the triangle.
  std::vector<Chromaticity> candidates;
  candidates.reserve(static_cast<std::size_t>((grid_resolution + 1) *
                                              (grid_resolution + 2) / 2));
  for (int i = 0; i <= grid_resolution; ++i) {
    for (int j = 0; j <= grid_resolution - i; ++j) {
      const double r = static_cast<double>(i) / grid_resolution;
      const double g = static_cast<double>(j) / grid_resolution;
      candidates.push_back(gamut.at({r, g, 1.0 - r - g}));
    }
  }

  // Seed with the three vertices (they always belong to an optimal
  // max-min packing of a triangle), then greedily add the candidate
  // farthest from the chosen set.
  std::vector<Chromaticity> chosen{gamut.red(), gamut.green(), gamut.blue()};
  std::vector<double> dist_to_chosen(candidates.size(),
                                     std::numeric_limits<double>::infinity());
  auto relax = [&](const Chromaticity& p) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      dist_to_chosen[i] = std::min(dist_to_chosen[i], color::xy_distance(candidates[i], p));
    }
  };
  for (const Chromaticity& p : chosen) relax(p);

  while (static_cast<int>(chosen.size()) < count) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (dist_to_chosen[i] > dist_to_chosen[best]) best = i;
    }
    chosen.push_back(candidates[best]);
    relax(candidates[best]);
  }
  return chosen;
}

std::vector<Chromaticity> maxmin_packing_lab(const GamutTriangle& gamut, int count,
                                             int grid_resolution) {
  if (count < 3) throw std::invalid_argument("maxmin_packing_lab: need at least 3 points");
  if (grid_resolution < 2) throw std::invalid_argument("maxmin_packing_lab: grid too coarse");

  // Reference render: a fully-driven symbol at chromaticity (x, y) emits
  // the unit-power tristimulus (x, y, 1-x-y) (TriLed::radiance), which
  // the reference sensor (ideal profile == sRGB response) integrates,
  // clips per channel, and the receiver converts to CIELab. The 1.3
  // exposure scale sits on the plateau where the camera's auto-exposure
  // lands for the pattern white; rendered vertices match the calibrated
  // references to within ~1 ΔE there.
  constexpr double kExposureScale = 1.3;
  auto rendered_ab = [](const Chromaticity& c) {
    const color::XYZ emitted{c.x * kExposureScale, c.y * kExposureScale,
                             (1.0 - c.x - c.y) * kExposureScale};
    const util::Vec3 sensor = color::xyz_to_linear_srgb(emitted).clamped(0.0, 1.0);
    return color::chroma_of(color::xyz_to_lab(color::linear_srgb_to_xyz(sensor)));
  };

  std::vector<Chromaticity> candidates;
  std::vector<color::ChromaAB> candidate_ab;
  candidates.reserve(static_cast<std::size_t>((grid_resolution + 1) *
                                              (grid_resolution + 2) / 2));
  for (int i = 0; i <= grid_resolution; ++i) {
    for (int j = 0; j <= grid_resolution - i; ++j) {
      const double r = static_cast<double>(i) / grid_resolution;
      const double g = static_cast<double>(j) / grid_resolution;
      candidates.push_back(gamut.at({r, g, 1.0 - r - g}));
      candidate_ab.push_back(rendered_ab(candidates.back()));
    }
  }

  std::vector<Chromaticity> chosen{gamut.red(), gamut.green(), gamut.blue()};
  std::vector<double> dist_to_chosen(candidates.size(),
                                     std::numeric_limits<double>::infinity());
  auto relax = [&](const Chromaticity& p) {
    const color::ChromaAB ab = rendered_ab(p);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      dist_to_chosen[i] =
          std::min(dist_to_chosen[i], color::delta_e_ab(candidate_ab[i], ab));
    }
  };
  for (const Chromaticity& p : chosen) relax(p);

  while (static_cast<int>(chosen.size()) < count) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (dist_to_chosen[i] > dist_to_chosen[best]) best = i;
    }
    chosen.push_back(candidates[best]);
    relax(candidates[best]);
  }
  return chosen;
}

std::vector<Chromaticity> optimize_constellation(const GamutTriangle& gamut,
                                                 std::vector<Chromaticity> points,
                                                 int iterations) {
  if (points.size() < 4) return points;

  auto min_distance_of = [](const std::vector<Chromaticity>& set) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        best = std::min(best, color::xy_distance(set[i], set[j]));
      }
    }
    return best;
  };

  auto is_vertex = [&](const Chromaticity& p) {
    for (const Chromaticity& v : {gamut.red(), gamut.green(), gamut.blue()}) {
      if (color::xy_distance(p, v) < 1e-9) return true;
    }
    return false;
  };

  auto project = [&](const Chromaticity& p) {
    Barycentric w = gamut.barycentric(p);
    w.r = std::max(w.r, 0.0);
    w.g = std::max(w.g, 0.0);
    w.b = std::max(w.b, 0.0);
    if (w.sum() <= 0.0) return gamut.centroid();
    return gamut.at(w);
  };

  double best_min = min_distance_of(points);
  for (int iteration = 0; iteration < iterations; ++iteration) {
    // Annealed step: start at ~2% of the gamut scale, decay to ~0.1%.
    const double step =
        0.02 * std::pow(0.05, static_cast<double>(iteration) / iterations);
    std::vector<Chromaticity> candidate = points;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (is_vertex(candidate[i])) continue;
      // Repulsion from the nearest neighbor only — the binding constraint
      // for the min-distance objective.
      std::size_t nearest = i == 0 ? 1 : 0;
      double nearest_distance = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < candidate.size(); ++j) {
        if (j == i) continue;
        const double d = color::xy_distance(candidate[i], candidate[j]);
        if (d < nearest_distance) {
          nearest_distance = d;
          nearest = j;
        }
      }
      if (nearest_distance <= 0.0) continue;
      const double dx = (candidate[i].x - candidate[nearest].x) / nearest_distance;
      const double dy = (candidate[i].y - candidate[nearest].y) / nearest_distance;
      candidate[i] = project({candidate[i].x + step * dx, candidate[i].y + step * dy});
    }
    const double candidate_min = min_distance_of(candidate);
    if (candidate_min >= best_min) {
      best_min = candidate_min;
      points = std::move(candidate);
    }
  }
  return points;
}

Constellation::Constellation(CskOrder order, const GamutTriangle& gamut)
    : order_(order), gamut_(gamut) {
  switch (order) {
    case CskOrder::kCsk4:
      points_ = layout_points(gamut, kLayout4);
      break;
    case CskOrder::kCsk8:
      points_ = layout_points(gamut, kLayout8);
      break;
    case CskOrder::kCsk16:
      points_ = layout_points(gamut, kLayout16);
      break;
    case CskOrder::kCsk32:
      points_ = maxmin_packing(gamut, 32);
      break;
    case CskOrder::kCsk64:
      // The equalized-decode extension target (toward the 512-CSK
      // neural-equalization demonstrations). Packed in the receiver's
      // rendered-(a,b) decision metric: at this density an xy-plane
      // packing drops symbol pairs onto nearly coincident post-clipping
      // chroma (measured min pairwise ΔE 0.017 — unclassifiable at any
      // SNR), while the Lab packing keeps every pair separable. A finer
      // candidate grid than the 32-point default keeps the greedy
      // packing's min-distance loss negligible at this density.
      points_ = maxmin_packing_lab(gamut, 64, 96);
      break;
  }
  if (static_cast<int>(points_.size()) != symbol_count(order)) {
    throw std::logic_error("Constellation: layout size mismatch");
  }
}

Constellation::Constellation(CskOrder order)
    : Constellation(order, color::default_led_gamut()) {}

int Constellation::nearest(const Chromaticity& c) const noexcept {
  int best = 0;
  double best_distance = std::numeric_limits<double>::infinity();
  for (int i = 0; i < size(); ++i) {
    const double d = color::xy_distance(points_[static_cast<std::size_t>(i)], c);
    if (d < best_distance) {
      best_distance = d;
      best = i;
    }
  }
  return best;
}

double Constellation::min_pairwise_distance() const noexcept {
  double min_distance = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points_.size(); ++i) {
    for (std::size_t j = i + 1; j < points_.size(); ++j) {
      min_distance = std::min(min_distance, color::xy_distance(points_[i], points_[j]));
    }
  }
  return min_distance;
}

}  // namespace colorbars::csk
