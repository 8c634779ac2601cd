#include "place/constructive_placer.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

namespace fbmb {

namespace {

/// 2-D prefix sum over the grid cells covered by a set of footprints, so
/// "does this region touch a covered cell" costs four lookups.
class CoverSums {
 public:
  CoverSums(int width, int height)
      : width_(width),
        height_(height),
        sums_(static_cast<std::size_t>(width + 1) *
                  static_cast<std::size_t>(height + 1),
              0) {}

  /// Rebuilds the sums from `footprints` (indexed by component id),
  /// leaving out `skip`. Every footprint must lie inside the grid.
  void build(const std::vector<Rect>& footprints, std::size_t skip) {
    std::fill(sums_.begin(), sums_.end(), 0);
    for (std::size_t i = 0; i < footprints.size(); ++i) {
      if (i == skip) continue;
      const Rect& fp = footprints[i];
      for (int y = fp.bottom(); y < fp.top(); ++y) {
        for (int x = fp.left(); x < fp.right(); ++x) {
          sums_[index(x + 1, y + 1)] = 1;
        }
      }
    }
    for (int y = 1; y <= height_; ++y) {
      for (int x = 1; x <= width_; ++x) {
        sums_[index(x, y)] += sums_[index(x - 1, y)] +
                              sums_[index(x, y - 1)] -
                              sums_[index(x - 1, y - 1)];
      }
    }
  }

  /// True iff any cell of `region`, clamped to the grid, is covered.
  bool any(const Rect& region) const {
    const int x0 = std::max(region.left(), 0);
    const int x1 = std::min(region.right(), width_);
    const int y0 = std::max(region.bottom(), 0);
    const int y1 = std::min(region.top(), height_);
    if (x0 >= x1 || y0 >= y1) return false;
    const int covered = sums_[index(x1, y1)] - sums_[index(x0, y1)] -
                        sums_[index(x1, y0)] + sums_[index(x0, y0)];
    return covered != 0;
  }

 private:
  /// Entry (x, y) holds the covered-cell count of [0, x) x [0, y).
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) *
               static_cast<std::size_t>(width_ + 1) +
           static_cast<std::size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<int> sums_;  ///< (width+1) x (height+1); row/column 0 zero
};

Placement shelf_pack(const Allocation& allocation, const ChipSpec& spec) {
  Placement placement(allocation.size());
  const int spacing = spec.component_spacing;
  int x = spacing;
  int y = spacing;
  int row_height = 0;
  for (const auto& comp : allocation.components()) {
    if (x + comp.width + spacing > spec.grid_width) {
      x = spacing;
      y += row_height + spacing;
      row_height = 0;
    }
    placement.at(comp.id) = {{x, y}, false};
    x += comp.width + spacing;
    row_height = std::max(row_height, comp.height);
  }
  if (!placement.is_legal(allocation, spec)) {
    throw std::runtime_error(
        "allocation does not fit on the chip grid; enlarge ChipSpec");
  }
  return placement;
}

}  // namespace

Placement place_components_baseline(
    const Allocation& allocation, const Schedule& schedule,
    const ChipSpec& spec, const ConstructivePlacerOptions& options) {
  if (!spec.has_fixed_grid()) {
    throw std::invalid_argument(
        "place_components_baseline requires a fixed grid");
  }
  if (allocation.empty()) return Placement{};

  // Unweighted adjacency: which components exchange fluids at all.
  std::set<std::pair<int, int>> edges;
  for (const auto& t : schedule.transports) {
    if (t.from == t.to) continue;
    edges.insert({std::min(t.from.value, t.to.value),
                  std::max(t.from.value, t.to.value)});
  }
  std::vector<std::vector<ComponentId>> neighbors(allocation.size());
  for (const auto& [a, b] : edges) {
    neighbors[static_cast<std::size_t>(a)].push_back(ComponentId{b});
    neighbors[static_cast<std::size_t>(b)].push_back(ComponentId{a});
  }

  Placement placement = shelf_pack(allocation, spec);

  // Sequential correction: relocate each component to the legal origin that
  // minimizes the sum of Manhattan distances to its neighbours (then total
  // spread as a tiebreak so disconnected components also settle).
  //
  // While one component scans, every other footprint is fixed: `footprints`
  // caches them, and `covered` prefix-sums the cells they occupy. The
  // placement stays legal throughout, so those footprints are inside the
  // chip, and a candidate clashes iff its spacing-inflated rectangle
  // touches a covered cell. The scan only visits origins that keep the
  // candidate on the chip.
  std::vector<Rect> footprints(allocation.size());
  for (const auto& comp : allocation.components()) {
    footprints[static_cast<std::size_t>(comp.id.value)] =
        placement.footprint(comp.id, allocation);
  }
  CoverSums covered(spec.grid_width, spec.grid_height);
  const int stride = std::max(1, options.scan_stride);
  for (int pass = 0; pass < options.correction_passes; ++pass) {
    bool improved = false;
    for (const auto& comp : allocation.components()) {
      const auto self = static_cast<std::size_t>(comp.id.value);
      const auto& nbrs = neighbors[self];
      covered.build(footprints, self);
      auto cost = [&](const Rect& fp) {
        long c = 0;
        if (!nbrs.empty()) {
          for (ComponentId n : nbrs) {
            c += manhattan_distance(
                fp, footprints[static_cast<std::size_t>(n.value)]);
          }
        } else {
          for (std::size_t other = 0; other < footprints.size(); ++other) {
            if (other == self) continue;
            c += manhattan_distance(fp, footprints[other]);
          }
        }
        return c;
      };
      const PlacedComponent original = placement.at(comp.id);
      long best_cost = cost(footprints[self]);
      PlacedComponent best = original;
      for (int rot = 0; rot < 2; ++rot) {
        const bool rotated = rot == 1;
        const int w = rotated ? comp.height : comp.width;
        const int h = rotated ? comp.width : comp.height;
        for (int y = 0; y + h <= spec.grid_height; y += stride) {
          for (int x = 0; x + w <= spec.grid_width; x += stride) {
            const Rect fp{x, y, w, h};
            if (covered.any(fp.inflated(spec.component_spacing))) continue;
            const long c = cost(fp);
            if (c < best_cost) {
              best_cost = c;
              best = {{x, y}, rotated};
            }
          }
        }
      }
      placement.at(comp.id) = best;
      footprints[self] = placement.footprint(comp.id, allocation);
      if (!(best.origin == original.origin &&
            best.rotated == original.rotated)) {
        improved = true;
      }
    }
    if (!improved) break;
  }
  return placement;
}

}  // namespace fbmb
