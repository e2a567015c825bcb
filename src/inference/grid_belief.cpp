#include "inference/grid_belief.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/assert.hpp"
#include "support/simd.hpp"

namespace bnloc {

CellBox CellBox::dilated(std::int32_t margin, std::size_t side) const noexcept {
  if (empty()) return *this;
  const auto s = static_cast<std::int32_t>(side);
  return {std::max(x0 - margin, std::int32_t{0}),
          std::min(x1 + margin, s - 1),
          std::max(y0 - margin, std::int32_t{0}),
          std::min(y1 + margin, s - 1)};
}

Vec2 GridShape::cell_center(std::size_t cell) const noexcept {
  const std::size_t cx = cell % side;
  const std::size_t cy = cell / side;
  return {field.lo.x + (static_cast<double>(cx) + 0.5) * cell_width(),
          field.lo.y + (static_cast<double>(cy) + 0.5) * cell_height()};
}

std::size_t GridShape::cell_at(Vec2 p) const noexcept {
  const Vec2 q = field.clamp(p);
  auto cx = static_cast<std::size_t>((q.x - field.lo.x) / cell_width());
  auto cy = static_cast<std::size_t>((q.y - field.lo.y) / cell_height());
  cx = std::min(cx, side - 1);
  cy = std::min(cy, side - 1);
  return cy * side + cx;
}

namespace beliefops {

void set_uniform(std::span<double> mass) noexcept {
  const double v = 1.0 / static_cast<double>(mass.size());
  std::fill(mass.begin(), mass.end(), v);
}

void set_from_prior(const GridShape& shape, std::span<double> mass,
                    const PositionPrior& prior) {
  BNLOC_ASSERT(mass.size() == shape.cell_count(), "mass buffer shape mismatch");
  double total = 0.0;
  for (std::size_t c = 0; c < mass.size(); ++c) {
    mass[c] = prior.density(shape.cell_center(c));
    total += mass[c];
  }
  if (total <= 0.0) {
    // Prior mass entirely outside the field (e.g. heavily biased prior):
    // fall back to uniform rather than producing an invalid belief.
    set_uniform(mass);
    return;
  }
  for (double& m : mass) m /= total;
}

void set_delta(const GridShape& shape, std::span<double> mass,
               Vec2 p) noexcept {
  std::fill(mass.begin(), mass.end(), 0.0);
  mass[shape.cell_at(p)] = 1.0;
}

void multiply(std::span<double> mass, std::span<const double> factor,
              double floor) {
  BNLOC_ASSERT(factor.size() == mass.size(), "factor grid shape mismatch");
  const double total =
      simd::mul_add_floor_sum(mass.data(), factor.data(), floor, mass.size());
  if (total <= 0.0) {
    set_uniform(mass);
    return;
  }
  simd::div_all(mass.data(), total, mass.size());
}

void mix(std::span<double> mass, std::span<const double> previous,
         double lambda) noexcept {
  simd::mix(mass.data(), previous.data(), lambda, mass.size());
}

double peak(std::span<const double> mass) noexcept {
  return simd::max0(mass.data(), mass.size());
}

void normalize(std::span<double> mass) noexcept {
  const double total = simd::sum(mass.data(), mass.size());
  if (total <= 0.0) {
    set_uniform(mass);
    return;
  }
  simd::div_all(mass.data(), total, mass.size());
}

Vec2 mean(const GridShape& shape, std::span<const double> mass) noexcept {
  Vec2 m{};
  for (std::size_t c = 0; c < mass.size(); ++c)
    m += shape.cell_center(c) * mass[c];
  return m;
}

Cov2 covariance(const GridShape& shape,
                std::span<const double> mass) noexcept {
  const Vec2 mu = mean(shape, mass);
  Cov2 cov{};
  for (std::size_t c = 0; c < mass.size(); ++c) {
    const Vec2 d = shape.cell_center(c) - mu;
    cov.xx += mass[c] * d.x * d.x;
    cov.xy += mass[c] * d.x * d.y;
    cov.yy += mass[c] * d.y * d.y;
  }
  // Within-cell variance: a cell is a uniform patch, not a point.
  const double sx = shape.cell_width();
  const double sy = shape.cell_height();
  cov.xx += sx * sx / 12.0;
  cov.yy += sy * sy / 12.0;
  return cov;
}

Vec2 argmax(const GridShape& shape, std::span<const double> mass) noexcept {
  const auto it = std::max_element(mass.begin(), mass.end());
  return shape.cell_center(static_cast<std::size_t>(it - mass.begin()));
}

double entropy(std::span<const double> mass) noexcept {
  double h = 0.0;
  for (double m : mass)
    if (m > 0.0) h -= m * std::log(m);
  return h;
}

double total_variation(std::span<const double> a, std::span<const double> b) {
  BNLOC_ASSERT(a.size() == b.size(),
               "total variation needs same-shape beliefs");
  return 0.5 * simd::l1_diff(a.data(), b.data(), a.size());
}

namespace {

/// Uniform over the box cells only (outside left untouched — callers keep
/// it zero).
void set_uniform_in(std::span<double> mass, std::size_t side,
                    const CellBox& box) noexcept {
  const double v = 1.0 / static_cast<double>(box.cell_count());
  for (std::int32_t y = box.y0; y <= box.y1; ++y) {
    double* const row = mass.data() + static_cast<std::size_t>(y) * side;
    for (std::int32_t x = box.x0; x <= box.x1; ++x) row[x] = v;
  }
}

}  // namespace

double fold_in(std::span<double> out, std::span<const double> in,
               double pending, std::span<double> factor, double floor,
               bool nonlink, std::size_t side, const CellBox& box) {
  BNLOC_ASSERT(out.size() == in.size() && factor.size() == out.size(),
               "fold grid shape mismatch");
  BNLOC_ASSERT(!box.empty(), "fold_in needs a non-empty box");
  double total = 0.0;
  if (box.is_full(side)) {
    total = simd::fold(out.data(), in.data(), pending, factor.data(), floor,
                       nonlink, out.size());
  } else {
    const std::size_t w = box.width();
    for (std::int32_t y = box.y0; y <= box.y1; ++y) {
      const std::size_t off = static_cast<std::size_t>(y) * side +
                              static_cast<std::size_t>(box.x0);
      total += simd::fold(out.data() + off, in.data() + off, pending,
                          factor.data() + off, floor, nonlink, w);
    }
  }
  if (total <= 0.0) {
    set_uniform_in(out, side, box);
    return 1.0;
  }
  return total;
}

void normalize_in(std::span<double> mass, std::size_t side,
                  const CellBox& box) noexcept {
  if (box.is_full(side)) {
    normalize(mass);
    return;
  }
  const std::size_t w = box.width();
  double total = 0.0;
  for (std::int32_t y = box.y0; y <= box.y1; ++y)
    total += simd::sum(mass.data() + static_cast<std::size_t>(y) * side +
                           static_cast<std::size_t>(box.x0),
                       w);
  if (total <= 0.0) {
    set_uniform_in(mass, side, box);
    return;
  }
  for (std::int32_t y = box.y0; y <= box.y1; ++y)
    simd::div_all(mass.data() + static_cast<std::size_t>(y) * side +
                      static_cast<std::size_t>(box.x0),
                  total, w);
}

double settle_in(std::span<double> belief, std::span<const double> in,
                 double pending, double lambda, std::size_t side,
                 const CellBox& box) {
  BNLOC_ASSERT(belief.size() == in.size(), "settle grid shape mismatch");
  if (box.is_full(side))
    return 0.5 * simd::settle(belief.data(), in.data(), pending, lambda,
                              belief.size());
  const std::size_t w = box.width();
  double l1 = 0.0;
  for (std::int32_t y = box.y0; y <= box.y1; ++y) {
    const std::size_t off = static_cast<std::size_t>(y) * side +
                            static_cast<std::size_t>(box.x0);
    l1 += simd::settle(belief.data() + off, in.data() + off, pending, lambda,
                       w);
  }
  return 0.5 * l1;
}

double total_variation_in(std::span<const double> a,
                          std::span<const double> b, std::size_t side,
                          const CellBox& box) {
  if (box.is_full(side)) return total_variation(a, b);
  BNLOC_ASSERT(a.size() == b.size(),
               "total variation needs same-shape beliefs");
  const std::size_t w = box.width();
  double l1 = 0.0;
  for (std::int32_t y = box.y0; y <= box.y1; ++y) {
    const std::size_t off = static_cast<std::size_t>(y) * side +
                            static_cast<std::size_t>(box.x0);
    l1 += simd::l1_diff(a.data() + off, b.data() + off, w);
  }
  return 0.5 * l1;
}

void copy_in(std::span<const double> from, std::span<double> to,
             std::size_t side, const CellBox& box) noexcept {
  if (box.is_full(side)) {
    copy_belief(from, to);
    return;
  }
  const std::size_t w = box.width();
  for (std::int32_t y = box.y0; y <= box.y1; ++y) {
    const std::size_t off = static_cast<std::size_t>(y) * side +
                            static_cast<std::size_t>(box.x0);
    std::copy(from.begin() + static_cast<std::ptrdiff_t>(off),
              from.begin() + static_cast<std::ptrdiff_t>(off + w),
              to.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

void mask_in(std::span<double> mass, std::size_t side, const CellBox& box) {
  if (box.is_full(side)) return;
  const auto s = static_cast<std::int32_t>(side);
  for (std::int32_t y = 0; y < s; ++y) {
    double* const row = mass.data() + static_cast<std::size_t>(y) * side;
    if (y < box.y0 || y > box.y1) {
      std::fill(row, row + side, 0.0);
      continue;
    }
    std::fill(row, row + box.x0, 0.0);
    std::fill(row + box.x1 + 1, row + side, 0.0);
  }
  normalize_in(mass, side, box);
}

void set_from_prior_in(const GridShape& shape, std::span<double> mass,
                       const PositionPrior& prior, const CellBox& box) {
  if (box.is_full(shape.side)) {
    set_from_prior(shape, mass, prior);
    return;
  }
  BNLOC_ASSERT(mass.size() == shape.cell_count(), "mass buffer shape mismatch");
  BNLOC_ASSERT(!box.empty(), "set_from_prior_in needs a non-empty box");
  const std::size_t side = shape.side;
  double total = 0.0;
  for (std::int32_t y = box.y0; y <= box.y1; ++y) {
    const std::size_t row = static_cast<std::size_t>(y) * side;
    for (std::int32_t x = box.x0; x <= box.x1; ++x) {
      const std::size_t c = row + static_cast<std::size_t>(x);
      mass[c] = prior.density(shape.cell_center(c));
      total += mass[c];
    }
  }
  if (total <= 0.0) {
    set_uniform_in(mass, side, box);
    return;
  }
  for (std::int32_t y = box.y0; y <= box.y1; ++y)
    simd::div_all(mass.data() + static_cast<std::size_t>(y) * side +
                      static_cast<std::size_t>(box.x0),
                  total, box.width());
}

CellBox support_box(std::span<const double> mass, std::size_t side,
                    double peak_fraction) noexcept {
  const double p = peak(mass);
  if (p <= 0.0) return CellBox::full(side);
  const double thr = p * peak_fraction;
  const auto s = static_cast<std::int32_t>(side);
  CellBox box{s, -1, s, -1};
  for (std::int32_t y = 0; y < s; ++y) {
    const double* const row = mass.data() + static_cast<std::size_t>(y) * side;
    for (std::int32_t x = 0; x < s; ++x) {
      if (row[x] < thr) continue;
      box.x0 = std::min(box.x0, x);
      box.x1 = std::max(box.x1, x);
      box.y0 = std::min(box.y0, y);
      box.y1 = std::max(box.y1, y);
    }
  }
  if (box.empty()) return CellBox::full(side);
  return box;
}

namespace {

/// Shared tail of sparsify: partial-sort the candidate cell ids already in
/// `order_scratch` by descending mass, keep until the fraction or cap.
void select_top(std::span<const double> mass, double mass_fraction,
                std::size_t max_cells, SparseBelief& out,
                std::vector<std::uint32_t>& order_scratch) {
  const std::size_t keep_at_most = std::min(max_cells, order_scratch.size());
  std::partial_sort(
      order_scratch.begin(),
      order_scratch.begin() + static_cast<std::ptrdiff_t>(keep_at_most),
      order_scratch.end(), [&](std::uint32_t a, std::uint32_t b) {
        return mass[a] > mass[b];
      });
  out.cells.clear();
  out.mass.clear();
  double covered = 0.0;
  for (std::size_t k = 0; k < keep_at_most; ++k) {
    const std::uint32_t cell = order_scratch[k];
    if (mass[cell] <= 0.0) break;
    out.cells.push_back(cell);
    covered += mass[cell];
    if (covered >= mass_fraction) break;
  }
  out.covered_fraction = covered;
  out.mass.resize(out.cells.size());
  for (std::size_t k = 0; k < out.cells.size(); ++k)
    out.mass[k] = static_cast<float>(mass[out.cells[k]] / covered);
}

}  // namespace

void sparsify_into(std::span<const double> mass, double mass_fraction,
                   std::size_t max_cells, SparseBelief& out,
                   std::vector<std::uint32_t>& order_scratch) {
  BNLOC_ASSERT(mass_fraction > 0.0 && mass_fraction <= 1.0,
               "mass fraction out of range");
  // Partial selection: cells sorted by descending mass until the target
  // fraction (or the cap) is reached.
  order_scratch.resize(mass.size());
  std::iota(order_scratch.begin(), order_scratch.end(), 0U);
  select_top(mass, mass_fraction, max_cells, out, order_scratch);
}

void sparsify_in(std::span<const double> mass, std::size_t side,
                 const CellBox& box, double mass_fraction,
                 std::size_t max_cells, SparseBelief& out,
                 std::vector<std::uint32_t>& order_scratch) {
  if (box.is_full(side)) {
    sparsify_into(mass, mass_fraction, max_cells, out, order_scratch);
    return;
  }
  BNLOC_ASSERT(mass_fraction > 0.0 && mass_fraction <= 1.0,
               "mass fraction out of range");
  BNLOC_ASSERT(!box.empty(), "sparsify_in needs a non-empty box");
  order_scratch.clear();
  order_scratch.reserve(box.cell_count());
  for (std::int32_t y = box.y0; y <= box.y1; ++y) {
    const auto row = static_cast<std::uint32_t>(y) *
                     static_cast<std::uint32_t>(side);
    for (std::int32_t x = box.x0; x <= box.x1; ++x)
      order_scratch.push_back(row + static_cast<std::uint32_t>(x));
  }
  select_top(mass, mass_fraction, max_cells, out, order_scratch);
}

}  // namespace beliefops

void copy_belief(std::span<const double> from, std::span<double> to) noexcept {
  BNLOC_ASSERT(from.size() == to.size(), "belief copy shape mismatch");
  std::copy(from.begin(), from.end(), to.begin());
}

GridBelief::GridBelief(const Aabb& field, std::size_t cells_per_side)
    : shape_{field, cells_per_side},
      mass_(cells_per_side * cells_per_side, 0.0) {
  BNLOC_ASSERT(cells_per_side >= 2, "grid needs at least 2x2 cells");
  set_uniform();
}

SparseBelief GridBelief::sparsify(double mass_fraction,
                                  std::size_t max_cells) const {
  SparseBelief out;
  std::vector<std::uint32_t> order;
  beliefops::sparsify_into(mass_, mass_fraction, max_cells, out, order);
  return out;
}

}  // namespace bnloc
