// Dense 2-D grid probability mass function over the deployment field.
//
// Layered in three pieces so the grid engine can run on flat SoA storage
// while the convenient single-belief class keeps working:
//
//  * GridShape — the geometry of a discretization (field rectangle + cells
//    per side), separated from any storage;
//  * beliefops — the numeric kernels, free functions over contiguous
//    `std::span<double>` mass buffers (multiply, damp, moments, sparsify);
//  * BeliefStore — one flat arena holding many beliefs of the same shape
//    (node i's mass is a contiguous slice; no per-belief heap allocation);
//  * GridBelief — the single-belief convenience wrapper (shape + its own
//    vector), implemented entirely on beliefops so both storage layouts
//    share one set of bit-identical numerics.
//
// All operations keep the mass normalized (sum == 1) unless stated
// otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/cov2.hpp"
#include "geom/vec2.hpp"
#include "prior/prior.hpp"

namespace bnloc {

/// Sparse summary of a belief: the top cells covering most of the mass.
/// This is also the over-the-air payload of the distributed protocol.
struct SparseBelief {
  std::vector<std::uint32_t> cells;
  std::vector<float> mass;  ///< renormalized to sum 1 over the kept cells.
  /// Fraction of the original mass the kept cells covered (not serialized);
  /// lets callers tell "belief fits in the payload" from "belief truncated".
  double covered_fraction = 0.0;

  [[nodiscard]] bool empty() const noexcept { return cells.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return cells.size(); }
  /// Wire size: 4-byte cell id + 2-byte quantized mass per entry.
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return cells.size() * 6;
  }
};

/// Geometry of a grid discretization: which field rectangle, how many cells
/// per side. Cheap value type; every beliefops call that needs coordinates
/// takes one.
struct GridShape {
  Aabb field;
  std::size_t side = 0;

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return side * side;
  }
  [[nodiscard]] double cell_width() const noexcept {
    return field.width() / static_cast<double>(side);
  }
  [[nodiscard]] double cell_height() const noexcept {
    return field.height() / static_cast<double>(side);
  }
  [[nodiscard]] Vec2 cell_center(std::size_t cell) const noexcept;
  [[nodiscard]] std::size_t cell_at(Vec2 p) const noexcept;
};

/// Axis-aligned box of cell indices, inclusive on both ends: columns
/// [x0, x1], rows [y0, y1]. The default-constructed box is empty. The grid
/// engine's coarse-to-fine pyramid uses boxes as per-node regions of
/// interest: after a level transition the belief's support is known, so the
/// dense per-cell loops only visit rows inside the box (cells outside are
/// exact zeros by construction).
struct CellBox {
  std::int32_t x0 = 0, x1 = -1;
  std::int32_t y0 = 0, y1 = -1;

  [[nodiscard]] bool empty() const noexcept { return x1 < x0 || y1 < y0; }
  [[nodiscard]] std::size_t width() const noexcept {
    return empty() ? 0 : static_cast<std::size_t>(x1 - x0 + 1);
  }
  [[nodiscard]] std::size_t height() const noexcept {
    return empty() ? 0 : static_cast<std::size_t>(y1 - y0 + 1);
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return width() * height();
  }
  [[nodiscard]] bool is_full(std::size_t side) const noexcept {
    return x0 == 0 && y0 == 0 &&
           x1 == static_cast<std::int32_t>(side) - 1 &&
           y1 == static_cast<std::int32_t>(side) - 1;
  }
  /// The whole grid.
  [[nodiscard]] static CellBox full(std::size_t side) noexcept {
    const auto s = static_cast<std::int32_t>(side);
    return {0, s - 1, 0, s - 1};
  }
  /// Grown by `margin` cells on every edge, clipped to the grid.
  [[nodiscard]] CellBox dilated(std::int32_t margin,
                                std::size_t side) const noexcept;
};

/// Numeric kernels over contiguous mass buffers. Every function asserts the
/// buffer sizes it needs; none allocates (sparsify_into reuses caller
/// scratch).
///
/// The dense loops route through the runtime-dispatched SIMD primitives in
/// support/simd.hpp; with `BNLOC_SIMD=off` they reproduce the historical
/// scalar loops bit for bit. The `_in` variants restrict work to a CellBox
/// under the caller-guaranteed invariant that the mass outside the box is
/// exactly zero; a full box delegates to the whole-buffer form, so the two
/// spellings are bit-identical there.
namespace beliefops {

/// Reset to the uniform distribution.
void set_uniform(std::span<double> mass) noexcept;
/// Rasterize a prior (density at cell centers, then normalize).
void set_from_prior(const GridShape& shape, std::span<double> mass,
                    const PositionPrior& prior);
/// All mass in the cell containing p (anchor delta).
void set_delta(const GridShape& shape, std::span<double> mass,
               Vec2 p) noexcept;

/// Pointwise multiply by a non-negative factor grid (same shape), with an
/// additive floor that prevents conflicting evidence from zeroing the
/// belief; renormalizes. `factor` need not be normalized.
void multiply(std::span<double> mass, std::span<const double> factor,
              double floor);

/// Linear damping: mass = (1-lambda)*mass + lambda*previous.
void mix(std::span<double> mass, std::span<const double> previous,
         double lambda) noexcept;

void normalize(std::span<double> mass) noexcept;

[[nodiscard]] Vec2 mean(const GridShape& shape,
                        std::span<const double> mass) noexcept;
[[nodiscard]] Cov2 covariance(const GridShape& shape,
                              std::span<const double> mass) noexcept;
/// Center of the highest-mass cell (the MAP estimate at grid resolution).
[[nodiscard]] Vec2 argmax(const GridShape& shape,
                          std::span<const double> mass) noexcept;
/// Shannon entropy in nats; uniform gives log(cell_count).
[[nodiscard]] double entropy(std::span<const double> mass) noexcept;
/// Half L1 distance between two beliefs (total variation), in [0, 1].
[[nodiscard]] double total_variation(std::span<const double> a,
                                     std::span<const double> b);

/// Top cells covering `mass_fraction` of probability, capped at
/// `max_cells`; mass renormalized over the kept cells. Writes into `out`
/// (cleared first, capacity reused) and uses `order_scratch` for the
/// partial sort — the allocation-free form the engine's publish loop runs
/// every round.
void sparsify_into(std::span<const double> mass, double mass_fraction,
                   std::size_t max_cells, SparseBelief& out,
                   std::vector<std::uint32_t>& order_scratch);

/// Maximum entry of a non-negative buffer (0 for an empty or all-zero
/// one). Bit-equal to a std::max_element scan — max is exact under any
/// association — so every SIMD mode returns the same value.
double peak(std::span<const double> mass) noexcept;

// --- Box-restricted variants (pyramid ROI) -------------------------------
// Caller invariant: mass outside `box` is exactly zero. Each delegates to
// the whole-buffer form when the box covers the grid.

/// Fold one message into a running product inside the box, in one pass:
/// out = (in / pending) * (t(factor) + floor), and clear `factor` in the
/// box (simd::fold; t is 1 - P(link) for a `nonlink` message). `pending`
/// is the normalizer `in` still owes (1.0 for a normalized `in`); `out`
/// may alias `in`. Returns the normalizer `out` owes: the box sum, or 1.0
/// after the uniform-in-box fallback when that sum is not positive. Per
/// cell this is the historical normalize, transform and multiply, so the
/// result is bit-identical to applying them in turn.
[[nodiscard]] double fold_in(std::span<double> out, std::span<const double> in,
                             double pending, std::span<double> factor,
                             double floor, bool nonlink, std::size_t side,
                             const CellBox& box);

/// Renormalize over the box (uniform-in-box fallback).
void normalize_in(std::span<double> mass, std::size_t side,
                  const CellBox& box) noexcept;

/// Settle a belief inside the box, in one pass: belief = (1-lambda) *
/// (in / pending) + lambda * belief (simd::settle). Returns the total
/// variation between the old and new belief — bit-identical to normalize,
/// damp, total_variation_in and copy_in applied in turn.
[[nodiscard]] double settle_in(std::span<double> belief,
                               std::span<const double> in, double pending,
                               double lambda, std::size_t side,
                               const CellBox& box);

/// Half L1 distance when both buffers are zero outside the box.
[[nodiscard]] double total_variation_in(std::span<const double> a,
                                        std::span<const double> b,
                                        std::size_t side, const CellBox& box);

/// Copy the box rows of `from` onto `to` (outside the box `to` is
/// untouched; callers keep it zero).
void copy_in(std::span<const double> from, std::span<double> to,
             std::size_t side, const CellBox& box) noexcept;

/// Zero everything outside the box, renormalize inside (uniform-in-box
/// fallback). Used to mask a level's prior to a node's ROI.
void mask_in(std::span<double> mass, std::size_t side, const CellBox& box);

/// Rasterize a prior inside the box only (density at cell centers,
/// normalized over the box; uniform-in-box fallback). Caller keeps the
/// outside zero — equivalent to set_from_prior + mask_in without paying
/// for the cells the mask would discard.
void set_from_prior_in(const GridShape& shape, std::span<double> mass,
                       const PositionPrior& prior, const CellBox& box);

/// Bounding box of cells with mass >= peak * peak_fraction. Full grid when
/// the buffer has no positive mass.
[[nodiscard]] CellBox support_box(std::span<const double> mass,
                                  std::size_t side,
                                  double peak_fraction) noexcept;

/// sparsify_into restricted to the box: only box cells are candidates for
/// the partial sort. With the zero-outside invariant the selected set is
/// the same as the whole-grid scan's (ties aside), at box cost.
void sparsify_in(std::span<const double> mass, std::size_t side,
                 const CellBox& box, double mass_fraction,
                 std::size_t max_cells, SparseBelief& out,
                 std::vector<std::uint32_t>& order_scratch);

}  // namespace beliefops

/// Flat SoA arena for `count` same-shape beliefs: one contiguous buffer,
/// belief i at [i*cells, (i+1)*cells). The grid engine keeps its three
/// per-node belief sets (current, prior, last-published) in stores instead
/// of vectors of GridBelief, so a 200-node run touches three allocations
/// instead of six hundred.
class BeliefStore {
 public:
  /// Every slice zero.
  BeliefStore(const GridShape& shape, std::size_t count)
      : shape_(shape),
        cells_(shape.cell_count()),
        size_(count * cells_),
        data_(std::make_unique<double[]>(size_)) {}

  /// Tag for the constructor that leaves the slices uninitialized.
  struct Uninitialized {};
  /// Slices hold indeterminate values until written. For callers that
  /// write every slice before reading it: a large store is then first
  /// touched by whichever threads fill its slices, not zeroed serially.
  BeliefStore(const GridShape& shape, std::size_t count, Uninitialized)
      : shape_(shape),
        cells_(shape.cell_count()),
        size_(count * cells_),
        data_(std::make_unique_for_overwrite<double[]>(size_)) {}

  [[nodiscard]] const GridShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t count() const noexcept {
    return cells_ ? size_ / cells_ : 0;
  }
  [[nodiscard]] std::size_t cells() const noexcept { return cells_; }

  [[nodiscard]] std::span<double> operator[](std::size_t i) noexcept {
    return {data_.get() + i * cells_, cells_};
  }
  [[nodiscard]] std::span<const double> operator[](
      std::size_t i) const noexcept {
    return {data_.get() + i * cells_, cells_};
  }

 private:
  GridShape shape_;
  std::size_t cells_;
  std::size_t size_;
  std::unique_ptr<double[]> data_;
};

/// Copy one belief slice onto another (any mix of stores/spans).
void copy_belief(std::span<const double> from, std::span<double> to) noexcept;

class GridBelief {
 public:
  GridBelief(const Aabb& field, std::size_t cells_per_side);

  [[nodiscard]] std::size_t side() const noexcept { return shape_.side; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return mass_.size();
  }
  [[nodiscard]] const Aabb& field() const noexcept { return shape_.field; }
  [[nodiscard]] double cell_size() const noexcept {
    return shape_.cell_width();
  }
  [[nodiscard]] const GridShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::span<const double> mass() const noexcept {
    return mass_;
  }

  [[nodiscard]] Vec2 cell_center(std::size_t cell) const noexcept {
    return shape_.cell_center(cell);
  }
  [[nodiscard]] std::size_t cell_at(Vec2 p) const noexcept {
    return shape_.cell_at(p);
  }

  /// Reset to the uniform distribution.
  void set_uniform() noexcept { beliefops::set_uniform(mass_); }
  /// Rasterize a prior (density at cell centers, then normalize).
  void set_from_prior(const PositionPrior& prior) {
    beliefops::set_from_prior(shape_, mass_, prior);
  }
  /// All mass in the cell containing p (anchor delta).
  void set_delta(Vec2 p) noexcept { beliefops::set_delta(shape_, mass_, p); }

  /// Pointwise multiply by a non-negative factor grid (same shape), with an
  /// additive floor that prevents conflicting evidence from zeroing the
  /// belief; renormalizes. `factor` need not be normalized.
  void multiply(std::span<const double> factor, double floor) {
    beliefops::multiply(mass_, factor, floor);
  }

  /// Linear damping: this = (1-lambda)*this + lambda*previous.
  void mix_with(const GridBelief& previous, double lambda) noexcept {
    beliefops::mix(mass_, previous.mass_, lambda);
  }

  void normalize() noexcept { beliefops::normalize(mass_); }

  [[nodiscard]] Vec2 mean() const noexcept {
    return beliefops::mean(shape_, mass_);
  }
  [[nodiscard]] Cov2 covariance() const noexcept {
    return beliefops::covariance(shape_, mass_);
  }
  /// Center of the highest-mass cell (the MAP estimate at grid resolution).
  [[nodiscard]] Vec2 argmax() const noexcept {
    return beliefops::argmax(shape_, mass_);
  }
  /// Shannon entropy in nats; uniform gives log(cell_count).
  [[nodiscard]] double entropy() const noexcept {
    return beliefops::entropy(mass_);
  }
  /// Half L1 distance to another belief (total variation), in [0, 1].
  [[nodiscard]] double total_variation(const GridBelief& other) const {
    return beliefops::total_variation(mass_, other.mass_);
  }

  /// Top cells covering `mass_fraction` of probability, capped at
  /// `max_cells`; mass renormalized over the kept cells.
  [[nodiscard]] SparseBelief sparsify(double mass_fraction,
                                      std::size_t max_cells) const;

 private:
  GridShape shape_;
  std::vector<double> mass_;
};

}  // namespace bnloc
