// Precomputed grid kernels for belief-propagation messages.
//
// A BP message for a range measurement d is the correlation of the sender's
// belief with the radially symmetric likelihood L(d | r): an annulus of
// radius d. Because L depends only on the inter-cell offset, the annulus is
// precomputed once per measured distance as a sparse set of (dx, dy, weight)
// stamps and replayed for every active source cell — turning an O(G^4)
// convolution into O(active_cells * annulus_cells).
//
// Storage is SoA by scanline: stamps with the same dy and consecutive dx
// collapse into runs over one contiguous weight array, so the replay inner
// loop is a branch-free fused multiply-add over a dense slice (clipped once
// per run at the grid border) that auto-vectorizes — instead of a bounds
// check and a scattered write per stamp. Run iteration order equals the
// original (dy-major, dx-minor) stamp order, so accumulation is
// bit-identical to the naive loop.
//
// The same machinery with a connection-probability profile gives the
// negative-evidence kernel ("j did NOT hear i, so i is probably outside j's
// range").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "inference/grid_belief.hpp"
#include "radio/connectivity.hpp"
#include "radio/ranging.hpp"

namespace bnloc {

class RangeKernel {
 public:
  /// Annulus likelihood kernel for a measured distance under `ranging`.
  /// `trunc_sigmas` bounds the ring thickness.
  static RangeKernel make_range(double measured, const RangingSpec& ranging,
                                const GridShape& shape,
                                double trunc_sigmas = 3.5);
  /// Convenience overload taking the shape from a belief.
  static RangeKernel make_range(double measured, const RangingSpec& ranging,
                                const GridBelief& grid_shape,
                                double trunc_sigmas = 3.5) {
    return make_range(measured, ranging, grid_shape.shape(), trunc_sigmas);
  }

  /// Disk kernel of the link probability p_link(r); used for negative
  /// evidence as message = 1 - sum_y b(y) * p_link(|x - y|).
  static RangeKernel make_connectivity(const RadioSpec& radio,
                                       const GridShape& shape);
  static RangeKernel make_connectivity(const RadioSpec& radio,
                                       const GridBelief& grid_shape) {
    return make_connectivity(radio, grid_shape.shape());
  }

  /// Accumulate sum_y src(y) * K(x - y) into `out` (dense grid buffer, NOT
  /// cleared here). `side` is the grid side length. With `clip` non-null
  /// (pyramid ROI), only cells inside the box are written; the rest of
  /// `out` is untouched. Inside the clip the values are bit-identical to an
  /// unclipped replay — every output cell receives exactly one addition per
  /// stamp regardless of how the runs are traversed.
  void accumulate(const SparseBelief& src, std::span<double> out,
                  std::size_t side, const CellBox* clip = nullptr) const;

  /// The full BP message for a summary: clear `out`, correlate, normalize
  /// to peak 1. Returns the peak before normalization (0 = the summary put
  /// no mass in range — message carries no information). The peak scan and
  /// the division cover only the touched bounding box (summary extent
  /// dilated by the kernel footprint); untouched cells hold exact zeros, so
  /// the result is bit-identical to whole-grid normalization. With `clip`
  /// non-null the whole computation — clear, replay, peak, normalize — is
  /// restricted to the box: only the box rows of `out` are meaningful
  /// afterwards, and the returned peak is the in-box peak.
  double correlate(const SparseBelief& src, std::span<double> out,
                   std::size_t side, const CellBox* clip = nullptr) const;

  /// correlate() without the clear: `out` must already be zero inside the
  /// clip (the whole grid without one). Bit-identical to correlate() there.
  /// The grid engine keeps its message buffer zero between messages
  /// (simd::fold clears what it multiplies in), so it never pays for a
  /// clearing pass. A return of 0 leaves `out` zero: kernel weights and
  /// summary masses are non-negative, so a zero peak means the replay only
  /// added zeros.
  double correlate_zeroed(const SparseBelief& src, std::span<double> out,
                          std::size_t side,
                          const CellBox* clip = nullptr) const;

  [[nodiscard]] std::size_t stamp_count() const noexcept {
    return weights_.size();
  }
  /// Number of contiguous scanline runs the stamps collapsed into.
  [[nodiscard]] std::size_t run_count() const noexcept {
    return runs_.size();
  }

  /// Approximate heap footprint (run table + weights + flat offsets), for
  /// cache budget accounting.
  [[nodiscard]] std::size_t approx_bytes() const noexcept {
    return runs_.capacity() * sizeof(Run) +
           weights_.capacity() * sizeof(double) +
           flat_off_.capacity() * sizeof(std::int32_t) + sizeof(RangeKernel);
  }

  /// Visit every stamp as (dx, dy, weight) in storage order — the original
  /// dy-major / dx-minor construction order. Lets tests and benches expand
  /// the run-compressed storage back into the flat stamp list it encodes.
  template <typename Visitor>
  void for_each_stamp(Visitor&& visit) const {
    for (const Run& run : runs_)
      for (std::uint32_t t = 0; t < run.len; ++t)
        visit(run.dx0 + static_cast<std::int32_t>(t), run.dy,
              weights_[run.w0 + t]);
  }

 private:
  /// One scanline run: `len` consecutive stamps starting at offset
  /// (dx0, dy), weights at weights_[w0 .. w0+len).
  struct Run {
    std::int32_t dy;
    std::int32_t dx0;
    std::uint32_t len;
    std::uint32_t w0;
  };

  /// Append a stamp, extending the current run when contiguous.
  void push_stamp(std::int32_t dx, std::int32_t dy, double weight);

  /// Precompute the flat per-stamp cell offsets and the footprint bounds
  /// for the interior (clip-free) replay path on a `side`-wide grid.
  void finalize(std::size_t side);

  std::vector<Run> runs_;
  std::vector<double> weights_;
  /// Flat offset (dy * side + dx) per stamp in storage order, valid for
  /// grids of width side_; empty for a default-constructed kernel.
  std::vector<std::int32_t> flat_off_;
  std::int32_t side_ = 0;
  std::int32_t min_dx_ = 0, max_dx_ = -1;  ///< footprint bounds; empty
  std::int32_t min_dy_ = 0, max_dy_ = -1;  ///< kernel keeps max < min.
};

}  // namespace bnloc
