// Unit tests for annulus/disk message kernels (inference/range_kernel.hpp).
#include "inference/range_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bnloc {
namespace {

RangingSpec gaussian_spec(double noise, double range) {
  RangingSpec s;
  s.type = RangingType::gaussian;
  s.noise_factor = noise;
  s.range = range;
  return s;
}

TEST(RangeKernel, AccumulateFromDeltaDrawsAnnulus) {
  const GridBelief shape(Aabb::unit(), 32);
  const RangingSpec spec = gaussian_spec(0.1, 0.15);
  const double measured = 0.2;
  const RangeKernel k = RangeKernel::make_range(measured, spec, shape);
  ASSERT_GT(k.stamp_count(), 0u);

  // Source: delta at the grid center.
  GridBelief src(Aabb::unit(), 32);
  src.set_delta({0.5, 0.5});
  const SparseBelief sp = src.sparsify(1.0, 4);

  std::vector<double> out(32 * 32, 0.0);
  k.accumulate(sp, out, 32);

  // The output must peak at cells whose center distance to (0.5, 0.5) is
  // close to `measured`, and be zero well inside/outside the annulus.
  const double sigma = spec.sigma_at(measured);
  double peak = *std::max_element(out.begin(), out.end());
  ASSERT_GT(peak, 0.0);
  for (std::size_t c = 0; c < out.size(); ++c) {
    const double r = distance(shape.cell_center(c), src.mean());
    if (out[c] > 0.5 * peak) {
      EXPECT_NEAR(r, measured, 3.0 * sigma + 0.05);
    }
    if (std::abs(r - measured) > 4.0 * sigma + 0.1) {
      EXPECT_EQ(out[c], 0.0);
    }
  }
}

TEST(RangeKernel, MatchesBruteForceConvolution) {
  const std::size_t side = 24;
  const GridBelief shape(Aabb::unit(), side);
  const RangingSpec spec = gaussian_spec(0.15, 0.2);
  const double measured = 0.25;
  const RangeKernel k = RangeKernel::make_range(measured, spec, shape);

  // A two-cell sparse source.
  GridBelief src(Aabb::unit(), side);
  SparseBelief sp;
  sp.cells = {static_cast<std::uint32_t>(src.cell_at({0.3, 0.4})),
              static_cast<std::uint32_t>(src.cell_at({0.7, 0.6}))};
  sp.mass = {0.6f, 0.4f};

  std::vector<double> fast(side * side, 0.0);
  k.accumulate(sp, fast, side);

  // Brute force: for every target cell, sum the spec likelihood over the
  // two sources — up to the kernel's peak normalization and truncation.
  std::vector<double> slow(side * side, 0.0);
  for (std::size_t c = 0; c < slow.size(); ++c) {
    for (std::size_t s = 0; s < sp.cells.size(); ++s) {
      const double r = distance(shape.cell_center(c),
                                shape.cell_center(sp.cells[s]));
      slow[c] += sp.mass[s] * spec.likelihood(measured, r);
    }
  }
  const double fast_peak = *std::max_element(fast.begin(), fast.end());
  const double slow_peak = *std::max_element(slow.begin(), slow.end());
  ASSERT_GT(fast_peak, 0.0);
  for (std::size_t c = 0; c < slow.size(); ++c) {
    // Allow truncation differences at the annulus tails.
    EXPECT_NEAR(fast[c] / fast_peak, slow[c] / slow_peak, 0.05)
        << "cell " << c;
  }
}

TEST(RangeKernel, StampWeightsPeakAtOne) {
  const GridBelief shape(Aabb::unit(), 32);
  const RangeKernel k =
      RangeKernel::make_range(0.15, gaussian_spec(0.1, 0.15), shape);
  GridBelief src(Aabb::unit(), 32);
  src.set_delta({0.5, 0.5});
  std::vector<double> out(32 * 32, 0.0);
  k.accumulate(src.sparsify(1.0, 1), out, 32);
  EXPECT_NEAR(*std::max_element(out.begin(), out.end()), 1.0, 0.05);
}

TEST(RangeKernel, LargerNoiseGivesThickerAnnulus) {
  const GridBelief shape(Aabb::unit(), 48);
  const RangeKernel thin =
      RangeKernel::make_range(0.2, gaussian_spec(0.05, 0.15), shape);
  const RangeKernel thick =
      RangeKernel::make_range(0.2, gaussian_spec(0.2, 0.15), shape);
  EXPECT_GT(thick.stamp_count(), thin.stamp_count());
}

TEST(RangeKernel, EdgeClippingDropsOutOfGridStamps) {
  const GridBelief shape(Aabb::unit(), 16);
  const RangeKernel k =
      RangeKernel::make_range(0.3, gaussian_spec(0.1, 0.15), shape);
  // Source at the corner: most of the annulus is outside the grid.
  GridBelief src(Aabb::unit(), 16);
  src.set_delta({0.01, 0.01});
  std::vector<double> out(16 * 16, 0.0);
  k.accumulate(src.sparsify(1.0, 1), out, 16);
  // No out-of-bounds write happened (ASAN-level check is implicit) and the
  // in-grid quarter annulus is present.
  EXPECT_GT(*std::max_element(out.begin(), out.end()), 0.0);
}

// The non-clearing correlate the grid engine runs: into a buffer that is
// already zero it must reproduce the clearing form bit for bit, whole-grid
// and under a ROI clip, and return the same peak.
TEST(RangeKernel, CorrelateIntoZeroMatchesClearingForm) {
  constexpr std::size_t side = 33;  // odd rows exercise every SIMD tail
  const GridBelief shape(Aabb::unit(), side);
  const RangeKernel k =
      RangeKernel::make_range(0.25, gaussian_spec(0.1, 0.3), shape);
  GridBelief src(Aabb::unit(), side);
  src.set_from_prior(*GaussianPrior::isotropic({0.4, 0.55}, 0.05));
  const SparseBelief sp = src.sparsify(0.995, 32);
  ASSERT_GT(sp.size(), 1u);

  const CellBox clip{5, 27, 9, 30};
  for (const CellBox* box : {static_cast<const CellBox*>(nullptr), &clip}) {
    // The clearing form starts from garbage; the other from zeros.
    std::vector<double> cleared(side * side, 7.5), zeroed(side * side, 0.0);
    const double peak_cleared = k.correlate(sp, cleared, side, box);
    const double peak_zeroed = k.correlate_zeroed(sp, zeroed, side, box);
    ASSERT_GT(peak_cleared, 0.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(peak_cleared),
              std::bit_cast<std::uint64_t>(peak_zeroed));
    const CellBox rows = box ? *box : CellBox::full(side);
    for (std::int32_t y = rows.y0; y <= rows.y1; ++y)
      for (std::int32_t x = rows.x0; x <= rows.x1; ++x) {
        const std::size_t c = static_cast<std::size_t>(y) * side +
                              static_cast<std::size_t>(x);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(cleared[c]),
                  std::bit_cast<std::uint64_t>(zeroed[c]))
            << (box ? "clipped" : "full") << " cell " << c;
      }
    // Outside the clip the non-clearing form wrote nothing.
    if (box) {
      for (std::size_t c = 0; c < zeroed.size(); ++c) {
        const auto x = static_cast<std::int32_t>(c % side);
        const auto y = static_cast<std::int32_t>(c / side);
        if (x < clip.x0 || x > clip.x1 || y < clip.y0 || y > clip.y1) {
          ASSERT_EQ(zeroed[c], 0.0) << "cell " << c;
        }
      }
    }
  }
}

// A message that puts no mass in range is skipped by the engine without a
// fold to clear it, so the zero-peak return must leave the buffer zero —
// for a summary of zero masses and for one whose footprint misses the clip.
TEST(RangeKernel, CorrelateZeroPeakLeavesBufferZero) {
  constexpr std::size_t side = 32;
  const GridBelief shape(Aabb::unit(), side);
  const RangeKernel k =
      RangeKernel::make_range(0.1, gaussian_spec(0.1, 0.15), shape);

  SparseBelief massless;
  massless.cells = {static_cast<std::uint32_t>(shape.cell_at({0.5, 0.5})),
                    static_cast<std::uint32_t>(shape.cell_at({0.3, 0.6}))};
  massless.mass = {0.0F, 0.0F};
  std::vector<double> out(side * side, 0.0);
  EXPECT_EQ(k.correlate_zeroed(massless, out, side), 0.0);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](double v) { return v == 0.0; }));

  GridBelief corner(Aabb::unit(), side);
  corner.set_delta({0.02, 0.02});
  const CellBox far_box{20, 31, 20, 31};  // beyond the 0.1 + 3.5σ annulus
  EXPECT_EQ(k.correlate_zeroed(corner.sparsify(1.0, 1), out, side, &far_box),
            0.0);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](double v) { return v == 0.0; }));
}

TEST(ConnectivityKernel, DiskOfLinkProbability) {
  const GridBelief shape(Aabb::unit(), 32);
  const RadioSpec radio = make_radio(0.2, RangingType::gaussian, 0.1);
  const RangeKernel k = RangeKernel::make_connectivity(radio, shape);
  GridBelief src(Aabb::unit(), 32);
  src.set_delta({0.5, 0.5});
  std::vector<double> out(32 * 32, 0.0);
  k.accumulate(src.sparsify(1.0, 1), out, 32);
  for (std::size_t c = 0; c < out.size(); ++c) {
    const double r = distance(shape.cell_center(c), {0.5, 0.5});
    if (r < 0.2 - 0.05) {
      EXPECT_NEAR(out[c], 1.0, 1e-9);
    }
    if (r > 0.2 + 0.05) {
      EXPECT_EQ(out[c], 0.0);
    }
  }
}

TEST(ConnectivityKernel, QuasiUdgFadesWithDistance) {
  const GridBelief shape(Aabb::unit(), 32);
  const RadioSpec radio = make_radio(0.2, RangingType::gaussian, 0.1,
                                     ConnectivityType::quasi_udg, 0.5);
  const RangeKernel k = RangeKernel::make_connectivity(radio, shape);
  GridBelief src(Aabb::unit(), 32);
  src.set_delta({0.5, 0.5});
  std::vector<double> out(32 * 32, 0.0);
  k.accumulate(src.sparsify(1.0, 1), out, 32);
  const double inner = out[shape.cell_at({0.55, 0.5})];   // r=0.05
  const double middle = out[shape.cell_at({0.65, 0.5})];  // r=0.15, in band
  EXPECT_NEAR(inner, 1.0, 1e-9);
  EXPECT_GT(middle, 0.0);
  EXPECT_LT(middle, 1.0);
}

}  // namespace
}  // namespace bnloc
