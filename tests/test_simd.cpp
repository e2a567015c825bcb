// Scalar-vs-vector equivalence for the runtime-dispatched SIMD primitives
// (support/simd.hpp) and the beliefops built on them.
//
// Contract under test (see the simd.hpp header):
//  * element-wise primitives (div_all, axpy, mix, the dst update of
//    mul_add_floor_sum) perform the same per-element operations in every
//    mode, so their outputs are bit-identical to scalar;
//  * reductions (sum, l1_diff, the return of mul_add_floor_sum) may
//    reassociate across lanes, so they agree within a tight relative
//    tolerance; max0 is exact under any association;
//  * odd lengths exercise the vector tail handling — lengths and grid
//    sides here are chosen to leave 1..3 remainder elements per lane width;
//  * the fused update primitives (fold, settle) are bit-equal, outputs and
//    returned sums alike, to the composition of primitives they replace in
//    the same mode — same per-lane accumulators (4 on AVX2, 2 on SSE2 and
//    NEON, sequential on scalar), same per-element operation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "core/grid_bncl.hpp"
#include "inference/grid_belief.hpp"
#include "support/simd.hpp"

namespace bnloc {
namespace {

/// Every distinct dispatch mode this build + CPU can actually run,
/// starting with scalar (the reference).
std::vector<simd::Mode> available_modes() {
  const simd::Mode session = simd::active_mode();
  std::vector<simd::Mode> modes{simd::Mode::scalar};
  for (const simd::Mode want :
       {simd::Mode::sse2, simd::Mode::avx2, simd::Mode::neon}) {
    simd::set_mode(want);
    const simd::Mode got = simd::active_mode();
    bool seen = false;
    for (const simd::Mode m : modes) seen = seen || m == got;
    if (!seen) modes.push_back(got);
  }
  simd::set_mode(session);
  return modes;
}

std::vector<double> random_buffer(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(gen);
  return v;
}

/// Odd lengths around every lane width (2, 4) plus odd grid sides squared.
const std::size_t kLengths[] = {0,  1,  2,  3,   5,   7,   8,    9,
                                15, 17, 31, 33,  49,  63,  65,   17 * 17,
                                31 * 31, 49 * 49};

/// Bitwise equality: distinguishes -0.0 from 0.0 and compares NaN payloads.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) { return same_bits(x, y); });
}

bool all_zero(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return same_bits(x, 0.0); });
}

/// The grid engine's non-link message transform m = 1 - P(link), capped.
void nonlink_transform(std::vector<double>& f) {
  for (double& x : f) x = std::max(0.0, 1.0 - std::min(x, 1.0));
}

class SimdModes : public ::testing::Test {
 protected:
  void SetUp() override { session_ = simd::active_mode(); }
  void TearDown() override { simd::set_mode(session_); }
  simd::Mode session_;
};

TEST_F(SimdModes, ModeRoundTripsAndNamesResolve) {
  for (const simd::Mode m : available_modes()) {
    simd::set_mode(m);
    EXPECT_EQ(simd::active_mode(), m);
    EXPECT_NE(simd::active_name(), nullptr);
  }
  // auto_detect resolves to a concrete mode, never auto itself.
  simd::set_mode(simd::Mode::auto_detect);
  EXPECT_NE(simd::active_mode(), simd::Mode::auto_detect);
}

TEST_F(SimdModes, ElementwisePrimitivesBitIdenticalAtEveryLength) {
  for (const std::size_t n : kLengths) {
    const std::vector<double> base = random_buffer(n, 100 + n);
    const std::vector<double> other = random_buffer(n, 200 + n);
    for (const simd::Mode m : available_modes()) {
      if (m == simd::Mode::scalar) continue;

      std::vector<double> a = base, b = base;
      simd::set_mode(simd::Mode::scalar);
      simd::div_all(a.data(), 3.7, n);
      simd::set_mode(m);
      simd::div_all(b.data(), 3.7, n);
      EXPECT_EQ(a, b) << "div_all n=" << n;

      a = base;
      b = base;
      simd::set_mode(simd::Mode::scalar);
      simd::axpy(a.data(), other.data(), 0.83, n);
      simd::set_mode(m);
      simd::axpy(b.data(), other.data(), 0.83, n);
      EXPECT_EQ(a, b) << "axpy n=" << n;

      a = base;
      b = base;
      simd::set_mode(simd::Mode::scalar);
      simd::mix(a.data(), other.data(), 0.25, n);
      simd::set_mode(m);
      simd::mix(b.data(), other.data(), 0.25, n);
      EXPECT_EQ(a, b) << "mix n=" << n;

      a = base;
      b = base;
      simd::set_mode(simd::Mode::scalar);
      simd::mul_add_floor_sum(a.data(), other.data(), 1e-9, n);
      simd::set_mode(m);
      simd::mul_add_floor_sum(b.data(), other.data(), 1e-9, n);
      EXPECT_EQ(a, b) << "mul_add_floor_sum dst n=" << n;
    }
  }
}

TEST_F(SimdModes, ReductionsAgreeWithinTolerance) {
  for (const std::size_t n : kLengths) {
    const std::vector<double> a = random_buffer(n, 300 + n);
    const std::vector<double> b = random_buffer(n, 400 + n);
    simd::set_mode(simd::Mode::scalar);
    const double sum_ref = simd::sum(a.data(), n);
    const double l1_ref = simd::l1_diff(a.data(), b.data(), n);
    const double max_ref = simd::max0(a.data(), n);
    std::vector<double> dst_ref = a;
    const double mafs_ref =
        simd::mul_add_floor_sum(dst_ref.data(), b.data(), 1e-9, n);

    for (const simd::Mode m : available_modes()) {
      if (m == simd::Mode::scalar) continue;
      simd::set_mode(m);
      EXPECT_NEAR(simd::sum(a.data(), n), sum_ref, 1e-12 * (1.0 + sum_ref))
          << "sum n=" << n;
      EXPECT_NEAR(simd::l1_diff(a.data(), b.data(), n), l1_ref,
                  1e-12 * (1.0 + l1_ref))
          << "l1_diff n=" << n;
      // Max is exact under any association.
      EXPECT_EQ(simd::max0(a.data(), n), max_ref) << "max0 n=" << n;
      std::vector<double> dst = a;
      EXPECT_NEAR(simd::mul_add_floor_sum(dst.data(), b.data(), 1e-9, n),
                  mafs_ref, 1e-12 * (1.0 + mafs_ref))
          << "mul_add_floor_sum n=" << n;
    }
  }
}

// fold == div_all (skipped at pending 1, where x / 1.0 is exact), the
// non-link transform, then mul_add_floor_sum — in every mode, at every
// length 0..67 (each lane width's tails), in place and out of place — and
// it hands the message buffer back all zero.
TEST_F(SimdModes, FoldBitEqualsDivTransformMultiply) {
  for (const simd::Mode m : available_modes()) {
    simd::set_mode(m);
    for (std::size_t n = 0; n <= 67; ++n) {
      const std::vector<double> in = random_buffer(n, 900 + n);
      // Overlapping kernels push a non-link accumulation past 1: cover it.
      std::vector<double> fac = random_buffer(n, 1000 + n);
      for (double& x : fac) x *= 1.5;
      for (const bool nonlink : {false, true})
        for (const double pending : {1.0, 3.7}) {
          std::vector<double> ref = in, f = fac;
          if (pending != 1.0) simd::div_all(ref.data(), pending, n);
          if (nonlink) nonlink_transform(f);
          const double total_ref =
              simd::mul_add_floor_sum(ref.data(), f.data(), 1e-9, n);

          std::vector<double> out(n, -1.0), msg = fac;
          const double total = simd::fold(out.data(), in.data(), pending,
                                          msg.data(), 1e-9, nonlink, n);
          EXPECT_TRUE(same_bits(out, ref))
              << simd::active_name() << " n=" << n << " nonlink=" << nonlink
              << " pending=" << pending;
          EXPECT_TRUE(same_bits(total, total_ref))
              << simd::active_name() << " n=" << n << " sum";
          EXPECT_TRUE(all_zero(msg)) << simd::active_name() << " n=" << n;

          // In place, as the engine folds every message after the first.
          std::vector<double> inplace = in;
          msg = fac;
          EXPECT_TRUE(same_bits(
              simd::fold(inplace.data(), inplace.data(), pending, msg.data(),
                         1e-9, nonlink, n),
              total_ref));
          EXPECT_TRUE(same_bits(inplace, ref))
              << simd::active_name() << " in place n=" << n;
          EXPECT_TRUE(all_zero(msg));
        }
    }
  }
}

// A product with no mass sums to exactly zero (the engine's cue for its
// uniform fallback) and still clears the message.
TEST_F(SimdModes, FoldOfZeroInputSumsToZeroAndClears) {
  for (const simd::Mode m : available_modes()) {
    simd::set_mode(m);
    for (const std::size_t n : {0UL, 1UL, 5UL, 67UL}) {
      const std::vector<double> in(n, 0.0);
      for (const bool nonlink : {false, true}) {
        std::vector<double> out(n, 9.0), msg = random_buffer(n, 1100 + n);
        EXPECT_TRUE(same_bits(simd::fold(out.data(), in.data(), 1.0,
                                         msg.data(), 1e-9, nonlink, n),
                              0.0))
            << simd::active_name() << " n=" << n;
        EXPECT_TRUE(all_zero(out));
        EXPECT_TRUE(all_zero(msg));
      }
    }
  }
}

// settle == div_all, mix, l1_diff against the old belief, then a copy.
TEST_F(SimdModes, SettleBitEqualsDivMixResidualCopy) {
  for (const simd::Mode m : available_modes()) {
    simd::set_mode(m);
    for (std::size_t n = 0; n <= 67; ++n) {
      const std::vector<double> in = random_buffer(n, 1200 + n);
      const std::vector<double> old = random_buffer(n, 1300 + n);
      for (const double pending : {1.0, 3.7}) {
        std::vector<double> next = in;
        if (pending != 1.0) simd::div_all(next.data(), pending, n);
        simd::mix(next.data(), old.data(), 0.3, n);
        const double l1_ref = simd::l1_diff(next.data(), old.data(), n);

        std::vector<double> belief = old;
        const double l1 =
            simd::settle(belief.data(), in.data(), pending, 0.3, n);
        EXPECT_TRUE(same_bits(belief, next))
            << simd::active_name() << " n=" << n << " pending=" << pending;
        EXPECT_TRUE(same_bits(l1, l1_ref))
            << simd::active_name() << " n=" << n << " residual";
      }
    }
  }
}

// beliefops::fold_in on a sub-box: row-by-row folds, the factor cleared in
// the box only, and a zero box sum falls back to uniform-in-box with the
// pending normalizer reset to 1.
TEST_F(SimdModes, FoldInClearsBoxAndFallsBackToUniform) {
  constexpr std::size_t side = 17;
  const CellBox box{3, 11, 4, 14};
  for (const simd::Mode m : available_modes()) {
    simd::set_mode(m);
    std::vector<double> in = random_buffer(side * side, 1400);
    std::vector<double> factor = random_buffer(side * side, 1500);
    const std::vector<double> factor0 = factor;
    std::vector<double> out(side * side, 0.0);
    const double pending = beliefops::fold_in(out, in, 2.0, factor, 1e-9,
                                              false, side, box);
    double total = 0.0;
    for (std::int32_t y = box.y0; y <= box.y1; ++y) {
      const std::size_t off = static_cast<std::size_t>(y) * side +
                              static_cast<std::size_t>(box.x0);
      std::vector<double> row(in.begin() + static_cast<std::ptrdiff_t>(off),
                              in.begin() + static_cast<std::ptrdiff_t>(
                                               off + box.width()));
      simd::div_all(row.data(), 2.0, row.size());
      total += simd::mul_add_floor_sum(row.data(), factor0.data() + off, 1e-9,
                                       row.size());
      for (std::size_t t = 0; t < row.size(); ++t)
        ASSERT_TRUE(same_bits(out[off + t], row[t])) << "cell " << off + t;
    }
    EXPECT_TRUE(same_bits(pending, total)) << simd::active_name();
    for (std::size_t c = 0; c < factor.size(); ++c) {
      const auto x = static_cast<std::int32_t>(c % side);
      const auto y = static_cast<std::int32_t>(c / side);
      const bool inside =
          x >= box.x0 && x <= box.x1 && y >= box.y0 && y <= box.y1;
      ASSERT_TRUE(same_bits(factor[c], inside ? 0.0 : factor0[c]))
          << "cell " << c;
    }

    std::ranges::fill(in, 0.0);
    factor = factor0;
    EXPECT_EQ(beliefops::fold_in(out, in, 1.0, factor, 0.0, false, side, box),
              1.0);
    const double uniform = 1.0 / static_cast<double>(box.cell_count());
    for (std::int32_t y = box.y0; y <= box.y1; ++y)
      for (std::int32_t x = box.x0; x <= box.x1; ++x)
        ASSERT_EQ(out[static_cast<std::size_t>(y) * side +
                      static_cast<std::size_t>(x)],
                  uniform);
  }
}

// beliefops at odd grid sides: the dense ops route through the primitives,
// so vector modes must agree with scalar within normalization tolerance on
// grids whose row length is not a multiple of any lane width.
TEST_F(SimdModes, BeliefOpsAgreeAtOddGridSides) {
  for (const std::size_t side : {17UL, 31UL, 49UL}) {
    const std::size_t cells = side * side;
    const std::vector<double> mass0 = random_buffer(cells, 500 + side);
    const std::vector<double> factor = random_buffer(cells, 600 + side);

    simd::set_mode(simd::Mode::scalar);
    std::vector<double> ref = mass0;
    beliefops::multiply(ref, factor, 1e-9);
    beliefops::normalize(ref);
    const double tv_ref = beliefops::total_variation(ref, mass0);
    SparseBelief sp_ref;
    std::vector<std::uint32_t> scratch;
    beliefops::sparsify_into(ref, 0.995, 64, sp_ref, scratch);

    for (const simd::Mode m : available_modes()) {
      if (m == simd::Mode::scalar) continue;
      simd::set_mode(m);
      std::vector<double> got = mass0;
      beliefops::multiply(got, factor, 1e-9);
      beliefops::normalize(got);
      for (std::size_t c = 0; c < cells; ++c)
        ASSERT_NEAR(got[c], ref[c], 1e-12) << "side=" << side << " cell=" << c;
      EXPECT_NEAR(beliefops::total_variation(got, mass0), tv_ref, 1e-9)
          << "side=" << side;
      SparseBelief sp;
      beliefops::sparsify_into(got, 0.995, 64, sp, scratch);
      ASSERT_EQ(sp.cells.size(), sp_ref.cells.size()) << "side=" << side;
      EXPECT_EQ(sp.cells, sp_ref.cells) << "side=" << side;
    }
  }
}

// The _in (CellBox-restricted) spellings must match the whole-buffer forms
// when the mass outside the box is zero — at odd sides, where every box row
// is an odd-length slice. Only the full box promises bit-identity (it
// delegates to the whole-buffer form); a sub-box accumulates its
// normalization sum row by row, a different association than the continuous
// whole-buffer sweep, so cells may differ in the last ulps in any mode.
TEST_F(SimdModes, BoxRestrictedOpsMatchWholeBufferOnOddSides) {
  for (const std::size_t side : {17UL, 31UL, 49UL}) {
    const std::size_t cells = side * side;
    const auto s = static_cast<std::int32_t>(side);
    const CellBox box{s / 4, 3 * s / 4, s / 3, s - 2};

    // Mass supported only inside the box (the caller invariant).
    std::vector<double> inside(cells, 0.0);
    const std::vector<double> noise = random_buffer(cells, 700 + side);
    for (std::int32_t y = box.y0; y <= box.y1; ++y)
      for (std::int32_t x = box.x0; x <= box.x1; ++x)
        inside[static_cast<std::size_t>(y) * side +
               static_cast<std::size_t>(x)] =
            noise[static_cast<std::size_t>(y) * side +
                  static_cast<std::size_t>(x)];
    const std::vector<double> factor = random_buffer(cells, 800 + side);

    for (const simd::Mode m : available_modes()) {
      simd::set_mode(m);
      std::vector<double> whole = inside, boxed = inside;
      beliefops::multiply(whole, factor, 1e-9);
      beliefops::normalize(whole);
      std::vector<double> message = factor;  // fold_in clears it
      (void)beliefops::fold_in(boxed, boxed, 1.0, message, 1e-9, false, side,
                               box);
      beliefops::normalize_in(boxed, side, box);
      for (std::int32_t y = box.y0; y <= box.y1; ++y)
        for (std::int32_t x = box.x0; x <= box.x1; ++x) {
          const std::size_t c = static_cast<std::size_t>(y) * side +
                                static_cast<std::size_t>(x);
          ASSERT_NEAR(whole[c], boxed[c], 1e-12)
              << "mode=" << static_cast<int>(m) << " side=" << side;
        }
      const double tv = beliefops::total_variation(whole, inside);
      EXPECT_NEAR(tv, beliefops::total_variation_in(boxed, inside, side, box),
                  1e-12 * (1.0 + tv))
          << "side=" << side;
    }
  }
}

// End to end: the grid engine's localization estimates under the widest
// available vector mode agree with the scalar path to 1e-9 of a field unit
// — the acceptance bar that gates leaving vector dispatch on by default.
TEST_F(SimdModes, GridEngineEstimatesMatchScalarWithin1e9) {
  simd::set_mode(simd::Mode::auto_detect);
  if (simd::active_mode() == simd::Mode::scalar)
    GTEST_SKIP() << "no vector unit available in this build";

  ScenarioConfig cfg;
  cfg.node_count = 120;
  cfg.anchor_fraction = 0.12;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = 33;
  const Scenario s = build_scenario(cfg);
  const GridBncl engine;

  simd::set_mode(simd::Mode::scalar);
  Rng r1(7);
  const auto scalar_run = engine.localize(s, r1);
  simd::set_mode(simd::Mode::auto_detect);
  Rng r2(7);
  const auto vector_run = engine.localize(s, r2);

  ASSERT_EQ(scalar_run.estimates.size(), vector_run.estimates.size());
  for (std::size_t i = 0; i < scalar_run.estimates.size(); ++i) {
    ASSERT_EQ(scalar_run.estimates[i].has_value(),
              vector_run.estimates[i].has_value());
    if (!scalar_run.estimates[i].has_value()) continue;
    const Vec2 a = *scalar_run.estimates[i];
    const Vec2 b = *vector_run.estimates[i];
    EXPECT_NEAR(a.x, b.x, 1e-9) << "node " << i;
    EXPECT_NEAR(a.y, b.y, 1e-9) << "node " << i;
  }
}

}  // namespace
}  // namespace bnloc
