// Portable SIMD belief primitives with runtime dispatch.
//
// The dense inner loops of the grid engine — belief products (fold),
// damping with its residual (settle), normalization, peak scans,
// total-variation reductions, and the kernel replay's accumulate — all
// reduce to a handful of contiguous double-buffer operations. This header is their single home: each primitive has a scalar
// implementation that is bit-identical to the historical hand-written loop,
// plus vector implementations (AVX2 / SSE2 on x86-64, NEON on aarch64)
// selected once at runtime from CPU capabilities.
//
// Dispatch contract:
//  * The scalar path reproduces the pre-SIMD loops exactly — same
//    expressions, same evaluation order — so `BNLOC_SIMD=off` (or
//    `set_mode(Mode::scalar)`) makes every consumer bit-identical to the
//    historical engine.
//  * Vector paths may reassociate reductions (partial sums per lane), so
//    their results can differ from scalar in the last ulps. They are gated
//    by the scalar-vs-SIMD equivalence suite (tests/test_simd.cpp and the
//    CI `BNLOC_SIMD=off` leg): aggregate engine outputs agree within 1e-9.
//  * Dispatch is resolved once (env `BNLOC_SIMD`, then CPU detection) and
//    never changes mid-run unless `set_mode` is called, so results are
//    deterministic for a fixed build + environment.
//
// Env override (read at first use): BNLOC_SIMD=off|scalar|sse2|avx2|neon|auto.
// Unavailable requests degrade to the best available lane width.
#pragma once

#include <cstddef>

namespace bnloc::simd {

/// Instruction-set selection. `auto_detect` picks the widest lane the CPU
/// (and build) supports; the rest force a specific implementation, falling
/// back to scalar when the request is unavailable on this build/CPU.
enum class Mode { auto_detect, scalar, sse2, avx2, neon };

/// Force a dispatch mode (tests and benches use this to compare scalar and
/// vector paths in one process). Thread-safe; takes effect on the next
/// primitive call. `Mode::auto_detect` re-runs env + CPU detection.
void set_mode(Mode mode) noexcept;

/// The mode actually in use after detection/fallback (never auto_detect).
[[nodiscard]] Mode active_mode() noexcept;

/// Human-readable name of the active mode ("scalar", "sse2", ...).
[[nodiscard]] const char* active_name() noexcept;

// --- Primitives ----------------------------------------------------------
// All operate on contiguous double buffers of length n; all tolerate n == 0.

/// dst[i] *= factor[i] + floor; returns the sum of the updated entries.
/// (The belief-product kernel: multiply by a message with an additive
/// floor, returning the mass for the subsequent renormalization.)
double mul_add_floor_sum(double* dst, const double* factor, double floor,
                         std::size_t n) noexcept;

/// Sum of the buffer (normalization numerator).
[[nodiscard]] double sum(const double* p, std::size_t n) noexcept;

/// p[i] /= divisor. Kept as a division (not a reciprocal multiply) so the
/// scalar path matches the historical normalize loop bit for bit.
void div_all(double* p, double divisor, std::size_t n) noexcept;

/// Maximum entry of a non-negative buffer, starting from 0.0 (so an empty
/// or all-zero buffer yields 0). Max is exact under any association, so
/// every mode returns the bit-same value.
[[nodiscard]] double max0(const double* p, std::size_t n) noexcept;

/// Sum of |a[i] - b[i]| (total-variation numerator).
[[nodiscard]] double l1_diff(const double* a, const double* b,
                             std::size_t n) noexcept;

/// out[i] += m * w[i] (the kernel replay's interior run accumulation).
void axpy(double* out, const double* w, double m, std::size_t n) noexcept;

/// mass[i] = (1 - lambda) * mass[i] + lambda * prev[i] (belief damping).
void mix(double* mass, const double* prev, double lambda,
         std::size_t n) noexcept;

/// Fold one message into a running belief product, clearing the message:
///   out[i] = (in[i] / pending) * (t(fac[i]) + floor);  fac[i] = 0
/// where t is the identity, or for a `nonlink` message the negative
/// evidence t(f) = max(0, 1 - min(f, 1)). Returns the sum of the written
/// entries. `pending` is the normalizer `in` still owes (x / 1.0 is exact);
/// `out` may alias `in`, `fac` aliases neither. Per element and per lane
/// this is div_all, the non-link transform and mul_add_floor_sum in that
/// order, so outputs and sum are bit-equal to that composition in the
/// same mode.
double fold(double* out, const double* in, double pending, double* fac,
            double floor, bool nonlink, std::size_t n) noexcept;

/// Damp a belief toward its new product and measure the move:
///   v = (1 - lambda) * (in[i] / pending) + lambda * belief[i];
///   l1 += |v - belief[i]|;  belief[i] = v.
/// Returns l1. Bit-equal to div_all, mix, l1_diff and a copy in the same
/// mode.
double settle(double* belief, const double* in, double pending,
              double lambda, std::size_t n) noexcept;

}  // namespace bnloc::simd
