// Memoization of annulus range kernels — per run, or process-wide.
//
// Within one localize() run every link kernel is built from the same
// RangingSpec, grid shape, and truncation width — the only thing that varies
// is the measured distance. Links are symmetric (i measures the same d_ij as
// j), node degrees overlap, and quantized rangers repeat values, so a run of
// 200 nodes builds far fewer distinct kernels than it has directed links.
//
// The cache keys on the *exact* bit pattern of the measured distance
// (std::bit_cast, no quantization): two links share a kernel only when they
// would have built bit-identical kernels anyway, so the fast path cannot
// perturb a single output bit. Kernels live in a deque — addresses stay
// stable as the cache grows, so callers can hold plain pointers.
//
// The cache is internally synchronized, which makes one instance shareable
// across concurrently-running localize() calls; KernelCacheRegistry below
// hands out one process-global cache per kernel parameter set, so a fleet
// of independent requests (the serve layer, docs/SERVICE.md) that measure
// the same distance build the kernel once per process instead of once per
// run. A kernel is immutable after construction, so reading a returned
// pointer needs no further synchronization.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "inference/range_kernel.hpp"

namespace bnloc {

class ThreadPool;

class KernelCache {
 public:
  /// Fixes the kernel parameters every lookup shares. The spec and shape are
  /// copied; the cache outliving them is fine.
  KernelCache(RangingSpec ranging, GridShape shape, double trunc_sigmas = 3.5)
      : ranging_(std::move(ranging)),
        shape_(shape),
        trunc_sigmas_(trunc_sigmas) {}

  /// The annulus kernel for `measured`; built on first sight, shared after.
  /// The pointer stays valid for the cache's lifetime. Thread-safe: misses
  /// build under the internal lock (concurrent lookups of a distance the
  /// cache already holds pay one lock acquisition and no construction).
  const RangeKernel* range(double measured);

  /// Same, reporting whether this lookup built the kernel (`*built = true`,
  /// a miss) or shared an existing one. Callers metering per-run hit rates
  /// against a shared cache need the per-lookup outcome — the cumulative
  /// stats() below span every run that ever touched the cache.
  const RangeKernel* range(double measured, bool* built);

  /// Batch lookup: out[k] = range(measured[k]) for every k. Returns how
  /// many lookups built a kernel: the same built/shared split as calling
  /// range(measured[k], &built) for each k in order. Without a pool that
  /// is exactly what it does. With one, the distinct distances the cache
  /// lacks are constructed across the pool outside the lock and inserted
  /// afterwards; a distance another thread inserted in the meantime keeps
  /// the stored kernel and counts as shared.
  std::size_t range_many(std::span<const double> measured,
                         std::span<const RangeKernel*> out,
                         ThreadPool* pool = nullptr);

  struct Stats {
    std::size_t built = 0;   ///< distinct kernels constructed.
    std::size_t shared = 0;  ///< lookups served from the cache.
  };
  /// Snapshot of the cumulative counters (by value: a shared cache keeps
  /// moving underneath any reference).
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  /// Approximate heap footprint of the stored kernels, for budget trims.
  [[nodiscard]] std::size_t approx_bytes() const;

  [[nodiscard]] const RangingSpec& ranging() const noexcept {
    return ranging_;
  }
  [[nodiscard]] const GridShape& shape() const noexcept { return shape_; }
  [[nodiscard]] double trunc_sigmas() const noexcept { return trunc_sigmas_; }

 private:
  RangingSpec ranging_;
  GridShape shape_;
  double trunc_sigmas_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::deque<RangeKernel> kernels_;  ///< deque: stable addresses.
  std::size_t bytes_ = 0;
  Stats stats_;
};

/// Process-global pool of shared KernelCaches, one per kernel parameter set
/// (ranging spec, grid shape, truncation width — keyed on exact bit
/// patterns, like the distances inside each cache). Kernels are pure
/// functions of their parameters, so sharing a cache across runs, engines,
/// and tenants cannot change a single output bit; what it changes is who
/// pays construction — at fleet scale most requests find their kernels
/// already built by an earlier request (the serve layer's cross-tenant fast
/// path, `GridBnclConfig::kernel_scope = KernelScope::process`).
///
/// Lifetime contract: references returned by acquire() — and kernel
/// pointers obtained through them — stay valid until clear()/trim().
/// Those two must only be called while no localize() run is in flight;
/// BatchService trims between batches, never during one.
class KernelCacheRegistry {
 public:
  /// The process-wide instance.
  static KernelCacheRegistry& instance();

  /// The shared cache for this parameter set, created on first request.
  KernelCache& acquire(const RangingSpec& ranging, const GridShape& shape,
                       double trunc_sigmas = 3.5);

  struct Totals {
    std::size_t caches = 0;        ///< distinct parameter sets seen.
    std::size_t kernels = 0;       ///< kernels held across all caches.
    std::size_t built = 0;         ///< cumulative misses (constructions).
    std::size_t shared = 0;        ///< cumulative hits.
    std::size_t approx_bytes = 0;  ///< summed cache footprints.
  };
  [[nodiscard]] Totals totals() const;

  /// Drop every cache iff the summed footprint exceeds `max_bytes`
  /// (all-or-nothing: partial eviction would invalidate an unpredictable
  /// subset of outstanding pointers, and rebuilding is cheap relative to a
  /// batch). Returns the bytes released. See the lifetime contract above.
  std::size_t trim(std::size_t max_bytes);

  /// Unconditional trim(0); tests use it to start from a known state.
  void clear();

 private:
  KernelCacheRegistry() = default;

  mutable std::mutex mutex_;
  /// Key: FNV-1a over the parameter bit patterns (exact, no quantization).
  /// Collisions are resolved by comparing the stored cache's parameters.
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<KernelCache>>>
      caches_;
  std::size_t evicted_built_ = 0;   ///< stats continuity across trims.
  std::size_t evicted_shared_ = 0;
};

}  // namespace bnloc
