#include "inference/kernel_cache.hpp"

#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace bnloc {

const RangeKernel* KernelCache::range(double measured) {
  bool built = false;
  return range(measured, &built);
}

const RangeKernel* KernelCache::range(double measured, bool* built) {
  const auto key = std::bit_cast<std::uint64_t>(measured);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, fresh] = index_.try_emplace(key, kernels_.size());
  if (fresh) {
    kernels_.push_back(
        RangeKernel::make_range(measured, ranging_, shape_, trunc_sigmas_));
    bytes_ += kernels_.back().approx_bytes();
    ++stats_.built;
  } else {
    ++stats_.shared;
  }
  *built = fresh;
  return &kernels_[it->second];
}

std::size_t KernelCache::range_many(std::span<const double> measured,
                                   std::span<const RangeKernel*> out,
                                   ThreadPool* pool) {
  BNLOC_ASSERT(out.size() == measured.size(),
               "range_many: one output slot per distance");
  const auto key = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  if (pool == nullptr) {
    // Serial caller: one locked lookup at a time, each miss built under the
    // lock, so a concurrent run missing the same distance waits for this
    // build and shares it instead of repeating it (cold serve batches).
    std::size_t built = 0;
    for (std::size_t k = 0; k < measured.size(); ++k) {
      bool b = false;
      out[k] = range(measured[k], &b);
      built += b ? 1 : 0;
    }
    return built;
  }
  // Pool: resolve hits and collect each missing distance once, build them
  // across the pool outside the lock, then insert.
  std::vector<double> missing;
  std::vector<std::size_t> pending;  // lookups waiting on a missing kernel
  {
    std::unordered_map<std::uint64_t, std::size_t> seen;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t k = 0; k < measured.size(); ++k) {
      const auto it = index_.find(key(measured[k]));
      if (it != index_.end()) {
        out[k] = &kernels_[it->second];
        continue;
      }
      if (seen.try_emplace(key(measured[k]), missing.size()).second)
        missing.push_back(measured[k]);
      pending.push_back(k);
    }
    stats_.shared += measured.size() - pending.size();
  }
  if (missing.empty()) return 0;
  std::vector<RangeKernel> fresh(missing.size());
  parallel_for_chunks(*pool, missing.size(),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t j = begin; j < end; ++j)
                          fresh[j] = RangeKernel::make_range(
                              missing[j], ranging_, shape_, trunc_sigmas_);
                      });
  std::size_t built = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t j = 0; j < missing.size(); ++j) {
    if (!index_.try_emplace(key(missing[j]), kernels_.size()).second)
      continue;  // inserted by a concurrent lookup meanwhile
    kernels_.push_back(std::move(fresh[j]));
    bytes_ += kernels_.back().approx_bytes();
    ++built;
  }
  for (const std::size_t k : pending)
    out[k] = &kernels_[index_.find(key(measured[k]))->second];
  stats_.built += built;
  stats_.shared += pending.size() - built;
  return built;
}

KernelCache::Stats KernelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t KernelCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kernels_.size();
}

std::size_t KernelCache::approx_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_ + sizeof(KernelCache);
}

namespace {

/// FNV-1a over the exact bit patterns of a cache's parameter set.
std::uint64_t parameter_hash(const RangingSpec& ranging,
                             const GridShape& shape,
                             double trunc_sigmas) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x00000100000001b3ULL;
  };
  const auto fold_d = [&fold](double v) {
    fold(std::bit_cast<std::uint64_t>(v));
  };
  fold(static_cast<std::uint64_t>(ranging.type));
  fold_d(ranging.noise_factor);
  fold_d(ranging.range);
  fold_d(ranging.outlier_epsilon);
  fold_d(ranging.outlier_tail_scale);
  fold_d(shape.field.lo.x);
  fold_d(shape.field.lo.y);
  fold_d(shape.field.hi.x);
  fold_d(shape.field.hi.y);
  fold(static_cast<std::uint64_t>(shape.side));
  fold_d(trunc_sigmas);
  return h;
}

bool same_parameters(const KernelCache& cache, const RangingSpec& ranging,
                     const GridShape& shape, double trunc_sigmas) noexcept {
  const RangingSpec& r = cache.ranging();
  const GridShape& s = cache.shape();
  const auto same_d = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  return r.type == ranging.type && same_d(r.noise_factor, ranging.noise_factor) &&
         same_d(r.range, ranging.range) &&
         same_d(r.outlier_epsilon, ranging.outlier_epsilon) &&
         same_d(r.outlier_tail_scale, ranging.outlier_tail_scale) &&
         same_d(s.field.lo.x, shape.field.lo.x) &&
         same_d(s.field.lo.y, shape.field.lo.y) &&
         same_d(s.field.hi.x, shape.field.hi.x) &&
         same_d(s.field.hi.y, shape.field.hi.y) && s.side == shape.side &&
         same_d(cache.trunc_sigmas(), trunc_sigmas);
}

}  // namespace

KernelCacheRegistry& KernelCacheRegistry::instance() {
  static KernelCacheRegistry registry;
  return registry;
}

KernelCache& KernelCacheRegistry::acquire(const RangingSpec& ranging,
                                          const GridShape& shape,
                                          double trunc_sigmas) {
  const std::uint64_t key = parameter_hash(ranging, shape, trunc_sigmas);
  std::lock_guard<std::mutex> lock(mutex_);
  auto& bucket = caches_[key];
  for (const auto& cache : bucket)
    if (same_parameters(*cache, ranging, shape, trunc_sigmas)) return *cache;
  bucket.push_back(
      std::make_unique<KernelCache>(ranging, shape, trunc_sigmas));
  return *bucket.back();
}

KernelCacheRegistry::Totals KernelCacheRegistry::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals t;
  t.built = evicted_built_;
  t.shared = evicted_shared_;
  for (const auto& [key, bucket] : caches_) {
    for (const auto& cache : bucket) {
      ++t.caches;
      t.kernels += cache->size();
      const KernelCache::Stats s = cache->stats();
      t.built += s.built;
      t.shared += s.shared;
      t.approx_bytes += cache->approx_bytes();
    }
  }
  return t;
}

std::size_t KernelCacheRegistry::trim(std::size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = 0;
  for (const auto& [key, bucket] : caches_)
    for (const auto& cache : bucket) bytes += cache->approx_bytes();
  if (bytes <= max_bytes) return 0;
  for (const auto& [key, bucket] : caches_) {
    for (const auto& cache : bucket) {
      const KernelCache::Stats s = cache->stats();
      evicted_built_ += s.built;
      evicted_shared_ += s.shared;
    }
  }
  caches_.clear();
  return bytes;
}

void KernelCacheRegistry::clear() {
  trim(0);
  std::lock_guard<std::mutex> lock(mutex_);
  evicted_built_ = 0;
  evicted_shared_ = 0;
}

}  // namespace bnloc
