// bnbench — the end-to-end benchmark of bnloc.
//
//   bnbench --workload grid48|grid96|serve_mixed --seed N --seconds T
//           --trace 0|1
//
// One process runs one workload. The seed makes every input (scenario
// worlds, the serve batches); the library only sees the generated inputs.
//
//  * --trace 0 prints the end-to-end metrics: set-up time (median of
//    kSetupReps set-ups), op latency median and tail, ops per second,
//    accuracy, calibration, the share of ops that passed every check, and
//    peak RSS. An op is one Localizer::localize call (grid workloads) or
//    one served request timed from batch submit to its response reaching
//    the ResultSink (serve_mixed).
//  * --trace 1 prints the per-layer metrics: untraced and traced ops run
//    in pairs (the difference is the tracing overhead), counters and span
//    self times come from the first traced pass over a fixed input set so
//    they repeat exactly, and replay micro-timings time the inference and
//    SIMD primitives on inputs taken from the workload's own scenario.
//
// Every op is checked: estimates and covariances finite, every unknown
// localized by the grid engine, repeated inputs bit-identical to their
// first answer, and for serve_mixed one ok response per request in request
// order plus a sampled solo serve_one comparison. Informational lines start
// with '#'; the last line of stdout is the JSON result. Exit code 0 iff
// every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bnloc/bnloc.hpp"
#include "helpers.hpp"

namespace {

using namespace bnloc;
using bnbench::FailureCount;
using bnbench::MetricSet;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupReps = 3;    // set-ups per untraced run
constexpr std::size_t kGridPool = 28;    // scenario worlds per grid run
constexpr std::size_t kTracePool = 6;    // inputs of the first traced pass
constexpr std::size_t kServeThreads = 4;  // BatchService workers
constexpr std::size_t kServeRequests = 32;  // per batch
constexpr std::size_t kServeBatches = 4;    // batches in the pool
constexpr std::size_t kSoloSamples = 4;  // requests re-served solo
constexpr std::uint64_t kAlgoSeed = 1;
/// Probability mass of a 2-D Gaussian within 2 sigma: 1 - exp(-2).
constexpr double kTwoSigmaMass = 0.8647;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// splitmix64 of (seed, i): independent per-input seeds from one argument.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Seed of world i. Kept below 2^53 because the serve batch format carries
/// seeds as JSON numbers, which are doubles.
std::uint64_t world_seed(std::uint64_t seed, std::uint64_t i) {
  return derive_seed(seed, i) % 1000000007ull;
}

// --- Result checks ---------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 1099511628211ull;
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
};

/// Digest of everything in a result but its wall-clock seconds.
std::uint64_t result_hash(const LocalizationResult& r) {
  Fnv f;
  for (const auto& e : r.estimates) {
    f.add(std::uint64_t{e.has_value()});
    if (e) f.add(e->x), f.add(e->y);
  }
  for (const auto& c : r.covariances) {
    f.add(std::uint64_t{c.has_value()});
    if (c) f.add(c->xx), f.add(c->xy), f.add(c->yy);
  }
  for (const double change : r.change_per_iteration) f.add(change);
  f.add(std::uint64_t{r.iterations});
  f.add(std::uint64_t{r.converged});
  f.add(r.transport_hash);
  f.add(std::uint64_t{r.comm.messages_sent});
  f.add(std::uint64_t{r.comm.bytes_sent});
  return f.h;
}

/// Finite estimates and covariances; with `grid`, every unknown localized.
bool result_valid(const Scenario& sc, const LocalizationResult& r, bool grid) {
  const std::size_t n = sc.node_count();
  if (r.estimates.size() != n || r.covariances.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = r.estimates[i];
    if (e && !(std::isfinite(e->x) && std::isfinite(e->y))) return false;
    if (!e && grid && !sc.is_anchor[i]) return false;
    const auto& c = r.covariances[i];
    if (c && !(std::isfinite(c->xx) && std::isfinite(c->xy) &&
               std::isfinite(c->yy)))
      return false;
  }
  return true;
}

/// Mean error (in R) and 2-sigma calibration gap, averaged over ops.
struct Accuracy {
  double error_sum = 0.0;
  std::size_t error_ops = 0;
  double gap_sum = 0.0;
  std::size_t gap_ops = 0;

  void add(const Scenario& sc, const LocalizationResult& r) {
    const ErrorReport report = evaluate(sc, r);
    if (!report.errors.empty()) {
      error_sum += report.summary.mean;
      ++error_ops;
    }
    for (const auto& c : r.covariances)
      if (c) {
        gap_sum += std::abs(coverage_within_sigma(sc, r, 2.0) - kTwoSigmaMass);
        ++gap_ops;
        break;
      }
  }
  [[nodiscard]] double mean_error() const {
    return error_ops ? error_sum / static_cast<double>(error_ops) : 0.0;
  }
  [[nodiscard]] double calib_gap() const {
    return gap_ops ? gap_sum / static_cast<double>(gap_ops) : 0.0;
  }
};

// --- Inputs ----------------------------------------------------------------

/// The paper's canonical pre-knowledge scenario (the library's default
/// experiment configuration): 200 nodes dropped along lines, 8% random
/// anchors, R = 0.12, 10% log-normal ranging noise, exact priors.
ScenarioConfig paper_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.node_count = 200;
  cfg.anchor_fraction = 0.08;
  cfg.deployment.kind = DeploymentKind::line_drop;
  cfg.anchor_placement = AnchorPlacement::random;
  cfg.radio = make_radio(0.12, RangingType::log_normal, 0.10);
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = seed;
  return cfg;
}

/// One request line of the serve batch format (docs/SERVICE.md). The
/// world is always a line-drop deployment with random anchors, 10%
/// log-normal noise and exact priors, as in paper_scenario().
struct RequestSpec {
  std::string tenant, id, engine;
  std::size_t nodes = 0;
  double anchor_fraction = 0.0;
  double radio_range = 0.0;
  std::uint64_t scenario_seed = 1;
  bool async = false;
  double loss = 0.0;
  std::size_t grid_side = 48;
  std::size_t pyramid_levels = 1;
};

std::string request_json(const RequestSpec& s) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("tenant", s.tenant).kv("id", s.id).kv("engine", s.engine);
  w.kv("algo_seed", kAlgoSeed);
  w.key("scenario").begin_object();
  w.kv("nodes", std::uint64_t{s.nodes});
  w.kv("anchor_fraction", s.anchor_fraction);
  w.kv("seed", s.scenario_seed);
  w.kv("deployment", "line_drop");
  w.kv("anchor_placement", "random");
  w.kv("radio_range", s.radio_range);
  w.kv("noise", 0.10);
  w.kv("ranging", "log_normal");
  w.kv("prior", "exact");
  w.end_object();
  w.key("engine_config").begin_object();
  if (s.async) w.kv("async", true).kv("loss", s.loss);
  if (s.engine == "grid") {
    w.kv("grid_side", std::uint64_t{s.grid_side});
    w.kv("pyramid_levels", std::uint64_t{s.pyramid_levels});
  }
  w.end_object();
  w.end_object();
  return w.str();
}

std::string batch_json(const std::vector<RequestSpec>& specs) {
  std::string text = "[\n";
  for (std::size_t i = 0; i < specs.size(); ++i)
    text += request_json(specs[i]) + (i + 1 < specs.size() ? ",\n" : "\n");
  return text + "]\n";
}

/// Batch `batch` of the serve_mixed pool: 32 requests over 4 tenants with
/// a fixed, seed-independent shape (engine, node count, grid side and
/// transport depend only on the request's position) and seeded line-drop
/// worlds. Request i measures world i % 24, so worlds 0..7 are requested
/// twice, by two different tenants at the same grid side (cross-tenant
/// kernel sharing). Each block of 8 starts with its two largest grid
/// requests, so the largest working sets always run side by side. Per 16
/// requests: 12 grid (sides 24-48), 2 particle and 2 gauss; a quarter use
/// the async transport, losing 10% of attempts.
std::vector<RequestSpec> serve_mixed_specs(std::uint64_t seed,
                                           std::size_t batch) {
  static const char* kTenants[] = {"acme", "globex", "initech", "umbrella"};
  // Slot i % 8: engine and node count (radio range keeps degree ~9).
  struct Slot {
    const char* engine;
    std::size_t nodes;
  };
  static const Slot kSlots[8] = {{"grid", 200}, {"grid", 150},
                                 {"grid", 96},  {"grid", 96},
                                 {"grid", 72},  {"grid", 48},
                                 {"particle", 48}, {"gauss", 200}};
  static const std::size_t kSides[4] = {48, 40, 32, 24};
  std::vector<RequestSpec> specs(kServeRequests);
  for (std::size_t i = 0; i < kServeRequests; ++i) {
    RequestSpec& s = specs[i];
    const std::size_t world = i % 24;
    const std::size_t slot = i % 8;
    s.tenant = kTenants[(i + i / 24) % 4];
    s.id = "b" + std::to_string(batch) + "r" + std::to_string(i);
    s.engine = kSlots[slot].engine;
    s.nodes = kSlots[slot].nodes;
    s.radio_range = std::sqrt(9.0 / (3.14159265358979 * double(s.nodes)));
    s.anchor_fraction = s.nodes < 100 ? 0.12 : 0.08;
    s.scenario_seed = world_seed(seed, 1000 + 24 * batch + world);
    s.grid_side = kSides[(world / 8 + world) % 4];
    s.async = slot == 2 || i % 16 == 4 || i % 16 == 6;
    s.loss = s.async ? 0.1 : 0.0;
  }
  return specs;
}

// --- Trace capture ---------------------------------------------------------

/// Per-layer observations of the first traced pass (counters, span self
/// times) plus the paired latencies of every traced/untraced op.
struct TraceData {
  std::size_t ops = 0;  // ops of the first traced pass
  obs::Registry registry;
  std::map<std::string, std::uint64_t> self_ns;
  std::uint64_t localize_ns = 0;  // engine run spans of the traced ops
  bnbench::SpanTotal grid_run, particle_run, gauss_run;
  std::uint64_t rounds = 0;       // grid rounds, summed over grid ops
  std::uint64_t node_rounds = 0;  // rounds x unknowns, summed
  std::vector<double> untraced_ms, traced_ms;
  double build_scenario_ms = 0.0;  // per build_scenario call
  double evaluate_ms = 0.0;        // per evaluate call

  void fold_spans(const std::vector<obs::SpanRecord>& rows) {
    for (const auto& [name, ns] : bnbench::span_self_ns(rows))
      self_ns[name] += ns;
    const auto add = [&](bnbench::SpanTotal& t, const char* name) {
      const bnbench::SpanTotal s = bnbench::span_total(rows, name);
      t.ns += s.ns;
      t.count += s.count;
    };
    add(grid_run, "grid.run");
    add(particle_run, "particle.run");
    add(gauss_run, "gauss.run");
    localize_ns = grid_run.ns + particle_run.ns + gauss_run.ns;
  }
  void fold_grid_result(const Scenario& sc, const LocalizationResult& r) {
    rounds += r.iterations;
    node_rounds += r.iterations * sc.unknown_count();
  }
};

/// Serve-layer timings of one traced batch.
struct ServeLayer {
  double parse_ms = 0.0, validate_us = 0.0, encode_us = 0.0;
  double service_ms_p50 = 0.0, wait_ms_p50 = 0.0, request_self_ms = 0.0;
  double arena_bytes = 0.0;
};

/// Median over batches of the per-call time of `call(k)`, k < calls; runs
/// batches until at least `min_ms` elapsed and `min_batches` ran.
template <typename Call>
double ns_per_call(std::size_t calls, Call&& call, double min_ms = 40.0,
                   std::size_t min_batches = 7) {
  std::vector<double> per_call;
  const Clock::time_point t0 = Clock::now();
  while (per_call.size() < min_batches || ms_since(t0) < min_ms) {
    const Clock::time_point b = Clock::now();
    for (std::size_t k = 0; k < calls; ++k) call(k);
    per_call.push_back(ms_since(b) * 1e6 / static_cast<double>(calls));
  }
  return bnbench::median(per_call);
}

// --- Serve batches ---------------------------------------------------------

/// One batch as the client sees it: per-request latency from submit to the
/// sink, in request order, and whether the stream was one-per-request in
/// order.
struct BatchRun {
  std::vector<serve::ServeResponse> responses;
  std::vector<double> client_ms;
  bool stream_ok = true;
};

BatchRun run_batch(serve::BatchService& service,
                   const std::vector<serve::ServeRequest>& requests) {
  BatchRun run;
  run.client_ms.assign(requests.size(), 0.0);
  std::size_t next = 0;
  const Clock::time_point submit = Clock::now();
  run.responses = service.run_batch(
      requests, [&](const serve::ServeResponse& r, std::string_view) {
        if (next >= requests.size() || r.id != requests[next].id) {
          run.stream_ok = false;
          return;
        }
        run.client_ms[next++] = ms_since(submit);
      });
  if (next != requests.size() || run.responses.size() != requests.size())
    run.stream_ok = false;
  return run;
}

/// Digest of a response's payload: every field but the wall-clock ones.
std::uint64_t payload_hash(const serve::ServeResponse& response) {
  serve::ServeResponse copy = response;
  copy.seconds = 0.0;
  copy.result.seconds = 0.0;
  Fnv f;
  const std::string line = serve::serve_response_json(copy);
  f.bytes(line.data(), line.size());
  f.add(result_hash(copy.result));
  return f.h;
}

/// Check every response of a batch; returns the per-request verdicts.
std::vector<bool> check_batch(const BatchRun& run,
                              const std::vector<serve::ServeRequest>& requests,
                              const std::vector<Scenario>& scenarios,
                              const std::vector<std::uint64_t>* expected) {
  std::vector<bool> ok(requests.size(), run.stream_ok);
  for (std::size_t i = 0; i < requests.size() && i < run.responses.size();
       ++i) {
    const serve::ServeResponse& r = run.responses[i];
    ok[i] = ok[i] && r.ok && r.id == requests[i].id &&
            result_valid(scenarios[i], r.result,
                         requests[i].engine == serve::EngineKind::grid) &&
            (!expected || payload_hash(r) == (*expected)[i]);
  }
  return ok;
}

/// Serve-layer timings: parse and validate on one batch, encode and the
/// latency split over every response of `runs`, request self time over the
/// spans `service` holds (which must be exactly those of `runs`).
ServeLayer measure_serve_layer(const std::string& text,
                               const std::vector<serve::ServeRequest>& reqs,
                               const std::vector<BatchRun>& runs,
                               const serve::BatchService& service) {
  ServeLayer s;
  s.parse_ms = ns_per_call(1, [&](std::size_t) {
                 std::vector<serve::ServeRequest> out;
                 std::string error;
                 (void)serve::parse_serve_batch(text, out, &error);
               }) * 1e-6;
  s.validate_us = ns_per_call(reqs.size(), [&](std::size_t k) {
                    (void)serve::validate(reqs[k]);
                  }) * 1e-3;
  std::vector<const serve::ServeResponse*> responses;
  std::vector<double> service_ms, wait_ms;
  for (const BatchRun& run : runs)
    for (std::size_t i = 0; i < run.responses.size(); ++i) {
      responses.push_back(&run.responses[i]);
      service_ms.push_back(run.responses[i].seconds * 1e3);
      wait_ms.push_back(run.client_ms[i] - service_ms.back());
    }
  s.encode_us = ns_per_call(responses.size(), [&](std::size_t k) {
                  (void)serve::serve_response_json(*responses[k]);
                }) * 1e-3;
  s.service_ms_p50 = bnbench::median(service_ms);
  s.wait_ms_p50 = bnbench::median(wait_ms);
  const auto self = bnbench::span_self_ns(service.spans().rows());
  const auto it = self.find("serve.request");
  if (it != self.end() && !responses.empty())
    s.request_self_ms = static_cast<double>(it->second) * 1e-6 /
                        static_cast<double>(responses.size());
  for (const serve::TenantStats& t : service.tenants())
    s.arena_bytes += static_cast<double>(t.arena_bytes_reserved);
  return s;
}

std::vector<serve::ServeRequest> parse_or_throw(const std::string& text) {
  std::vector<serve::ServeRequest> out;
  std::string error;
  if (!serve::parse_serve_batch(text, out, &error))
    throw std::runtime_error("batch does not parse: " + error);
  return out;
}

serve::ServeConfig traced_config(std::size_t threads) {
  serve::ServeConfig cfg;
  cfg.threads = threads;
  cfg.collect_spans = true;
  return cfg;
}

// --- Replay micro-timings --------------------------------------------------

/// Gaussian belief with the reported moments, as a prior to rasterize.
std::shared_ptr<const GaussianPrior> moment_prior(Vec2 mean, Cov2 cov,
                                                  double floor_var) {
  const double half_sum = 0.5 * (cov.xx + cov.yy);
  const double radius = std::sqrt(0.25 * (cov.xx - cov.yy) * (cov.xx - cov.yy) +
                                  cov.xy * cov.xy);
  const double angle = 0.5 * std::atan2(2.0 * cov.xy, cov.xx - cov.yy);
  return std::make_shared<GaussianPrior>(
      mean, std::sqrt(std::max(half_sum + radius, floor_var)),
      std::sqrt(std::max(half_sum - radius, floor_var)),
      Vec2{std::cos(angle), std::sin(angle)});
}

/// Time the grid primitives on one of the workload's scenarios: kernel
/// construction over its measured link distances, sparsify over beliefs
/// rasterized from its priors and from its reported posteriors, correlate
/// and multiply over its links, and the SIMD primitives at 48² and 96².
void add_replay_metrics(MetricSet& m, const Scenario& sc,
                        const LocalizationResult& result, std::size_t side) {
  const GridBnclConfig defaults;
  const GridShape shape{sc.field, side};
  const std::size_t cells = shape.cell_count();

  std::vector<double> distances;
  for (std::size_t i = 0; i < sc.node_count(); ++i)
    for (const Neighbor& nb : sc.graph.neighbors(i))
      if (nb.node > i) distances.push_back(nb.weight);
  // A fresh cache per lookup, so every lookup builds its kernel.
  const double build_ns = ns_per_call(distances.size(), [&](std::size_t k) {
    KernelCache cache(sc.radio.ranging, shape);
    (void)cache.range(distances[k]);
  }, 40.0, 3);

  std::vector<GridBelief> beliefs;
  const double cell_var = shape.cell_width() * shape.cell_width() / 12.0;
  for (std::size_t i = 0; i < sc.node_count(); ++i) {
    if (sc.is_anchor[i]) continue;
    beliefs.emplace_back(sc.field, side);
    beliefs.back().set_from_prior(*sc.priors[i]);
    if (result.estimates[i] && result.covariances[i]) {
      beliefs.emplace_back(sc.field, side);
      beliefs.back().set_from_prior(*moment_prior(
          *result.estimates[i], *result.covariances[i], cell_var));
    }
  }
  std::vector<SparseBelief> summaries(beliefs.size());
  const double sparsify_ns = ns_per_call(beliefs.size(), [&](std::size_t k) {
    summaries[k] = beliefs[k].sparsify(defaults.support_mass,
                                       defaults.max_support_cells);
  });
  std::size_t summary_cells = 0;
  for (const SparseBelief& s : summaries) summary_cells += s.size();

  // Correlate pairs: every measured link (one direction) against every
  // summary in turn, cycling so each link sees prior- and posterior-shaped
  // senders.
  KernelCache cache(sc.radio.ranging, shape);
  std::vector<const RangeKernel*> kernels;
  for (const double d : distances) kernels.push_back(cache.range(d));
  const std::size_t pairs = kernels.size();
  std::vector<double> out(cells, 0.0);
  double kernel_cells = 0.0;
  for (std::size_t k = 0; k < pairs; ++k)
    kernel_cells += static_cast<double>(summaries[k % summaries.size()].size() *
                                        kernels[k]->stamp_count());
  const double correlate_ns = ns_per_call(pairs, [&](std::size_t k) {
    (void)kernels[k]->correlate(summaries[k % summaries.size()], out, side);
  }) * static_cast<double>(pairs) / kernel_cells;

  std::vector<std::vector<double>> factors;
  for (std::size_t k = 0; k < std::min<std::size_t>(pairs, 64); ++k) {
    factors.emplace_back(cells, 0.0);
    (void)kernels[k]->correlate(summaries[k % summaries.size()],
                                factors.back(), side);
  }
  std::vector<double> mass(beliefs.front().mass().begin(),
                           beliefs.front().mass().end());
  const double multiply_ns = ns_per_call(factors.size(), [&](std::size_t k) {
    beliefops::multiply(mass, factors[k], defaults.message_floor);
    beliefops::normalize(mass);
  }) / static_cast<double>(cells);

  std::printf("# replay: side %zu (%zu cells), %zu link distances, %zu "
              "beliefs -> %zu summary cells, %zu correlate pairs (%.0f kernel "
              "cells), %zu multiply factors\n",
              side, cells, distances.size(), beliefs.size(),
              summary_cells, pairs, kernel_cells, factors.size());
  m.add("inference.kernel_build_us", build_ns * 1e-3, "us");
  m.add("inference.correlate_ns_per_cell", correlate_ns, "ns");
  m.add("inference.multiply_ns_per_cell", multiply_ns, "ns");
  m.add("inference.sparsify_us", sparsify_ns * 1e-3, "us");

  for (const std::size_t s : {std::size_t{48}, std::size_t{96}}) {
    GridBelief b(sc.field, s);
    b.set_from_prior(*sc.priors[sc.unknown_indices().front()]);
    const std::vector<double> w(b.mass().begin(), b.mass().end());
    std::vector<double> acc(w);
    const std::size_t n = w.size();
    constexpr std::size_t kReps = 64;
    double sink = 0.0;
    const double axpy_ns = ns_per_call(kReps, [&](std::size_t) {
      simd::axpy(acc.data(), w.data(), 1e-3, n);
    }) / static_cast<double>(n);
    const double sum_ns = ns_per_call(kReps, [&](std::size_t) {
      sink += simd::sum(acc.data(), n);
    }) / static_cast<double>(n);
    std::printf("# simd %s at %zu elems: axpy %.4f ns/elem (24 B/elem "
                "computed), sum %.4f ns/elem (8 B/elem computed)%s\n",
                simd::active_name(), n, axpy_ns, sum_ns,
                std::isfinite(sink) ? "" : " (non-finite sum)");
    m.add("support.simd.axpy_ns_per_elem_" + std::to_string(s), axpy_ns, "ns");
    m.add("support.simd.sum_ns_per_elem_" + std::to_string(s), sum_ns, "ns");
  }
}

// --- Metric assembly -------------------------------------------------------

struct E2E {
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  double timed_s = 0.0;
  Accuracy accuracy;
  FailureCount ops;
};

void add_e2e_metrics(MetricSet& m, const E2E& e) {
  const bnbench::Tail tail = bnbench::tail_percentile(e.op_ms);
  std::printf("# %zu timed ops in %.3f s; solve_ms_tail is p%.1f with %zu "
              "samples beyond it; setup_s is the median of %zu set-ups\n",
              e.op_ms.size(), e.timed_s, tail.percentile, tail.beyond,
              e.setup_s.size());
  m.add("setup_s", bnbench::median(e.setup_s), "s");
  m.add("solve_ms_p50", bnbench::median(e.op_ms), "ms");
  m.add("solve_ms_tail", tail.value, "ms");
  m.add("solves_per_s", static_cast<double>(e.op_ms.size()) / e.timed_s, "1/s");
  m.add("mean_error_r", e.accuracy.mean_error(), "R");
  m.add("calib_gap", e.accuracy.calib_gap(), "frac");
  m.add("ok_frac", 1.0 - e.ops.failed_frac(), "frac");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_layer_metrics(MetricSet& m, const TraceData& t, const ServeLayer& s,
                       bool serve_layer_used) {
  const double ops = static_cast<double>(std::max<std::size_t>(t.ops, 1));
  const obs::Registry& r = t.registry;
  const auto per_op = [&](const char* name) {
    return static_cast<double>(r.counter(name)) / ops;
  };
  const auto self_ms = [&](const char* name) {
    const auto it = t.self_ns.find(name);
    return it == t.self_ns.end() ? 0.0
                                 : static_cast<double>(it->second) * 1e-6 / ops;
  };
  const auto mean_ms = [](const bnbench::SpanTotal& span) {
    return span.count ? static_cast<double>(span.ns) * 1e-6 /
                            static_cast<double>(span.count)
                      : 0.0;
  };
  m.add("deploy.build_scenario_ms", t.build_scenario_ms, "ms");
  m.add("core.localize_ms", static_cast<double>(t.localize_ns) * 1e-6 / ops,
        "ms");
  m.add("core.grid.setup_ms", r.timer_seconds("grid.setup") * 1e3 / ops, "ms");
  m.add("core.grid.rounds", static_cast<double>(t.rounds) / ops, "count");
  m.add("core.grid.level_ms", self_ms("grid.level"), "ms");
  m.add("core.grid.publish_ms", self_ms("grid.publish"), "ms");
  m.add("core.grid.update_ms", self_ms("grid.update"), "ms");
  m.add("core.grid.commit_ms", self_ms("grid.commit"), "ms");
  m.add("core.particle.run_ms", mean_ms(t.particle_run), "ms");
  m.add("core.gauss.run_ms", mean_ms(t.gauss_run), "ms");
  const auto total = [&](const char* name) {
    return static_cast<double>(r.counter(name));
  };
  const double computed = total("grid.messages.computed");
  const double reused = total("grid.messages.reused");
  const double hit = total("grid.kernels.process.hit");
  const double miss = total("grid.kernels.process.miss");
  m.add("inference.cell_visits", per_op("grid.cell_visits"), "count");
  m.add("inference.kernel_cells", per_op("grid.kernel_cells"), "count");
  m.add("inference.kernels_built", per_op("grid.kernels.built"), "count");
  m.add("inference.msg_reuse_ratio",
        computed + reused > 0 ? reused / (computed + reused) : 0.0, "ratio");
  m.add("inference.products_reused", per_op("grid.products.reused"), "count");
  m.add("inference.products_reused_base",
        static_cast<double>(t.node_rounds) / ops, "count");
  m.add("inference.kernel_hit_ratio", hit + miss > 0 ? hit / (hit + miss) : 0.0,
        "ratio");
  m.add("net.broadcasts_per_op", per_op("radio.broadcasts"), "count");
  m.add("net.bytes_per_op", per_op("radio.bytes_sent"), "bytes");
  m.add("net.async_retries_per_op", per_op("radio.async.retries"), "count");
  m.add("net.async_dropped_per_op", per_op("radio.async.dropped"), "count");
  m.add("serve.parse_ms", s.parse_ms, "ms");
  m.add("serve.validate_us", s.validate_us, "us");
  m.add("serve.encode_us", s.encode_us, "us");
  m.add("serve.service_ms_p50", s.service_ms_p50, "ms");
  m.add("serve.wait_ms_p50", s.wait_ms_p50, "ms");
  m.add("serve.request_self_ms", s.request_self_ms, "ms");
  m.add("serve.arena_bytes_reserved", s.arena_bytes, "bytes");
  m.add("eval.evaluate_ms", t.evaluate_ms, "ms");
  const double untraced = bnbench::median(t.untraced_ms);
  m.add("obs.trace_overhead_frac",
        untraced > 0.0 ? bnbench::median(t.traced_ms) / untraced - 1.0 : 0.0,
        "ratio");
  std::printf("# traced pass: %zu ops (%zu grid runs); paired ops: %zu "
              "untraced / %zu traced; products_reused base is node-rounds "
              "(rounds x unknowns); serve layer measured on %s\n",
              t.ops, t.grid_run.count, t.untraced_ms.size(),
              t.traced_ms.size(),
              serve_layer_used ? "the workload batch"
                               : "a grid/particle/gauss replay of input 0");
}

/// Mean ms per call of build_scenario over `configs`.
double time_build_scenario(const std::vector<ScenarioConfig>& configs) {
  return ns_per_call(configs.size(), [&](std::size_t k) {
    (void)build_scenario(configs[k]);
  }, 40.0, 3) * 1e-6;
}

// --- Grid workloads --------------------------------------------------------

struct GridState {
  std::vector<ScenarioConfig> configs;
  std::vector<Scenario> scenarios;
  std::unique_ptr<GridBncl> engine;
  LocalizationResult warm;  // warm-up answer for input 0
};

LocalizationResult solve(const GridBncl& engine, const Scenario& sc) {
  Rng rng = make_algo_rng(engine.name(), kAlgoSeed);
  return engine.localize(sc, rng);
}

GridState setup_grid(std::uint64_t seed, const GridBnclConfig& cfg,
                     std::size_t pool) {
  GridState st;
  for (std::size_t i = 0; i < pool; ++i) {
    st.configs.push_back(paper_scenario(world_seed(seed, i)));
    st.scenarios.push_back(build_scenario(st.configs.back()));
  }
  st.engine = std::make_unique<GridBncl>(cfg);
  st.warm = solve(*st.engine, st.scenarios[0]);
  return st;
}

int run_grid(const GridBnclConfig& cfg, std::uint64_t seed, double seconds,
             bool trace) {
  MetricSet m;
  E2E e;
  GridState st;
  for (std::size_t rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
    const Clock::time_point t0 = Clock::now();
    st = setup_grid(seed, cfg, trace ? kTracePool : kGridPool);
    e.setup_s.push_back(ms_since(t0) * 1e-3);
  }
  const std::size_t pool = st.scenarios.size();
  const bool warm_ok = result_valid(st.scenarios[0], st.warm, true);
  // Digest of each input's first answer; later answers must match it.
  std::vector<std::optional<std::uint64_t>> first_hash(pool);
  first_hash[0] = result_hash(st.warm);
  const auto check = [&](std::size_t idx, const LocalizationResult& r) {
    const std::uint64_t h = result_hash(r);
    if (!first_hash[idx]) first_hash[idx] = h;
    return result_valid(st.scenarios[idx], r, true) && h == *first_hash[idx];
  };

  TraceData t;
  std::vector<LocalizationResult> traced_results;  // first traced pass
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed_s = ms_since(start) * 1e-3;
    if (i >= pool && elapsed_s >= seconds) break;
    const std::size_t idx = i % pool;
    const Scenario& sc = st.scenarios[idx];
    const Clock::time_point op0 = Clock::now();
    const LocalizationResult r = solve(*st.engine, sc);
    const double op_ms = ms_since(op0);
    e.ops.record(check(idx, r));
    if (!trace) {
      e.op_ms.push_back(op_ms);
      if (i < pool) e.accuracy.add(sc, r);
      continue;
    }
    t.untraced_ms.push_back(op_ms);
    auto tel = std::make_unique<obs::Telemetry>();
    tel->trace_enabled = false;
    tel->spans_enabled = true;
    LocalizationResult traced;
    const Clock::time_point tr0 = Clock::now();
    {
      const obs::TelemetryScope scope(tel.get());
      traced = solve(*st.engine, sc);
    }
    t.traced_ms.push_back(ms_since(tr0));
    e.ops.record(check(idx, traced));  // tracing must not change a bit
    if (i < pool) {
      ++t.ops;
      t.registry.merge(tel->registry);
      t.fold_spans(tel->spans.rows());
      t.fold_grid_result(sc, traced);
      traced_results.push_back(std::move(traced));
    }
  }
  e.timed_s = ms_since(start) * 1e-3;
  // Re-solve input 0 at the end: bit-identical to the warm-up answer.
  e.ops.record(warm_ok && result_hash(solve(*st.engine, st.scenarios[0])) ==
                              result_hash(st.warm));

  if (!trace) {
    add_e2e_metrics(m, e);
  } else {
    t.build_scenario_ms = time_build_scenario(st.configs);
    t.evaluate_ms = ns_per_call(pool, [&](std::size_t k) {
      (void)evaluate(st.scenarios[k], traced_results[k]);
    }) * 1e-6;
    // Serve, particle and gauss are idle on this workload; time them on a
    // one-batch replay of input 0 so every layer reports a measured value.
    std::vector<RequestSpec> specs(3);
    const char* engines[3] = {"grid", "particle", "gauss"};
    for (std::size_t k = 0; k < 3; ++k) {
      specs[k].tenant = "replay";
      specs[k].id = engines[k];
      specs[k].engine = engines[k];
      specs[k].nodes = st.configs[0].node_count;
      specs[k].anchor_fraction = st.configs[0].anchor_fraction;
      specs[k].radio_range = st.configs[0].radio.range;
      specs[k].scenario_seed = st.configs[0].seed;
      specs[k].grid_side = cfg.grid_side;
      specs[k].pyramid_levels = cfg.pyramid_levels;
    }
    const std::string text = batch_json(specs);
    const auto requests = parse_or_throw(text);
    std::vector<Scenario> scenarios(3, st.scenarios[0]);
    serve::BatchService service(traced_config(1));
    const BatchRun run = run_batch(service, requests);
    for (const bool ok : check_batch(run, requests, scenarios, nullptr))
      e.ops.record(ok);
    // The replayed grid request must reproduce the workload's own answer.
    e.ops.record(!run.responses.empty() &&
                 result_hash(run.responses[0].result) == result_hash(st.warm));
    const ServeLayer s = measure_serve_layer(text, requests, {run}, service);
    TraceData replay;
    replay.fold_spans(service.spans().rows());
    t.particle_run = replay.particle_run;
    t.gauss_run = replay.gauss_run;
    add_layer_metrics(m, t, s, false);
    add_replay_metrics(m, st.scenarios[0], st.warm, cfg.grid_side);
  }
  const bool correct = e.ops.failed == 0;
  std::printf("%s\n", m.result_json(correct, e.ops).c_str());
  return correct ? 0 : 1;
}

// --- serve_mixed -----------------------------------------------------------

/// One batch of the serve_mixed pool: its text, decoded requests, the
/// worlds they build, and the payload digest of each request's first
/// answer (empty until the batch is first served).
struct PoolBatch {
  std::string text;
  std::vector<serve::ServeRequest> requests;
  std::vector<Scenario> scenarios;
  std::vector<std::uint64_t> first_hash;
};

struct ServeState {
  std::vector<PoolBatch> pool;
  std::unique_ptr<serve::BatchService> service;
  BatchRun warm;  // batch 0, served once during set-up
};

ServeState setup_serve(std::uint64_t seed) {
  ServeState st;
  KernelCacheRegistry::instance().clear();  // every set-up starts cold
  for (std::size_t b = 0; b < kServeBatches; ++b) {
    PoolBatch& batch = st.pool.emplace_back();
    batch.text = batch_json(serve_mixed_specs(seed, b));
    batch.requests = parse_or_throw(batch.text);
    for (const serve::ServeRequest& r : batch.requests)
      batch.scenarios.push_back(build_scenario(r.scenario));
  }
  serve::ServeConfig cfg;
  cfg.threads = kServeThreads;
  st.service = std::make_unique<serve::BatchService>(cfg);
  st.warm = run_batch(*st.service, st.pool[0].requests);
  return st;
}

/// Check a served batch. The first answer of each request sets its
/// expected payload and, with `accuracy`, is scored.
void absorb(PoolBatch& batch, const BatchRun& run, E2E& e, bool accuracy) {
  const bool first = batch.first_hash.empty();
  if (first)
    for (const serve::ServeResponse& r : run.responses)
      batch.first_hash.push_back(payload_hash(r));
  for (const bool ok :
       check_batch(run, batch.requests, batch.scenarios, &batch.first_hash))
    e.ops.record(ok);
  if (first && accuracy)
    for (std::size_t i = 0; i < run.responses.size(); ++i)
      e.accuracy.add(batch.scenarios[i], run.responses[i].result);
}

int run_serve(std::uint64_t seed, double seconds, bool trace) {
  MetricSet m;
  E2E e;
  ServeState st;
  for (std::size_t rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
    const Clock::time_point t0 = Clock::now();
    st = ServeState{};  // the previous set-up's service is gone before timing
    st = setup_serve(seed);
    e.setup_s.push_back(ms_since(t0) * 1e-3);
  }
  absorb(st.pool[0], st.warm, e, !trace);

  // Closed loop over the pool; the traced run pairs each untraced batch
  // with a traced one, and takes counters and spans from the first traced
  // pass over the pool.
  TraceData t;
  std::unique_ptr<serve::BatchService> traced_service;
  std::vector<BatchRun> first_traced;
  ServeLayer layer;
  const Clock::time_point start = Clock::now();
  std::size_t batches = 0;
  for (; batches < kServeBatches || ms_since(start) * 1e-3 < seconds;
       ++batches) {
    PoolBatch& batch = st.pool[batches % kServeBatches];
    const BatchRun run = run_batch(*st.service, batch.requests);
    absorb(batch, run, e, !trace);
    if (!trace) {
      e.op_ms.insert(e.op_ms.end(), run.client_ms.begin(), run.client_ms.end());
      continue;
    }
    t.untraced_ms.insert(t.untraced_ms.end(), run.client_ms.begin(),
                         run.client_ms.end());
    if (!traced_service)
      traced_service =
          std::make_unique<serve::BatchService>(traced_config(kServeThreads));
    BatchRun traced = run_batch(*traced_service, batch.requests);
    absorb(batch, traced, e, false);
    t.traced_ms.insert(t.traced_ms.end(), traced.client_ms.begin(),
                       traced.client_ms.end());
    if (batches >= kServeBatches) continue;
    t.ops += batch.requests.size();
    for (std::size_t i = 0; i < batch.requests.size(); ++i)
      if (batch.requests[i].engine == serve::EngineKind::grid)
        t.fold_grid_result(batch.scenarios[i], traced.responses[i].result);
    first_traced.push_back(std::move(traced));
    if (batches + 1 == kServeBatches) {  // first traced pass complete
      t.registry.merge(traced_service->metrics());
      t.fold_spans(traced_service->spans().rows());
      layer = measure_serve_layer(st.pool[0].text, st.pool[0].requests,
                                  first_traced, *traced_service);
    }
  }
  e.timed_s = ms_since(start) * 1e-3;

  // A seeded sample of requests re-served solo must match the batch.
  for (std::size_t k = 0; k < kSoloSamples; ++k) {
    const PoolBatch& batch = st.pool[k % kServeBatches];
    const std::size_t i = derive_seed(seed, 7000 + k) % batch.requests.size();
    e.ops.record(payload_hash(st.service->serve_one(batch.requests[i])) ==
                 batch.first_hash[i]);
  }
  std::printf("# serve_mixed: a pool of %zu batches of %zu requests over 4 "
              "tenants, %zu batches served, %zu service workers\n",
              kServeBatches, kServeRequests, batches, kServeThreads);

  if (!trace) {
    add_e2e_metrics(m, e);
  } else {
    std::vector<ScenarioConfig> configs;
    std::vector<std::pair<const Scenario*, const LocalizationResult*>> scored;
    for (std::size_t b = 0; b < kServeBatches; ++b)
      for (std::size_t i = 0; i < kServeRequests; ++i) {
        configs.push_back(st.pool[b].requests[i].scenario);
        scored.emplace_back(&st.pool[b].scenarios[i],
                            &first_traced[b].responses[i].result);
      }
    t.build_scenario_ms = time_build_scenario(configs);
    t.evaluate_ms = ns_per_call(scored.size(), [&](std::size_t k) {
      (void)evaluate(*scored[k].first, *scored[k].second);
    }) * 1e-6;
    add_layer_metrics(m, t, layer, true);
    // Request 0 is a sync grid request at side 48 on a 200-node world.
    add_replay_metrics(m, st.pool[0].scenarios[0], st.warm.responses[0].result,
                       st.pool[0].requests[0].grid.grid_side);
  }
  const bool correct = e.ops.failed == 0;
  std::printf("%s\n", m.result_json(correct, e.ops).c_str());
  return correct ? 0 : 1;
}

// --- Entry -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    char* end = nullptr;
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end) return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) return false;
      a.trace = v[0] - '0';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         a.trace >= 0;
}

void print_provenance() {
  std::printf("# bnloc %s, git %s, simd %s, nproc %ld\n", version(),
              BNBENCH_GIT_SHA, simd::active_name(),
              sysconf(_SC_NPROCESSORS_ONLN));
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: bnbench --workload grid48|grid96|serve_mixed "
                 "--seed N --seconds T --trace 0|1\n");
    return 2;
  }
  try {
    print_provenance();
    if (a.workload == "grid48") return run_grid({}, a.seed, a.seconds, a.trace);
    if (a.workload == "grid96") {
      GridBnclConfig cfg;
      cfg.grid_side = 96;
      cfg.pyramid_levels = 2;
      return run_grid(cfg, a.seed, a.seconds, a.trace);
    }
    if (a.workload == "serve_mixed")
      return run_serve(a.seed, a.seconds, a.trace);
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "bnbench: %s\n", ex.what());
    return 1;
  }
}
