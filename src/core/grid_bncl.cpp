#include "core/grid_bncl.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "core/round_protocol.hpp"
#include "inference/grid_belief.hpp"
#include "inference/kernel_cache.hpp"
#include "inference/pyramid.hpp"
#include "inference/range_kernel.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace bnloc {

std::string GridBncl::config_error(const GridBnclConfig& config) {
  if (!(config.damping >= 0.0 && config.damping < 1.0))
    return "damping must be in [0, 1)";
  if (config.grid_side < 8) return "grid_side must be >= 8";
  if (config.pyramid_levels < 1) return "pyramid_levels must be >= 1";
  if (config.pyramid_roi_margin < 0)
    return "pyramid_roi_margin must be >= 0";
  if (config.transport.async && config.schedule != UpdateSchedule::jacobi)
    return "async transport requires the Jacobi schedule";
  if (!(config.robustness.update_quorum >= 0.0 &&
        config.robustness.update_quorum <= 1.0))
    return "update_quorum must be in [0, 1]";
  return radio_config_error(config.transport, config.iteration);
}

GridBncl::GridBncl(GridBnclConfig config) : config_(std::move(config)) {
  const std::string error = config_error(config_);
  BNLOC_ASSERT(error.empty(), error.c_str());
}

std::string GridBncl::name() const {
  std::string name =
      config_.use_negative_evidence ? "bncl-grid" : "bncl-grid-noneg";
  if (config_.robustness.robust_likelihood) name += "-robust";
  if (config_.transport.async) name += "-async";
  return name;
}

namespace {

/// Cells whose mass is below this fraction of the belief's peak are outside
/// the pyramid ROI. The message floor keeps every cell positive, so a node
/// constrained by k >= 2 messages sits at ~floor^k relative mass away from
/// its blob — below this threshold — while a one-message node (ring belief,
/// relative background ~1e-4) keeps a near-full ROI, which is exactly the
/// node whose position is still genuinely uncertain.
constexpr double kRoiPeakFraction = 1e-6;

/// Pyramid-mode cap on published-summary support cells. The restart at
/// every level begins with a publish wave of prior-shaped beliefs whose
/// 0.995-mass support is large (a line-drop prior at grid 96 spans ~170
/// cells); every receiver replays each summary cell against its kernels,
/// so those first transitional rounds dominate the level's cost. Capping
/// the summary at the top cells truncates only the low-mass tail (the
/// coverage the receiver sees stays well above the informative gate), and
/// the wave's cost shrinks proportionally. Converged beliefs sparsify far
/// below the cap, so steady-state traffic and accuracy are untouched.
/// Single-level runs keep the configured cap — bit-identical behavior.
constexpr std::size_t kPyramidPublishCap = 64;

/// Bytes one ROI cell costs each dense pass of the update, for the
/// grid.update_bytes counter. A fold reads the product and the message and
/// writes both (the message is cleared); a settle reads the product and the
/// belief and writes the belief.
constexpr std::uint64_t kFoldBytesPerCell = 4 * sizeof(double);
constexpr std::uint64_t kSettleBytesPerCell = 3 * sizeof(double);


/// Two-hop non-neighbor pairs for negative evidence, capped per node. Each
/// node's list is independent of the others, so with a pool the scan splits
/// across it (per-chunk marker arrays); output is identical either way.
std::vector<std::vector<std::size_t>> two_hop_nonlinks(const Scenario& s,
                                                       std::size_t cap,
                                                       ThreadPool* pool) {
  std::vector<std::vector<std::size_t>> out(s.node_count());
  const auto scan = [&](std::size_t begin, std::size_t end) {
    std::vector<unsigned char> is_nb(s.node_count(), 0);
    for (std::size_t i = begin; i < end; ++i) {
      if (s.is_anchor[i]) continue;
      for (const Neighbor& nb : s.graph.neighbors(i)) is_nb[nb.node] = 1;
      is_nb[i] = 1;
      for (const Neighbor& nb : s.graph.neighbors(i)) {
        for (const Neighbor& nb2 : s.graph.neighbors(nb.node)) {
          if (is_nb[nb2.node]) continue;
          is_nb[nb2.node] = 1;  // also dedupes the candidate list
          out[i].push_back(nb2.node);
          if (out[i].size() >= cap) break;
        }
        if (out[i].size() >= cap) break;
      }
      // reset marks
      for (std::size_t v : out[i]) is_nb[v] = 0;
      for (const Neighbor& nb : s.graph.neighbors(i)) is_nb[nb.node] = 0;
      is_nb[i] = 0;
    }
  };
  parallel_for_chunks(pool, s.node_count(), scan);
  return out;
}

}  // namespace

LocalizationResult GridBncl::localize(const Scenario& scenario,
                                      Rng& rng) const {
  const Stopwatch watch;
  const std::size_t n = scenario.node_count();
  LocalizationResult result = make_result_skeleton(scenario);
  const bool tracing = obs::trace_active();
  if (tracing) obs::trace_begin(name());
  obs::count("grid.runs");
  const obs::Span run_span("grid.run");
  obs::PhaseTimer setup_timer("grid.setup");

  // --- Robustness preamble ------------------------------------------------
  // Anchor vetting, the transport and the degradation ladder live in the
  // round protocol (core/round_protocol.hpp); this engine supplies the grid
  // belief operations. Flagged anchors act as wide-prior unknowns below.
  const AnchorRoles roles(scenario, config_.robustness.anchor_vetting);
  const auto& acts_anchor = roles.acts_anchor;
  RoundProtocol<SparseBelief> proto(scenario, roles, config_.robustness,
                                    config_.transport,
                                    config_.iteration.packet_loss, rng, "grid");
  const RangingSpec ranging =
      config_.robustness.robust_likelihood
          ? scenario.radio.ranging.contaminated(
                config_.robustness.contamination_epsilon,
                config_.robustness.contamination_tail_scale)
          : scenario.radio.ranging;

  // --- Resolution ladder --------------------------------------------------
  // levels == 1 degenerates to the classic single-resolution engine (the
  // level loop below runs once with a full-grid ROI and no resampling — the
  // historical code path, bit for bit).
  const PyramidPlan plan =
      PyramidPlan::make(config_.grid_side, config_.pyramid_levels);
  const std::size_t n_levels = plan.levels();
  obs::count("grid.pyramid.levels", n_levels);
  const std::size_t pub_cap =
      n_levels > 1
          ? std::min<std::size_t>(config_.max_support_cells, kPyramidPublishCap)
          : config_.max_support_cells;

  // --- Graph-shaped precomputes (resolution-independent) ------------------
  // Node-parallel work: every node-scaled loop below (level switch, kernel
  // construction, publish decisions, the Jacobi update, estimates) reads
  // shared state and writes only its own node's slots, so it splits
  // across this thread and a pool of one worker fewer than the configured
  // thread count. No pool when Gauss-Seidel (order-dependent by
  // definition), when threads == 1, or when this solve already runs on a
  // pool worker (a BatchService or trial worker: the outer fan-out is the
  // parallelism, support/thread_pool.hpp) — every loop then runs serially.
  // The default team is half the hardware threads: every region waits for
  // its slowest thread, so a team that fills the machine loses most of its
  // gain as soon as anything else runs there (GridBnclConfig::threads).
  const std::size_t team =
      config_.threads != 0
          ? config_.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
  const bool parallel = team > 1 &&
                        config_.schedule == UpdateSchedule::jacobi && n > 1 &&
                        !ThreadPool::on_worker_thread();
  std::optional<ThreadPool> pool_storage;
  if (parallel) pool_storage.emplace(team - 1);
  ThreadPool* const pool = pool_storage ? &*pool_storage : nullptr;

  const auto nonlinks =
      config_.use_negative_evidence
          ? two_hop_nonlinks(scenario, config_.negative_max_pairs, pool)
          : std::vector<std::vector<std::size_t>>();

  // --- Published summaries (the "network state") --------------------------
  // proto.cur/prev hold each node's newest published summary and the one
  // before it. Async publishes carry a global sequence number, which the
  // channel uses to gate duplicates and reordering.
  std::uint64_t pub_seq = 0;
  std::vector<unsigned char> ever_published(n, 0);
  // Lossy sync rounds republish every round: a receiver that missed the
  // last copy must not be starved by the re-broadcast TV gate.
  const bool always_publish =
      !proto.async() && config_.iteration.packet_loss > 0.0;
  // A neighbor's summary is usable once it carries cells: the quorum gate
  // and the update read the same predicate.
  const auto usable = [](const SparseBelief* s) {
    return s != nullptr && !s->empty();
  };

  // --- Cross-level belief state -------------------------------------------
  // The current beliefs and the last-published dense copies carry across
  // level switches (upsampled); everything else per level is rebuilt.
  std::optional<BeliefStore> belief_opt, last_pub_opt;
  std::vector<CellBox> roi(n);
  GridShape cur_shape{scenario.field, plan.sides.front()};

  // Per-node TV change, folded in node order after the sweep so the
  // convergence trace is bit-identical at any thread count; negative means
  // the node did not update this round (anchor or crashed).
  std::vector<double> node_change(n, -1.0);
  // Per-node message counters, summed serially after the sweep so the hot
  // loop takes no telemetry lock.
  std::vector<std::uint32_t> node_msgs_computed(n, 0);
  // Work accounting (ROADMAP item 1's gate currency), same pattern: an
  // update charges one visit per ROI cell for its prior, for each message
  // it multiplies in, and for damping and for the residual (a logical count
  // that predates fusing them into fewer passes, kept so cell-visit ratios
  // stay comparable); each computed message charges summary-cells × kernel
  // stamps. Plain per-node accumulation — deterministic at any thread count.
  std::vector<std::uint64_t> node_cell_visits(n, 0), node_kernel_cells(n, 0);
  // Memory traffic of the update's dense ROI passes (grid.update_bytes):
  // see kFoldBytesPerCell / kSettleBytesPerCell.
  std::vector<std::uint64_t> node_update_bytes(n, 0);
  // Publish-phase two-pass state: pass 1 fills each node's candidate
  // summary in parallel; pass 2 commits sequence numbers and metered traffic
  // serially in node order (bit-identical at any thread count).
  std::vector<SparseBelief> pub_candidate(n);
  std::vector<unsigned char> will_publish(n, 0);
  SparseBelief sp_scratch;
  std::vector<std::uint32_t> order_scratch;

  const auto emit_estimates = [&]() {
    parallel_for_chunks(pool, n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        if (scenario.is_anchor[i]) continue;
        result.estimates[i] =
            config_.map_estimate
                ? beliefops::argmax(cur_shape, (*belief_opt)[i])
                : beliefops::mean(cur_shape, (*belief_opt)[i]);
        result.covariances[i] =
            beliefops::covariance(cur_shape, (*belief_opt)[i]);
      }
    });
  };

  setup_timer.stop();

  // --- Levels and rounds --------------------------------------------------
  obs::PhaseTimer rounds_timer("grid.rounds");
  const std::size_t total_rounds = config_.iteration.max_iterations;
  std::size_t iter = 0;         // global round counter, spans all levels
  GridShape prev_shape{};       // the level we are upsampling from
  for (std::size_t lvl = 0; lvl < n_levels; ++lvl) {
    const obs::Span level_span("grid.level");
    const GridShape shape{scenario.field, plan.sides[lvl]};
    const std::size_t side = shape.side;
    const std::size_t cells = shape.cell_count();
    cur_shape = shape;
    const bool finest = lvl + 1 == n_levels;
    // Per-level metric names ("grid.pyramid.l0.…"): pyramid depth is
    // bounded, so the name set stays tiny and fixed per config.
    char lvl_roi_name[48], lvl_visits_name[48];
    std::snprintf(lvl_roi_name, sizeof lvl_roi_name,
                  "grid.pyramid.l%zu.roi_cells", lvl);
    std::snprintf(lvl_visits_name, sizeof lvl_visits_name,
                  "grid.pyramid.l%zu.cell_visits", lvl);

    // --- Belief state at this level ---------------------------------------
    // Flat SoA arenas: node i's mass is a contiguous slice of one buffer per
    // role (current / prior / last-published), not its own vector.
    //
    // Level switch (lvl > 0) — restart semantics. Every node's belief is
    // resampled to the new resolution (mass-conserving) but only to *locate*
    // its support: that support, dilated by the margin, becomes the ROI
    // bounding this level's dense per-cell work (the prior is rasterized
    // inside it only), and the belief itself restarts from the ROI-masked
    // prior. Carrying the upsampled posterior forward instead locks in the
    // coarse grid's quantization error (damping keeps pulling the refined
    // belief back toward the blurred coarse blob); restarting inside the
    // ROI reproduces the single-level fixed point while the coarse rounds
    // still pay for themselves twice over — the ROI caps the fine level's
    // per-cell cost, and the translated summaries give the first fine
    // rounds concentrated messages instead of the cold-start mush.
    // Published summaries are translated receiver-locally — each receiver
    // already holds the payload and knows both discretizations, so no radio
    // traffic is metered — which also keeps crashed nodes' frozen last
    // broadcasts usable. The last-published dense copy restarts at zero:
    // once the warm-up (kLevelWarmupRounds) ends, the re-broadcast TV gate
    // sees a full-mass change and every alive informative node re-announces
    // itself at the new resolution. The translation is a stopgap for what a
    // receiver already heard (and all a crashed node can ever offer), not a
    // substitute for a sharp fine-grid broadcast — gating the re-announce
    // on the TV against the upsampled posterior instead measurably loses
    // accuracy (nodes whose refinement lands within the tolerance stay
    // quiet forever and their neighbors keep multiplying blurred coarse
    // summaries). Anchors restart from the exact delta at the new
    // resolution and re-announce it immediately.
    // Every node's switch is independent (it reads the previous level's
    // belief and writes only its own slots), so the loop is node-parallel.
    // The stores start uninitialized and the loop writes every slice, so
    // their first touch is split across the pool too.
    constexpr BeliefStore::Uninitialized uninit;
    BeliefStore prior_grid(shape, n, uninit);
    {
      BeliefStore next_belief(shape, n, uninit);
      BeliefStore next_last_pub(shape, n, uninit);
      const auto switch_node = [&](std::size_t i, std::vector<double>& up) {
        if (acts_anchor[i]) {
          beliefops::set_delta(shape, prior_grid[i],
                               scenario.anchor_position(i));
          roi[i] = CellBox::full(side);
        } else if (lvl == 0) {
          beliefops::set_from_prior(
              shape, prior_grid[i],
              roles.prior(scenario, i));
          // Pyramid runs bound even the first level by the *prior's* own
          // support — pre-knowledge is exactly the license to skip cells
          // the prior already rules out (a belief rebuilt as
          // prior × messages keeps ≲1e-6 relative mass there regardless).
          // An uninformative prior yields a full box and changes nothing;
          // levels == 1 keeps the historical full-grid sweep bit for bit.
          if (n_levels > 1) {
            roi[i] = beliefops::support_box(prior_grid[i], side,
                                            kRoiPeakFraction)
                         .dilated(config_.pyramid_roi_margin, side);
            if (!roi[i].is_full(side))
              beliefops::mask_in(prior_grid[i], side, roi[i]);
          } else {
            roi[i] = CellBox::full(side);
          }
        } else {
          upsample_belief(prev_shape, (*belief_opt)[i], shape, up);
          roi[i] = beliefops::support_box(up, side, kRoiPeakFraction)
                       .dilated(config_.pyramid_roi_margin, side);
          std::ranges::fill(prior_grid[i], 0.0);  // zero outside the ROI
          beliefops::set_from_prior_in(
              shape, prior_grid[i],
              roles.prior(scenario, i), roi[i]);
        }
        copy_belief(prior_grid[i], next_belief[i]);
        std::ranges::fill(next_last_pub[i], 0.0);
        if (lvl > 0 && ever_published[i]) {
          proto.cur[i] = upsample_summary(prev_shape, shape, proto.cur[i]);
          proto.prev[i] = upsample_summary(prev_shape, shape, proto.prev[i]);
        }
      };
      parallel_for_chunks(pool, n, [&](std::size_t begin, std::size_t end) {
        std::vector<double> up(lvl > 0 ? cells : 0);
        for (std::size_t i = begin; i < end; ++i) switch_node(i, up);
      });
      // Async: the channel's stored payloads (send histories awaiting
      // retried deliveries, and every receiver inbox) must be re-expressed
      // on the new grid too — receiver-locally, no radio traffic, same as
      // the cur/prev translation above.
      if (lvl > 0)
        proto.transform_payloads([&](SparseBelief& s) {
          s = upsample_summary(prev_shape, shape, s);
        });
      belief_opt.emplace(std::move(next_belief));
      last_pub_opt.emplace(std::move(next_last_pub));
    }
    {
      // The level's dense footprint: total ROI cells across the nodes that
      // actually update — the "pyramid cells per level" the P2 gate reads.
      std::uint64_t roi_cells = 0;
      for (std::size_t i = 0; i < n; ++i)
        if (!acts_anchor[i])
          roi_cells += static_cast<std::uint64_t>(roi[i].cell_count());
      obs::count(lvl_roi_name, roi_cells);
      obs::count("grid.pyramid.roi_cells", roi_cells);
    }
    BeliefStore& belief = *belief_opt;
    BeliefStore& last_pub_dense = *last_pub_opt;

    // --- Precomputed kernels per directed CSR slot ------------------------
    // Kernels are pure functions of the measured distance (the spec and
    // shape are fixed for the level), so the cache shares one kernel across
    // symmetric link directions and coincident measurements; receivers that
    // act as anchors never consume theirs and are skipped outright.
    // `process` scope swaps the per-run cache for the process-global
    // registry shard of this (ranging, shape) parameter set: same pure
    // kernels, but construction cost is shared with every other run in
    // the process. Per-lookup outcomes are metered so a run can report
    // its own hit rate against the shared cache. The level's distinct
    // missing kernels are built across the pool, outside the cache lock.
    std::optional<KernelCache> kcache;
    std::vector<const RangeKernel*> link_kernel(proto.link_count(), nullptr);
    const bool process_scope = config_.kernel_scope == KernelScope::process;
    KernelCache& cache =
        process_scope ? KernelCacheRegistry::instance().acquire(ranging, shape)
                      : kcache.emplace(ranging, shape);
    std::vector<double> slot_dist;
    std::vector<std::size_t> slot_of;
    for (std::size_t i = 0; i < n; ++i) {
      if (acts_anchor[i]) continue;
      const auto nbs = scenario.graph.neighbors(i);
      for (std::size_t k = 0; k < nbs.size(); ++k) {
        slot_dist.push_back(nbs[k].weight);
        slot_of.push_back(proto.slot(i, k));
      }
    }
    std::vector<const RangeKernel*> slot_kernel(slot_dist.size());
    const std::size_t run_built = cache.range_many(slot_dist, slot_kernel, pool);
    const std::size_t run_shared = slot_dist.size() - run_built;
    for (std::size_t k = 0; k < slot_of.size(); ++k)
      link_kernel[slot_of[k]] = slot_kernel[k];
    obs::count("grid.kernels.built", run_built);
    obs::count("grid.kernels.shared", run_shared);
    if (process_scope) {
      obs::count("grid.kernels.process.miss", run_built);
      obs::count("grid.kernels.process.hit", run_shared);
    }

    const RangeKernel conn_kernel =
        config_.use_negative_evidence
            ? RangeKernel::make_connectivity(scenario.radio, shape)
            : RangeKernel();

    // --- Level round budget -----------------------------------------------
    // Coarse levels take an equal slice of the round budget (capped so the
    // finest level always keeps the majority), and always leave at least
    // two rounds for every level after them; the finest level gets the
    // remainder. For levels == 1 this is exactly `max_iterations`.
    std::size_t level_cap;
    if (finest) {
      level_cap = total_rounds > iter ? total_rounds - iter : 0;
    } else {
      const std::size_t reserve = 2 * (n_levels - 1 - lvl);
      const std::size_t share =
          std::max<std::size_t>(2, total_rounds / (n_levels + 1));
      level_cap = total_rounds > iter + reserve
                      ? std::min(share, total_rounds - iter - reserve)
                      : 0;
    }

    for (std::size_t level_round = 0; level_round < level_cap;
         ++level_round, ++iter) {
      // Reboot cold restart. A rebooted node's RAM is gone: its belief
      // restarts from the prior and its publish state resets (so the
      // informative/TV gates treat it as a newcomer). Live published
      // neighbors then relay their newest summary to it (async).
      proto.begin_round([&](std::size_t r) {
        copy_belief(prior_grid[r], belief[r]);
        const std::span<double> lp = last_pub_dense[r];
        std::fill(lp.begin(), lp.end(), 0.0);
        ever_published[r] = 0;
        proto.cur[r] = SparseBelief{};
        proto.prev[r] = SparseBelief{};
      });
      proto.relay_to_rebooted(
          [&](std::size_t u) { return ever_published[u] != 0; },
          [](const SparseBelief& s) { return s.payload_bytes(); });

      // Publish phase: decide who broadcasts this round. A crashed node's
      // published state freezes at its last alive summary — neighbors keep
      // using the copy they last received (until the TTL retires it).
      // Pass 1 (node-parallel): the re-broadcast TV gate, the sparsify, and
      // the informative gate are all node-local, as is the dense
      // last-published copy.
      const auto decide_publish = [&](std::size_t u,
                                      std::vector<std::uint32_t>& oscratch) {
        will_publish[u] = 0;
        if (proto.crashed(u)) return;
        const bool force_heartbeat =
            ever_published[u] && proto.heartbeat_due(u);
        // Quiet-node short circuit: once a node has published (and nothing
        // forces re-broadcast), the decision reduces to the re-broadcast TV
        // gate — evaluated first so a silent node never pays for the
        // sparsify. Decision-equivalent to gating on informativeness first:
        // either way a quiet node does not publish. All three dense steps
        // (TV gate, sparsify, last-published copy) stay inside the node's
        // ROI — both buffers are zero outside it.
        if (ever_published[u] && !always_publish && !force_heartbeat) {
          const double tv = beliefops::total_variation_in(
              belief[u], last_pub_dense[u], side, roi[u]);
          if (tv <= config_.rebroadcast_tol) return;
        }
        beliefops::sparsify_in(belief[u], side, roi[u], config_.support_mass,
                               pub_cap, pub_candidate[u],
                               oscratch);
        const bool informative =
            acts_anchor[u] ||
            pub_candidate[u].covered_fraction >= config_.informative_coverage;
        if (!informative) return;
        beliefops::copy_in(belief[u], last_pub_dense[u], side, roi[u]);
        will_publish[u] = 1;
      };
      {
        const obs::Span publish_span("grid.publish");
        parallel_for_chunks(pool, n, [&](std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t> oscratch;
          for (std::size_t u = begin; u < end; ++u) decide_publish(u, oscratch);
        });
        // Pass 2 (serial, node order): sequence numbers and metered traffic
        // are order-sensitive, so they commit in node order regardless of how
        // pass 1 was scheduled.
        for (std::size_t u = 0; u < n; ++u) {
          if (!will_publish[u]) continue;
          const std::size_t bytes = pub_candidate[u].payload_bytes();
          proto.publish(u, ++pub_seq, std::move(pub_candidate[u]), bytes);
          // A first publish leaves no older copy: a receiver that misses
          // it falls back to the same summary.
          if (!ever_published[u]) proto.prev[u] = proto.cur[u];
          ever_published[u] = 1;
        }
      }

      // Update phase: rebuild each unknown's belief from its prior and the
      // currently-visible neighbor summaries, in place. A node's update
      // reads only published summaries and its own belief (DESIGN.md §8),
      // so writing belief[i] is invisible to every other node's update:
      // Jacobi stays order-independent, the honest distributed semantics.
      // Gauss-Seidel also republishes each node's summary immediately so
      // later nodes in the round already see it.
      const bool gauss_seidel =
          config_.schedule == UpdateSchedule::gauss_seidel;
      // Gauss-Seidel republish (a centralized sweep has no extra broadcast;
      // traffic is not re-metered). Serial schedule only.
      const auto republish_gs = [&](std::size_t i) {
        beliefops::sparsify_in(belief[i], side, roi[i], config_.support_mass,
                               pub_cap, sp_scratch,
                               order_scratch);
        if (sp_scratch.covered_fraction >= config_.informative_coverage) {
          proto.cur[i] = std::move(sp_scratch);
          ever_published[i] = 1;
        }
      };
      // b_i ∝ p_i · ∏ m_j→i, damped toward the old belief, one dense pass
      // per message plus one. Each message is replayed into `scratch` and
      // folded into the running product `next` by a pass that also clears
      // `scratch`; every replay writes only inside the box its fold clears,
      // so the per-chunk `scratch` stays all zero between messages and
      // nodes. `pending` is the sum the product still owes: the next fold,
      // or the settle that damps, measures and writes belief[i], divides it
      // out. Outside this node's ROI, `next` holds what an earlier node left
      // there and is never read.
      const auto update_node = [&](std::size_t i, std::span<double> scratch,
                                   std::span<double> next) {
        if (acts_anchor[i]) return;
        if (proto.crashed(i)) return;  // dead nodes stop computing too
        // Quorum hold: with most of the neighborhood unreachable, keep the
        // previous belief rather than integrate the skewed remainder.
        if (proto.should_hold(i, usable)) return;
        const auto nbs = scenario.graph.neighbors(i);
        const CellBox& box = roi[i];
        const std::uint64_t box_cells =
            static_cast<std::uint64_t>(box.cell_count());

        std::span<const double> product = prior_grid[i];
        double pending = 1.0;
        std::uint64_t folds = 0;
        const auto fold = [&](bool nonlink) {
          pending = beliefops::fold_in(next, product, pending, scratch,
                                       config_.message_floor, nonlink, side,
                                       box);
          product = next;
          ++folds;
          node_cell_visits[i] += box_cells;
        };
        node_cell_visits[i] += box_cells;  // prior
        for (std::size_t k = 0; k < nbs.size(); ++k) {
          const std::size_t slot = proto.slot(i, k);
          const SparseBelief* src = proto.input(i, k);
          if (!usable(src)) continue;
          const double peak =
              link_kernel[slot]->correlate_zeroed(*src, scratch, side, &box);
          ++node_msgs_computed[i];
          node_kernel_cells[i] +=
              static_cast<std::uint64_t>(src->cells.size()) *
              link_kernel[slot]->stamp_count();
          if (peak <= 0.0) continue;
          fold(false);
        }
        if (config_.use_negative_evidence) {
          for (const std::size_t far : nonlinks[i]) {
            // With a TTL active, a dead node's frozen summary stops being
            // usable as non-link evidence as well. (Both transports read
            // cur[far] here — two-hop summaries are not on the radio at
            // all; the non-link factor is an idealization either way.)
            if (config_.robustness.stale_ttl > 0 && proto.crashed(far))
              continue;
            const SparseBelief& src = proto.cur[far];
            // Negative evidence only pays off against a concentrated belief.
            if (src.empty() || src.covered_fraction < 0.9) continue;
            conn_kernel.accumulate(src, scratch, side, &box);
            ++node_msgs_computed[i];
            node_kernel_cells[i] +=
                static_cast<std::uint64_t>(src.cells.size()) *
                conn_kernel.stamp_count();
            fold(true);  // m(x) = 1 - P(link | x), capped at 1
          }
        }
        node_change[i] = beliefops::settle_in(belief[i], product, pending,
                                              config_.damping, side, box);
        node_cell_visits[i] += 2 * box_cells;  // damping + residual
        node_update_bytes[i] +=
            box_cells * (kFoldBytesPerCell * folds + kSettleBytesPerCell);
        if (gauss_seidel) republish_gs(i);
      };

      std::fill(node_change.begin(), node_change.end(), -1.0);
      std::fill(node_msgs_computed.begin(), node_msgs_computed.end(), 0U);
      std::fill(node_cell_visits.begin(), node_cell_visits.end(),
                std::uint64_t{0});
      std::fill(node_kernel_cells.begin(), node_kernel_cells.end(),
                std::uint64_t{0});
      std::fill(node_update_bytes.begin(), node_update_bytes.end(),
                std::uint64_t{0});
      {
        const obs::Span update_span("grid.update");
        // Gauss-Seidel never has a pool: one in-order chunk.
        parallel_for_chunks(pool, n, [&](std::size_t begin, std::size_t end) {
          std::vector<double> scratch(cells), next(cells);
          for (std::size_t i = begin; i < end; ++i)
            update_node(i, scratch, next);
        });
      }

      double sum_change = 0.0;
      std::size_t changed_nodes = 0;
      std::uint64_t msgs_computed = 0;
      std::uint64_t cell_visits = 0, kernel_cells = 0, update_bytes = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (node_change[i] >= 0.0) {
          sum_change += node_change[i];
          ++changed_nodes;
        }
        msgs_computed += node_msgs_computed[i];
        cell_visits += node_cell_visits[i];
        kernel_cells += node_kernel_cells[i];
        update_bytes += node_update_bytes[i];
      }
      obs::count("grid.messages.computed", msgs_computed);
      obs::count("grid.cell_visits", cell_visits);
      obs::count("grid.kernel_cells", kernel_cells);
      obs::count("grid.update_bytes", update_bytes);
      obs::count(lvl_visits_name, cell_visits);
      proto.end_round();

      const double mean_change =
          changed_nodes ? sum_change / static_cast<double>(changed_nodes)
                        : 0.0;
      result.change_per_iteration.push_back(mean_change);
      // Residual distribution across rounds, fixed-point at 1e-9 TV units.
      // The residual is folded serially in node order above, so the observed
      // value — hence the bucket — is identical at any thread count.
      obs::observe_scaled("grid.round.residual", mean_change, 1e9);
      if (config_.observer) {
        emit_estimates();
        config_.observer(iter + 1, result.estimates);
      }
      if (tracing) {
        emit_estimates();
        obs::record_round(scenario, iter + 1, mean_change, result.estimates,
                          proto.stats(), proto.activity());
      }
      // Converged at this resolution: the finest level ends the run; a
      // coarse level just hands over to the next rung early. A round with
      // quorum holds never counts: held nodes report no change precisely
      // because the network is too degraded to update them.
      if (mean_change < config_.iteration.convergence_tol &&
          level_round >= 2 && proto.holds() == 0) {
        if (finest) result.converged = true;
        ++iter;
        break;
      }
    }

    prev_shape = shape;
  }
  rounds_timer.stop();
  obs::count(result.converged ? "grid.converged" : "grid.maxed_out");

  emit_estimates();
  result.iterations = iter;
  proto.finish(result);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
