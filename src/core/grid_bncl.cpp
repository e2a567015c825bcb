#include "core/grid_bncl.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "fault/anchor_vetting.hpp"
#include "inference/grid_belief.hpp"
#include "inference/kernel_cache.hpp"
#include "inference/pyramid.hpp"
#include "inference/range_kernel.hpp"
#include "net/summary_channel.hpp"
#include "net/sync_radio.hpp"
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
  return {};
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
  if (pool != nullptr)
    parallel_for_chunks(*pool, s.node_count(), scan);
  else
    scan(0, s.node_count());
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
  // Anchor vetting: flagged anchors act as wide-prior unknowns below, so a
  // drifted anchor position is evidence to be weighed, not truth to obey.
  std::vector<unsigned char> acts_anchor(n, 0);
  for (std::size_t i = 0; i < n; ++i) acts_anchor[i] = scenario.is_anchor[i];
  std::vector<PriorPtr> demoted_prior(n);
  std::size_t anchors_demoted = 0;
  if (config_.robustness.anchor_vetting) {
    const AnchorVetReport vet = vet_anchors(scenario);
    for (std::size_t i = 0; i < n; ++i) {
      if (!scenario.is_anchor[i] || !vet.flagged[i]) continue;
      acts_anchor[i] = 0;
      demoted_prior[i] = GaussianPrior::isotropic(scenario.anchor_position(i),
                                                  scenario.radio.range);
      ++anchors_demoted;
    }
  }
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
  std::vector<std::size_t> kernel_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    kernel_offset[i + 1] = kernel_offset[i] + scenario.graph.degree(i);
  const std::size_t n_links = kernel_offset[n];

  // Per-node parallelism pilot: the Jacobi update, the publish phase's
  // decide/sparsify pass, and the staged→current commit are independent
  // across nodes within a round, so they split across a pool. Gauss-Seidel
  // is order-dependent and keeps the serial update path regardless of
  // config_.threads.
  const bool parallel_update = config_.threads != 1 &&
                               config_.schedule == UpdateSchedule::jacobi &&
                               n > 1;
  std::optional<ThreadPool> pool;
  if (parallel_update) pool.emplace(config_.threads);

  const auto nonlinks =
      config_.use_negative_evidence
          ? two_hop_nonlinks(scenario, config_.negative_max_pairs,
                             pool ? &*pool : nullptr)
          : std::vector<std::vector<std::size_t>>();

  // --- Published summaries (the "network state") --------------------------
  // Each node's newest published summary and the one before it: a sync
  // receiver whose delivery was lost this round still holds the previous
  // copy. Async publishes carry a global sequence number, which the
  // channel uses to gate duplicates and reordering.
  std::vector<SparseBelief> cur_pub(n), prev_pub(n);
  std::uint64_t pub_seq = 0;
  std::vector<unsigned char> ever_published(n, 0);

  // Transport. Both radios draw from the same substream salt, so a config
  // differing only in `transport.async` compares the same scenario under
  // the two link layers. The sync radio now also honors a reboot schedule
  // (battery-swap recovery); the async radio adds the full event-driven
  // link layer plus the SummaryChannel that binds accepted sequence numbers
  // back to payloads.
  const bool async = config_.transport.async;
  std::optional<SyncRadio> sync_radio;
  std::optional<AsyncRadio> async_radio;
  std::optional<SummaryChannel<SparseBelief>> channel;
  if (async) {
    async_radio.emplace(scenario.graph, config_.transport.radio,
                        rng.split(0x5ad10), scenario.faults.death_round,
                        scenario.faults.reboot_round);
    channel.emplace(scenario.graph, *async_radio);
  } else {
    sync_radio.emplace(scenario.graph, config_.iteration.packet_loss,
                       rng.split(0x5ad10), scenario.faults.death_round,
                       scenario.faults.reboot_round);
  }
  const auto radio_crashed = [&](std::size_t u) {
    return async ? async_radio->crashed(u) : sync_radio->crashed(u);
  };
  const auto radio_stats = [&]() -> const CommStats& {
    return async ? async_radio->stats() : sync_radio->stats();
  };
  const bool always_publish = !async && config_.iteration.packet_loss > 0.0;
  const std::size_t heartbeat =
      async ? config_.transport.heartbeat_rounds : 0;
  const double quorum = config_.robustness.update_quorum;
  // Round a neighbor's summary was last delivered, per directed CSR slot
  // (receiver-side); drives the stale-belief TTL under the sync transport
  // (the async channel tracks its own accepted rounds). Indexed by the
  // global round counter, so it carries across pyramid levels unchanged.
  std::vector<std::size_t> last_heard(
      !async && config_.robustness.stale_ttl > 0 ? n_links : 0, 0);
  // Round each node last published, for the async heartbeat: a converged
  // node re-announces at least every `heartbeat` rounds so a receiver whose
  // last copy was dropped is not starved forever by the TV gate.
  std::vector<std::size_t> last_pub_round(heartbeat > 0 ? n : 0, 0);
  // Quorum-gate state machine, per node: `armed` starts set (the gate may
  // hold from round one — under the async transport that synchronizes the
  // bootstrap against in-flight first summaries), disarms after
  // `quorum_patience` consecutive holds, and re-arms whenever a full
  // quorum is observed. Written only by the owning node in the update
  // sweep; carries across pyramid levels.
  std::vector<unsigned char> quorum_armed(quorum > 0.0 ? n : 0, 1);
  std::vector<std::uint32_t> quorum_streak(quorum > 0.0 ? n : 0, 0);
  // Nodes rebooting in the current round (sync: just_rebooted scan; async:
  // the radio's list) — the cold-restart hook.
  std::vector<std::uint32_t> rebooted_scratch;

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
  // Work accounting (ROADMAP item 1's gate currency), same pattern: each
  // dense belief op over a node's ROI charges one visit per cell touched;
  // each computed message charges summary-cells × kernel stamps. Plain
  // per-node accumulation — deterministic at any thread count.
  std::vector<std::uint64_t> node_cell_visits(n, 0), node_kernel_cells(n, 0);
  // Nodes whose update was held this round by the partial-neighborhood
  // quorum gate (telemetry; written per node in the parallel sweep, summed
  // serially).
  std::vector<unsigned char> node_quorum_held(n, 0);
  // Publish-phase two-pass state: pass 1 fills each node's candidate
  // summary in parallel; pass 2 commits sequence numbers and metered traffic
  // serially in node order (bit-identical at any thread count).
  std::vector<SparseBelief> pub_candidate(n);
  std::vector<unsigned char> will_publish(n, 0);
  SparseBelief sp_scratch;
  std::vector<std::uint32_t> order_scratch;

  const auto emit_estimates = [&]() {
    for (std::size_t i = 0; i < n; ++i) {
      if (scenario.is_anchor[i]) continue;
      result.estimates[i] =
          config_.map_estimate
              ? beliefops::argmax(cur_shape, (*belief_opt)[i])
              : beliefops::mean(cur_shape, (*belief_opt)[i]);
      result.covariances[i] =
          beliefops::covariance(cur_shape, (*belief_opt)[i]);
    }
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
    // role (current / staged / prior / last-published), not its own vector.
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
    BeliefStore prior_grid(shape, n);
    {
      BeliefStore next_belief(shape, n);
      BeliefStore next_last_pub(shape, n);
      std::vector<double> up(lvl > 0 ? cells : 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (acts_anchor[i]) {
          beliefops::set_delta(shape, prior_grid[i],
                               scenario.anchor_position(i));
          roi[i] = CellBox::full(side);
        } else if (lvl == 0) {
          beliefops::set_from_prior(
              shape, prior_grid[i],
              demoted_prior[i] ? *demoted_prior[i] : *scenario.priors[i]);
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
          beliefops::set_from_prior_in(
              shape, prior_grid[i],
              demoted_prior[i] ? *demoted_prior[i] : *scenario.priors[i],
              roi[i]);
        }
        copy_belief(prior_grid[i], next_belief[i]);
        if (lvl > 0 && ever_published[i]) {
          cur_pub[i] = upsample_summary(prev_shape, shape, cur_pub[i]);
          prev_pub[i] = upsample_summary(prev_shape, shape, prev_pub[i]);
        }
      }
      // Async: the channel's stored payloads (send histories awaiting
      // retried deliveries, and every receiver inbox) must be re-expressed
      // on the new grid too — receiver-locally, no radio traffic, same as
      // the cur_pub/prev_pub translation above.
      if (async && lvl > 0)
        channel->transform([&](SparseBelief& s) {
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
    BeliefStore staged(shape, n);  // Jacobi double buffer
    for (std::size_t i = 0; i < n; ++i) copy_belief(belief[i], staged[i]);

    // --- Precomputed kernels per directed CSR slot ------------------------
    // Kernels are pure functions of the measured distance (the spec and
    // shape are fixed for the level), so the cache shares one kernel across
    // symmetric link directions and coincident measurements; receivers that
    // act as anchors never consume theirs and are skipped outright.
    // `process` scope swaps the per-run cache for the process-global
    // registry shard of this (ranging, shape) parameter set: same pure
    // kernels, but construction cost is shared with every other run in
    // the process. Per-lookup outcomes are metered so a run can report
    // its own hit rate against the shared cache.
    std::optional<KernelCache> kcache;
    std::vector<const RangeKernel*> link_kernel(n_links, nullptr);
    const bool process_scope = config_.kernel_scope == KernelScope::process;
    KernelCache& cache =
        process_scope ? KernelCacheRegistry::instance().acquire(ranging, shape)
                      : kcache.emplace(ranging, shape);
    std::size_t run_built = 0;
    std::size_t run_shared = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (acts_anchor[i]) continue;
      const auto nbs = scenario.graph.neighbors(i);
      for (std::size_t k = 0; k < nbs.size(); ++k) {
        bool built = false;
        link_kernel[kernel_offset[i] + k] = cache.range(nbs[k].weight, &built);
        if (built)
          ++run_built;
        else
          ++run_shared;
      }
    }
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

    std::vector<double> msg(cells);

    // m(x) = 1 - P(link | x): cap at 1 (kernel overlap can exceed it
    // slightly on coarse grids). Only the receiver's ROI rows are read
    // downstream, so only they are transformed; element-wise, so the full
    // box is bit-identical to the historical whole-buffer loop.
    const auto neg_transform = [side](std::span<double> buf,
                                      const CellBox& box) {
      const std::size_t w = box.width();
      for (std::int32_t y = box.y0; y <= box.y1; ++y) {
        double* const row =
            buf.data() + static_cast<std::size_t>(y) * side + box.x0;
        for (std::size_t t = 0; t < w; ++t)
          row[t] = std::max(0.0, 1.0 - std::min(row[t], 1.0));
      }
    };
    // Clear a message buffer before a clipped replay: only the rows the
    // replay may write (and downstream ops read) need zeroing.
    const auto zero_in = [side](std::span<double> buf, const CellBox& box) {
      if (box.is_full(side)) {
        std::fill(buf.begin(), buf.end(), 0.0);
        return;
      }
      for (std::int32_t y = box.y0; y <= box.y1; ++y)
        std::fill_n(buf.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(y) * side +
                                      static_cast<std::size_t>(box.x0)),
                    box.width(), 0.0);
    };

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
      if (async)
        channel->begin_round();
      else
        sync_radio->begin_round();

      // Reboot cold restart. A rebooted node's RAM is gone: its belief
      // restarts from the prior and its publish state resets (so the
      // informative/TV gates treat it as a newcomer). Receiver-side state
      // differs per transport: the
      // async channel already wiped the inbox; the sync radio's shared
      // cur_pub/prev_pub model the *senders'* state and stay readable (the
      // idealization is a flash-persisted summary cache), with a TTL grace
      // so retirement restarts from the reboot round.
      std::span<const std::uint32_t> rebooted;
      if (async) {
        rebooted = async_radio->rebooted_this_round();
      } else if (!scenario.faults.reboot_round.empty()) {
        rebooted_scratch.clear();
        for (std::size_t u = 0; u < n; ++u)
          if (sync_radio->just_rebooted(u))
            rebooted_scratch.push_back(static_cast<std::uint32_t>(u));
        rebooted = rebooted_scratch;
      }
      for (const std::uint32_t r : rebooted) {
        if (acts_anchor[r]) {  // an anchor's state is its surveyed position
          continue;
        }
        copy_belief(prior_grid[r], belief[r]);
        copy_belief(prior_grid[r], staged[r]);
        const std::span<double> lp = last_pub_dense[r];
        std::fill(lp.begin(), lp.end(), 0.0);
        ever_published[r] = 0;
        cur_pub[r] = SparseBelief{};
        prev_pub[r] = SparseBelief{};
        if (!last_heard.empty())
          for (std::size_t s = kernel_offset[r]; s < kernel_offset[r + 1];
               ++s)
            last_heard[s] = iter + 1;
        // A fresh boot re-arms the quorum gate: wait for the re-entry
        // relays to re-fill the inbox before committing to an update.
        if (!quorum_armed.empty()) {
          quorum_armed[r] = 1;
          quorum_streak[r] = 0;
        }
        obs::count("grid.reboots");
      }
      // Warm re-entry (async): each live published neighbor
      // store-and-forward relays its newest summary to the rebooted node,
      // re-seeding its inbox in one hop instead of waiting out the TV-gate
      // silence of converged neighbors.
      if (async && config_.transport.reboot_relays) {
        for (const std::uint32_t r : rebooted) {
          for (const Neighbor& nb : scenario.graph.neighbors(r)) {
            if (async_radio->crashed(nb.node) || !ever_published[nb.node])
              continue;
            channel->relay(nb.node, r, cur_pub[nb.node].payload_bytes());
          }
        }
      }

      // Publish phase: decide who broadcasts this round. A crashed node's
      // published state freezes at its last alive summary — neighbors keep
      // using the copy they last received (until the TTL retires it).
      // Pass 1 (node-parallel): the re-broadcast TV gate, the sparsify, and
      // the informative gate are all node-local, as is the dense
      // last-published copy.
      const auto decide_publish = [&](std::size_t u,
                                      std::vector<std::uint32_t>& oscratch) {
        will_publish[u] = 0;
        if (radio_crashed(u)) return;
        // Heartbeat (async): a quiet node re-announces at least every
        // `heartbeat` rounds. Under a lossy async link a converged node's
        // final summary can simply never have arrived somewhere — and the
        // TV gate would keep it silent forever, starving that receiver.
        const bool force_heartbeat =
            heartbeat > 0 && ever_published[u] &&
            iter + 1 - last_pub_round[u] >= heartbeat;
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
        if (pool) {
          parallel_for_chunks(*pool, n,
                              [&](std::size_t begin, std::size_t end) {
                                std::vector<std::uint32_t> oscratch;
                                for (std::size_t u = begin; u < end; ++u)
                                  decide_publish(u, oscratch);
                              });
        } else {
          for (std::size_t u = 0; u < n; ++u) decide_publish(u, order_scratch);
        }
        // Pass 2 (serial, node order): sequence numbers and metered traffic
        // are order-sensitive, so they commit in node order regardless of how
        // pass 1 was scheduled.
        for (std::size_t u = 0; u < n; ++u) {
          if (!will_publish[u]) continue;
          prev_pub[u] = ever_published[u] ? std::move(cur_pub[u])
                                          : pub_candidate[u];
          cur_pub[u] = std::move(pub_candidate[u]);
          ever_published[u] = 1;
          if (async) {
            channel->publish(u, ++pub_seq, cur_pub[u],
                             cur_pub[u].payload_bytes());
            if (heartbeat > 0) last_pub_round[u] = iter + 1;
          } else {
            sync_radio->record_broadcast(u, cur_pub[u].payload_bytes());
          }
        }
      }

      // Update phase: rebuild each unknown's belief from its prior and the
      // currently-visible neighbor summaries. Jacobi writes into a staging
      // buffer (order-independent, the honest distributed semantics);
      // Gauss-Seidel commits each node's belief and published summary
      // immediately so later nodes in the round already see it.
      const bool gauss_seidel =
          config_.schedule == UpdateSchedule::gauss_seidel;
      // Gauss-Seidel commit: later nodes in the sweep already see this
      // node's updated belief and summary (a centralized sweep has no extra
      // broadcast; traffic is not re-metered). Serial schedule only.
      const auto commit_gs = [&](std::size_t i, std::span<const double> next) {
        beliefops::copy_in(next, belief[i], side, roi[i]);
        beliefops::sparsify_in(belief[i], side, roi[i], config_.support_mass,
                               pub_cap, sp_scratch,
                               order_scratch);
        if (sp_scratch.covered_fraction >= config_.informative_coverage) {
          cur_pub[i] = std::move(sp_scratch);
          ever_published[i] = 1;
        }
      };
      const auto update_node = [&](std::size_t i,
                                   std::vector<double>& scratch) {
        if (acts_anchor[i]) return;
        if (radio_crashed(i)) return;  // dead nodes stop computing too
        const std::span<double> next = staged[i];
        const auto nbs = scenario.graph.neighbors(i);
        const CellBox& box = roi[i];
        const std::uint64_t box_cells =
            static_cast<std::uint64_t>(box.cell_count());
        const std::size_t ttl = config_.robustness.stale_ttl;

        // The slot's summary if it is usable this round, else nullptr. The
        // one predicate both transports share: the async channel serves its
        // inbox (whatever was last *accepted*, however stale, until the TTL
        // retires it); the sync radio serves the sender's current or
        // previous summary depending on this round's delivery. Pure reads —
        // callable any number of times per round.
        const auto slot_input = [&](std::size_t k,
                                    std::size_t slot) -> const SparseBelief* {
          if (async) {
            if (channel->version(slot) == 0) return nullptr;
            if (ttl > 0 && iter + 1 - channel->heard_round(slot) > ttl)
              return nullptr;
            return &channel->payload(slot);
          }
          const std::size_t j = nbs[k].node;
          const bool fresh = sync_radio->delivered(j, i);
          if (ttl > 0) {
            const std::size_t heard = fresh ? iter + 1 : last_heard[slot];
            if (iter + 1 - heard > ttl) return nullptr;
          }
          const SparseBelief* src = fresh ? &cur_pub[j] : &prev_pub[j];
          return src->empty() ? nullptr : src;
        };

        // Partial-neighborhood quorum: when most of the neighborhood is
        // unreachable (partition, mass loss, crash cluster, summaries
        // still in flight), hold the previous belief instead of
        // integrating the skewed remainder — an update from the 1-2
        // reachable neighbors drags the posterior toward their side of the
        // cut. Bounded patience keeps the gate from deadlocking starts
        // where quorum is structurally unreachable (diffuse priors: nobody
        // has published yet, so nobody can ever reach quorum): after
        // `quorum_patience` consecutive holds the gate disarms and the
        // node free-runs until a full quorum is next observed.
        if (quorum > 0.0 && !nbs.empty()) {
          std::size_t usable = 0;
          for (std::size_t k = 0; k < nbs.size(); ++k)
            if (slot_input(k, kernel_offset[i] + k) != nullptr) ++usable;
          const bool met = static_cast<double>(usable) >=
                           quorum * static_cast<double>(nbs.size());
          if (met) {
            quorum_armed[i] = 1;
            quorum_streak[i] = 0;
          } else if (quorum_armed[i] &&
                     quorum_streak[i] < config_.robustness.quorum_patience) {
            ++quorum_streak[i];
            node_quorum_held[i] = 1;
            // A held node still *listened*: the sync TTL bookkeeping must
            // record this round's deliveries or held rounds would count as
            // silence and retire perfectly live neighbors.
            if (!async && ttl > 0)
              for (std::size_t k = 0; k < nbs.size(); ++k)
                if (sync_radio->delivered(nbs[k].node, i))
                  last_heard[kernel_offset[i] + k] = iter + 1;
            return;
          } else if (quorum_armed[i]) {
            quorum_armed[i] = 0;  // patience exhausted: free-run
            quorum_streak[i] = 0;
          }
        }

        beliefops::copy_in(prior_grid[i], next, side, box);
        node_cell_visits[i] += box_cells;  // prior copy
        for (std::size_t k = 0; k < nbs.size(); ++k) {
          const std::size_t slot = kernel_offset[i] + k;
          // Sync TTL bookkeeping: a slot undelivered for longer than the TTL
          // retires — the neighbor is presumed dead and its stale summary
          // decays out of the product.
          if (!async && ttl > 0 && sync_radio->delivered(nbs[k].node, i))
            last_heard[slot] = iter + 1;
          const SparseBelief* src = slot_input(k, slot);
          if (src == nullptr || src->empty()) continue;
          const double peak =
              link_kernel[slot]->correlate(*src, scratch, side, &box);
          ++node_msgs_computed[i];
          node_kernel_cells[i] +=
              static_cast<std::uint64_t>(src->cells.size()) *
              link_kernel[slot]->stamp_count();
          if (peak <= 0.0) continue;
          node_cell_visits[i] += box_cells;
          beliefops::multiply_in(next, scratch, config_.message_floor, side,
                                 box);
        }
        if (config_.use_negative_evidence) {
          for (const std::size_t far : nonlinks[i]) {
            // With a TTL active, a dead node's frozen summary stops being
            // usable as non-link evidence as well. (Both transports read
            // cur_pub[far] here — two-hop summaries are not on the radio at
            // all; the non-link factor is an idealization either way.)
            if (ttl > 0 && radio_crashed(far)) continue;
            const SparseBelief& src = cur_pub[far];
            // Negative evidence only pays off against a concentrated belief.
            if (src.empty() || src.covered_fraction < 0.9) continue;
            zero_in(scratch, box);
            conn_kernel.accumulate(src, scratch, side, &box);
            neg_transform(scratch, box);
            ++node_msgs_computed[i];
            node_kernel_cells[i] +=
                static_cast<std::uint64_t>(src.cells.size()) *
                conn_kernel.stamp_count();
            node_cell_visits[i] += box_cells;
            beliefops::multiply_in(next, scratch, config_.message_floor, side,
                                   box);
          }
        }
        beliefops::mix_in(next, belief[i], config_.damping, side, box);
        node_change[i] =
            beliefops::total_variation_in(next, belief[i], side, box);
        node_cell_visits[i] += 2 * box_cells;  // mix + residual
        if (gauss_seidel) commit_gs(i, next);
      };

      std::fill(node_change.begin(), node_change.end(), -1.0);
      std::fill(node_msgs_computed.begin(), node_msgs_computed.end(), 0U);
      std::fill(node_cell_visits.begin(), node_cell_visits.end(),
                std::uint64_t{0});
      std::fill(node_kernel_cells.begin(), node_kernel_cells.end(),
                std::uint64_t{0});
      std::fill(node_quorum_held.begin(), node_quorum_held.end(),
                static_cast<unsigned char>(0));
      {
        const obs::Span update_span("grid.update");
        if (pool && !gauss_seidel) {
          parallel_for_chunks(*pool, n,
                              [&](std::size_t begin, std::size_t end) {
                                std::vector<double> scratch(cells);
                                for (std::size_t i = begin; i < end; ++i)
                                  update_node(i, scratch);
                              });
        } else {
          for (std::size_t i = 0; i < n; ++i) update_node(i, msg);
        }
      }

      double sum_change = 0.0;
      std::size_t changed_nodes = 0;
      std::uint64_t msgs_computed = 0;
      std::uint64_t cell_visits = 0, kernel_cells = 0;
      std::size_t quorum_held = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (node_change[i] >= 0.0) {
          sum_change += node_change[i];
          ++changed_nodes;
        }
        msgs_computed += node_msgs_computed[i];
        cell_visits += node_cell_visits[i];
        kernel_cells += node_kernel_cells[i];
        quorum_held += node_quorum_held[i];
      }
      obs::count("grid.messages.computed", msgs_computed);
      obs::count("grid.cell_visits", cell_visits);
      obs::count("grid.kernel_cells", kernel_cells);
      obs::count(lvl_visits_name, cell_visits);
      if (quorum_held) obs::count("grid.quorum_holds", quorum_held);
      if (!gauss_seidel) {
        const obs::Span commit_span("grid.commit");
        const auto commit_chunk = [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i)
            if (!acts_anchor[i] && !radio_crashed(i) && !node_quorum_held[i])
              beliefops::copy_in(staged[i], belief[i], side, roi[i]);
        };
        if (pool)
          parallel_for_chunks(*pool, n, commit_chunk);
        else
          commit_chunk(0, n);
      }

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
        obs::RobustActivity robust;
        robust.anchors_demoted = anchors_demoted;
        robust.quorum_held = quorum_held;
        if (async) {
          if (config_.robustness.stale_ttl > 0) {
            std::size_t stale = 0;
            for (std::size_t s = 0; s < n_links; ++s)
              if (channel->has(s) && iter + 1 - channel->heard_round(s) >
                                         config_.robustness.stale_ttl)
                ++stale;
            robust.stale_links = stale;
          }
          robust.crashed_nodes = async_radio->crashed_count();
        } else {
          robust.stale_links = obs::stale_link_count(
              last_heard, iter + 1, config_.robustness.stale_ttl);
          robust.crashed_nodes = sync_radio->crashed_count();
        }
        obs::record_round(scenario, iter + 1, mean_change, result.estimates,
                          radio_stats(), robust);
      }
      // Converged at this resolution: the finest level ends the run; a
      // coarse level just hands over to the next rung early. A round with
      // quorum holds never counts: held nodes report no change precisely
      // because the network is too degraded to update them.
      if (mean_change < config_.iteration.convergence_tol &&
          level_round >= 2 && quorum_held == 0) {
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
  result.comm = radio_stats();
  if (async) result.transport_hash = async_radio->event_hash();
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
