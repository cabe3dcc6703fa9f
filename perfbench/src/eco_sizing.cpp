// eco_sizing: INSTA-Size's loop driven through public calls on the Fig. 7
// block at two corners with hold enabled. One operation is one stage:
// estimate_eco for every alternative size, one ScenarioBatch::evaluate over
// those candidates and, when the best candidate improves merged setup TNS
// without worsening merged hold TNS, a transactional commit plus the
// netlist resize and exact delay update. A pass starts with run_backward
// and a stage ranking and ends with an exact re-annotation of every touched
// arc and one dense forward.
//
// The timed phase is a sequence of rounds, each the first pass from the
// unsized design: between rounds, outside the timing, the round's resizes
// are undone and a new engine is built and warmed up. (Annotating the
// unsized delays back into the old engine leaves a few endpoint slacks one
// rounding step off the freshly built ones.) Every round runs the same
// stages, so a run's latency percentiles are those of whole passes,
// however many stages the host's speed allows in --seconds.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "gen/presets.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using insta::core::Mode;
using insta::core::SlackSummary;
using insta::netlist::CellId;
using insta::timing::ArcDelta;

constexpr int kMaxStagesPerPass = 200;
constexpr int kMaxCommitsPerPass = 40;
constexpr int kBlockHops = 3;
constexpr double kMinTnsGainPs = 0.5;
constexpr double kGoldenTolPs = 0.01;

insta::core::EngineOptions engine_options() {
  insta::core::EngineOptions o;
  o.top_k = 16;
  o.tau = 1.0f;
  o.enable_hold = true;
  o.corners = {{"typ", 1.0f, 1.0f}, {"fast", 0.92f, 0.95f}};
  return o;
}

/// Marks every cell within kBlockHops net hops of `root` (INSTA-Size's
/// estimate_eco interference guard).
void block_neighborhood(const insta::netlist::Design& d, CellId root,
                        std::vector<char>& blocked) {
  std::deque<std::pair<CellId, int>> frontier{{root, 0}};
  blocked[static_cast<std::size_t>(root)] = 1;
  while (!frontier.empty()) {
    const auto [cell, depth] = frontier.front();
    frontier.pop_front();
    if (depth >= kBlockHops) continue;
    const auto [first, n] = d.pin_range(cell);
    for (int i = 0; i < n; ++i) {
      const auto& pin = d.pin(first + i);
      if (pin.net == insta::netlist::kNullNet) continue;
      const auto& net = d.net(pin.net);
      const auto visit = [&](insta::netlist::PinId q) {
        const CellId c = d.pin(q).cell;
        if (blocked[static_cast<std::size_t>(c)]) return;
        blocked[static_cast<std::size_t>(c)] = 1;
        frontier.emplace_back(c, depth + 1);
      };
      if (net.driver != insta::netlist::kNullPin) visit(net.driver);
      for (const auto s : net.sinks) visit(s);
    }
  }
}

/// The value planes of an exported state (aggregate caches and the
/// generation excluded: those are delta-maintained and differ by design
/// between an incrementally updated engine and a fresh dense one).
bool same_planes(const insta::core::EngineState& a,
                 const insta::core::EngineState& b, std::string& which) {
  const auto eq = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0;
  };
  const std::pair<const char*, bool> planes[] = {
      {"amu", eq(a.amu[0], b.amu[0]) && eq(a.amu[1], b.amu[1])},
      {"asig", eq(a.asig[0], b.asig[0]) && eq(a.asig[1], b.asig[1])},
      {"sp_mu", eq(a.sp_mu[0], b.sp_mu[0]) && eq(a.sp_mu[1], b.sp_mu[1])},
      {"sp_sig", eq(a.sp_sig[0], b.sp_sig[0]) && eq(a.sp_sig[1], b.sp_sig[1])},
      {"tk", eq(a.tk_arr, b.tk_arr) && eq(a.tk_mu, b.tk_mu) &&
                 eq(a.tk_sig, b.tk_sig) && eq(a.tk_sp, b.tk_sp) &&
                 eq(a.tk_cnt, b.tk_cnt)},
      {"tk2", eq(a.tk2_arr, b.tk2_arr) && eq(a.tk2_mu, b.tk2_mu) &&
                  eq(a.tk2_sig, b.tk2_sig) && eq(a.tk2_sp, b.tk2_sp) &&
                  eq(a.tk2_cnt, b.tk2_cnt)},
      {"slack", eq(a.slack, b.slack)},
      {"hold_slack", eq(a.hold_slack, b.hold_slack)},
      {"ep_worst_rf", eq(a.ep_worst_rf, b.ep_worst_rf)},
  };
  for (const auto& [name, ok] : planes) {
    if (!ok) {
      which = name;
      return false;
    }
  }
  return true;
}

struct CommitLog {
  SlackSummary pre_setup, pre_hold, cand_setup, cand_hold, post_setup,
      post_hold;
};

}  // namespace

void run_eco_sizing(const Options& opt, Report& rep) {
  const std::string path =
      ensure_design(opt, insta::gen::fig7_block_spec(), 0.12);

  std::unique_ptr<Prepared> p;
  std::unique_ptr<insta::core::Engine> engine;
  double setup_s = 0.0;
  {
    const Scope s("setup");
    const double t0 = now_sec();
    p = prepare(path, /*hold=*/true);
    {
      const Scope si("core.init");
      engine = std::make_unique<insta::core::Engine>(*p->sta, engine_options());
      engine->run_forward();
    }
    setup_s = now_sec() - t0;
  }
  if (opt.setup_only) return rep.metric("setup_s", setup_s, "s");
  auto& design = *p->loaded.design;
  auto batch = std::make_unique<insta::core::ScenarioBatch>(*engine);
  const auto num_corners = static_cast<insta::core::CornerId>(engine->num_corners());

  std::vector<CellId> resizable_cells;
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    if (resizable(design, *p->graph, static_cast<CellId>(c))) {
      resizable_cells.push_back(static_cast<CellId>(c));
    }
  }

  // Every annotation applied to the engine in the last round, in order, for
  // the replay check.
  std::vector<std::vector<ArcDelta>> applied;
  // (cell, size before the round) of every resize of the current round.
  std::vector<std::pair<CellId, insta::netlist::LibCellId>> sized;
  std::vector<CommitLog> commits;
  std::vector<insta::timing::ArcId> touched;
  std::uint64_t frontier_pins = 0;
  std::uint64_t early_terms = 0;
  std::vector<double> overlay_kb;

  const auto resync = [&] {
    const Scope s("core.resync");
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    std::vector<ArcDelta> exact;
    exact.reserve(touched.size());
    const auto& dl = p->sta->delays();
    for (const auto a : touched) {
      ArcDelta d;
      d.arc = a;
      for (const std::size_t rf : {0u, 1u}) {
        d.mu[rf] = dl.mu[rf][static_cast<std::size_t>(a)];
        d.sigma[rf] = dl.sigma[rf][static_cast<std::size_t>(a)];
      }
      exact.push_back(d);
    }
    touched.clear();
    engine->annotate(exact);
    {
      const Scope sf("core.forward");
      engine->run_forward();
    }
    applied.push_back(std::move(exact));
  };

  // Ranks resizable stages by their stage gradient summed over corners.
  const auto rank = [&] {
    const Scope s("core.rank");
    {
      const Scope sb("core.backward");
      engine->run_backward(insta::core::GradientMetric::kTns);
    }
    std::vector<std::pair<float, CellId>> ranked;
    float gmax = 0.0f;
    for (const CellId cell : resizable_cells) {
      float g = 0.0f;
      for (insta::core::CornerId c = 0; c < num_corners; ++c) {
        g += engine->stage_gradient(cell, c);
      }
      gmax = std::max(gmax, g);
      ranked.emplace_back(g, cell);
    }
    const float threshold = std::max(0.02f, 0.03f * gmax);
    std::erase_if(ranked, [&](const auto& x) { return x.first <= threshold; });
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    if (ranked.size() > kMaxStagesPerPass) ranked.resize(kMaxStagesPerPass);
    return ranked;
  };

  std::vector<std::vector<ArcDelta>> cand;
  std::vector<insta::netlist::LibCellId> cand_lib;
  // One stage; returns true when it committed a resize.
  const auto stage = [&](CellId cell, std::vector<char>& blocked) {
    const Scope s("op");
    const auto orig = design.cell(cell).libcell;
    cand.clear();
    cand_lib.clear();
    for (const auto lc : design.library().family(design.libcell_of(cell).func)) {
      if (lc == orig) continue;
      const Scope se("timing.estimate_eco");
      cand.push_back(p->calc->estimate_eco(cell, lc));
      cand_lib.push_back(lc);
    }
    std::vector<insta::core::ScenarioResult> res;
    {
      const Scope sb("core.batch_eval");
      res = batch->evaluate(cand);
    }
    double kb = 0.0;
    std::size_t best = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
      kb += static_cast<double>(res[i].overlay_bytes) / 1024.0;
      if (res[i].setup.tns > res[best].setup.tns) best = i;
    }
    overlay_kb.push_back(kb);
    const SlackSummary pre_setup = engine->merged_summary(Mode::kSetup);
    const SlackSummary pre_hold = engine->merged_summary(Mode::kHold);
    if (res.empty() || res[best].setup.tns < pre_setup.tns + kMinTnsGainPs ||
        res[best].hold.tns < pre_hold.tns) {
      return false;
    }
    CommitLog log{pre_setup, pre_hold, res[best].setup, res[best].hold, {}, {}};
    {
      const Scope sc("core.commit");
      auto tx = engine->begin_edit();
      tx.annotate(cand[best]);
      engine->run_forward_incremental();
      tx.commit();
      log.post_setup = engine->merged_summary(Mode::kSetup);
      log.post_hold = engine->merged_summary(Mode::kHold);
    }
    frontier_pins += engine->last_pass_stats().frontier_pins;
    early_terms += engine->last_pass_stats().early_terminations;
    commits.push_back(log);
    applied.push_back(cand[best]);
    sized.emplace_back(cell, orig);
    design.resize_cell(cell, cand_lib[best]);
    {
      const Scope su("timing.update_for_resize");
      const auto exact = p->calc->update_for_resize(cell, p->sta->mutable_delays());
      touched.insert(touched.end(), exact.begin(), exact.end());
    }
    block_neighborhood(design, cell, blocked);
    return true;
  };

  // Warm-up: one backward and a round of what-if evaluations, no commits.
  const auto warm_up = [&] {
    const auto ranked = rank();
    for (std::size_t i = 0; i < std::min<std::size_t>(ranked.size(), 20); ++i) {
      const CellId cell = ranked[i].second;
      std::vector<std::vector<ArcDelta>> w;
      for (const auto lc : design.library().family(design.libcell_of(cell).func)) {
        if (lc != design.cell(cell).libcell) w.push_back(p->calc->estimate_eco(cell, lc));
      }
      (void)batch->evaluate(w);
    }
    engine->run_forward();
  };
  warm_up();

  // Setup and hold slacks of every endpoint and corner.
  const auto slacks = [&] {
    std::vector<float> v;
    for (insta::core::CornerId c = 0; c < num_corners; ++c) {
      for (std::size_t e = 0; e < p->graph->endpoints().size(); ++e) {
        const auto ep = static_cast<insta::timing::EndpointId>(e);
        v.push_back(engine->endpoint_slack(ep, c));
        v.push_back(engine->endpoint_hold_slack(ep, c));
      }
    }
    return v;
  };
  const insta::timing::ArcDelays initial_delays = p->sta->delays();
  const std::vector<float> initial_slacks = slacks();
  std::size_t bad_reverts = 0;

  std::vector<double> op_ms;
  std::uint64_t resized = 0;
  double timed_s = 0.0;
  // Thread-pool work of the timed passes only (not the rebuilds between).
  auto& pool = insta::util::ThreadPool::global();
  double pool_busy_s = 0.0;
  double pool_idle_s = 0.0;
  std::uint64_t pool_tasks = 0;
  double round_s = 0.0;
  double peak_mb = 0.0;
  int rounds = 0;
  // Rounds are whole, so a run ends at the round boundary nearest --seconds.
  for (; rounds == 0 || timed_s + round_s / 2.0 < opt.seconds; ++rounds) {
    if (rounds > 0) {
      // Back to the unsized design and a new engine on it.
      for (auto it = sized.rbegin(); it != sized.rend(); ++it) {
        design.resize_cell(it->first, it->second);
        (void)p->calc->update_for_resize(it->first, p->sta->mutable_delays());
      }
      sized.clear();
      batch.reset();
      engine.reset();
      engine = std::make_unique<insta::core::Engine>(*p->sta, engine_options());
      engine->run_forward();
      batch = std::make_unique<insta::core::ScenarioBatch>(*engine);
      applied.clear();
      const auto& dl = p->sta->delays();
      if (dl.mu != initial_delays.mu || dl.sigma != initial_delays.sigma ||
          slacks() != initial_slacks) {
        ++bad_reverts;
      }
      warm_up();
    }
    // The timed pass: rank, stages until kMaxCommitsPerPass commits, re-sync.
    const auto pool0 = pool.stats();
    const double t0 = now_sec();
    const auto ranked = rank();
    std::vector<char> blocked(design.num_cells(), 0);
    int pass_commits = 0;
    for (const auto& [g, cell] : ranked) {
      if (blocked[static_cast<std::size_t>(cell)]) continue;
      if (pass_commits >= kMaxCommitsPerPass) break;
      const double a = now_sec();
      const bool committed = stage(cell, blocked);
      op_ms.push_back((now_sec() - a) * 1e3);
      if (committed) {
        ++pass_commits;
        ++resized;
      }
    }
    resync();
    round_s = now_sec() - t0;
    timed_s += round_s;
    const auto pool1 = pool.stats();
    pool_busy_s += pool1.busy_sec - pool0.busy_sec;
    pool_idle_s += pool1.idle_sec - pool0.idle_sec;
    pool_tasks += pool1.tasks_executed - pool0.tasks_executed;
    // The program's peak is that of one pass; later rounds would add the
    // allocator's leftovers from rebuilding the engine.
    if (rounds == 0) peak_mb = proc_status_mb(0, "VmHWM");
  }

  rep.kinds["stage_kept_size"].attempted = op_ms.size() - resized;
  rep.kinds["stage_resized"].attempted = resized;
  rep.end_to_end(setup_s, peak_mb, op_ms, timed_s);
  rep.note("design", std::to_string(design.num_cells()) + " cells, " +
                         std::to_string(design.num_pins()) + " pins, 2 corners, "
                         "hold on, top_k 16");
  rep.note("rounds", std::to_string(rounds));

  if (Tracer::get().enabled()) {
    const Tracer& t = Tracer::get();
    const auto med = [&](const char* n) { return median(t.durations_ms(n)); };
    rep.metric("io.load_s", med("io.load") / 1e3, "s");
    rep.metric("timing.graph_s", med("timing.graph") / 1e3, "s");
    rep.metric("timing.delay_calc_s", med("timing.delay_calc") / 1e3, "s");
    rep.metric("ref.golden_s", med("ref.golden") / 1e3, "s");
    rep.metric("core.init_s", med("core.init") / 1e3, "s");
    rep.metric("core.engine_mb",
               static_cast<double>(engine->memory_bytes()) / (1 << 20), "MB");
    // A dense forward per pass (the re-sync) and a backward per ranking (each
    // pass and each warm-up ranks once).
    rep.metric("core.forward_ms", med("core.forward"), "ms");
    rep.metric("core.backward_ms", med("core.backward"), "ms");
    rep.metric("core.pin_corner_updates_per_s",
               static_cast<double>(design.num_pins()) *
                   static_cast<double>(engine->num_corners()) /
                   (med("core.forward") / 1e3),
               "1/s");
    rep.metric("util.pool_idle_share",
               pool_idle_s / std::max(pool_busy_s + pool_idle_s, 1e-12), "ratio");
    rep.metric("util.pool_tasks",
               static_cast<double>(pool_tasks) / static_cast<double>(op_ms.size()),
               "count");
    rep.metric("core.rank_ms", med("core.rank"), "ms");
    rep.metric("timing.estimate_eco_us", med("timing.estimate_eco") * 1e3, "us");
    rep.metric("core.batch_eval_us", med("core.batch_eval") * 1e3, "us");
    rep.metric("core.batch_overlay_kb", median(overlay_kb), "KB");
    rep.metric("core.commit_us", med("core.commit") * 1e3, "us");
    const double nc = std::max<double>(1.0, static_cast<double>(commits.size()));
    rep.metric("core.frontier_pins", static_cast<double>(frontier_pins) / nc, "count");
    rep.metric("core.early_terminations", static_cast<double>(early_terms) / nc,
               "count");
    rep.metric("core.accept_ratio",
               static_cast<double>(resized) / static_cast<double>(op_ms.size()),
               "ratio");
    rep.metric("timing.update_for_resize_us", med("timing.update_for_resize") * 1e3,
               "us");
    rep.metric("core.resync_ms", med("core.resync"), "ms");
  }

  // ---- verification (outside the timing) ----------------------------------
  Tracer::get().disable();
  rep.check(bad_reverts == 0,
            "each round starts from the first round's arc delays and endpoint slacks",
            std::to_string(bad_reverts) + " rounds");
  std::size_t mismatch = 0;
  std::size_t worse = 0;
  for (const CommitLog& c : commits) {
    if (!(c.post_setup == c.cand_setup) || !(c.post_hold == c.cand_hold)) ++mismatch;
    if (c.post_setup.tns < c.pre_setup.tns || c.post_hold.tns < c.pre_hold.tns) ++worse;
  }
  rep.check(mismatch == 0,
            "merged summaries after each commit equal its ScenarioBatch result",
            std::to_string(mismatch) + " of " + std::to_string(commits.size()));
  rep.check(worse == 0, "merged setup and hold TNS never get worse across commits",
            std::to_string(worse) + " commits");

  {
    // A fresh engine on the unsized design replays every annotation and runs
    // one dense forward; its state must equal the live engine's.
    const auto fresh_p = prepare(path, /*hold=*/true);
    insta::core::Engine fresh(*fresh_p->sta, engine_options());
    fresh.run_forward();
    for (const auto& d : applied) fresh.annotate(d);
    fresh.run_forward();
    std::string which;
    rep.check(same_planes(engine->export_state(), fresh.export_state(), which),
              "final state equals a fresh engine replaying the annotations",
              "plane " + which + " differs");
  }

  p->sta->update_full();
  double max_diff = 0.0;
  std::size_t bad = 0;
  const auto cmp = [&](double g, double v) {
    if (std::isfinite(g) != std::isfinite(v)) {
      ++bad;
    } else if (std::isfinite(g)) {
      max_diff = std::max(max_diff, std::fabs(g - v));
      if (std::fabs(g - v) > kGoldenTolPs) ++bad;
    }
  };
  for (std::size_t e = 0; e < p->graph->endpoints().size(); ++e) {
    const auto ep = static_cast<insta::timing::EndpointId>(e);
    cmp(p->sta->endpoint_slack(ep), engine->endpoint_slack(ep, 0));
    cmp(p->sta->hold_slack(ep), engine->endpoint_hold_slack(ep, 0));
  }
  rep.note("golden_max_abs_diff_ps", std::to_string(max_diff));
  rep.note("commits", std::to_string(commits.size()));
  rep.check(bad == 0,
            "corner 0 setup and hold slacks agree with a golden update_full",
            std::to_string(bad) + " slacks off by more than " +
                std::to_string(kGoldenTolPs) + " ps (max " +
                std::to_string(max_diff) + ")");
}

}  // namespace perfbench
