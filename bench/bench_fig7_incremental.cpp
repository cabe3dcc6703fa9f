// Reproduces Fig. 7: incremental STA runtime per sizing iteration over the
// exact same changelist, across four evaluators:
//   * "reference full"  — the golden engine doing a full update_timing
//                         (PrimeTime's role in the paper),
//   * "in-house incr."  — the golden engine's incremental cone update
//                         (the in-house CPU STA's role),
//   * "INSTA"           — estimate_eco re-annotation + full INSTA forward
//                         (timing includes the re-annotation, as the paper's
//                         INSTA bar does),
//   * "INSTA sparse"    — the same annotations consumed by the
//                         frontier-sparse run_forward_incremental() pass.
//
// The paper measures 14x/25x GPU-vs-CPU gaps; on this all-CPU substrate the
// *ratios* below are what one core yields, and EXPERIMENTS.md discusses
// where the GPU substitution moves them.
//
// A second phase measures single-arc ECOs: the median sparse incremental
// pass against the median dense forward pass, with the frontier telemetry
// counters recorded per run. The binary exits non-zero if the sparse pass
// ever diverges bitwise from the dense pass — CI runs it with --small as a
// correctness gate, not just a timer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "gen/changelist.hpp"
#include "gen/presets.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace insta;

/// Bitwise comparison of two engines' slack arrays. Returns the number of
/// mismatching endpoints (0 = identical).
std::size_t count_slack_mismatches(const core::Engine& a,
                                   const core::Engine& b) {
  const auto sa = a.endpoint_slacks();
  const auto sb = b.endpoint_slacks();
  std::size_t bad = 0;
  for (std::size_t e = 0; e < sa.size(); ++e) {
    const bool fa = std::isfinite(sa[e]);
    const bool fb = std::isfinite(sb[e]);
    if (fa != fb || (fa && sa[e] != sb[e])) ++bad;
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }

  bench::print_header(
      "Fig. 7 reproduction: incremental STA runtime per sizing iteration\n"
      "Same changelist replayed against four evaluators; paper shape:\n"
      "INSTA 25x faster than reference update_timing, 14x faster than the\n"
      "in-house incremental engine (GPU vs 32-thread CPU). The sparse\n"
      "column is the frontier-sparse run_forward_incremental() pass.");

  const int kIterations = small ? 6 : 16;
  constexpr int kResizesPerIter = 8;

  // Four independent but identical worlds (same seed).
  gen::LogicBlockSpec spec = gen::fig7_block_spec();
  if (small) {
    spec.name = "block-2-small";
    spec.num_gates = 6000;
    spec.num_ffs = 600;
    spec.depth = 14;
  }
  bench::Bundle full = bench::make_bundle(spec, 0.08);
  bench::Bundle incr = bench::make_bundle(spec, 0.08);
  bench::Bundle ins = bench::make_bundle(spec, 0.08);
  std::printf("design: %zu cells, %zu pins%s\n", full.gd.design->num_cells(),
              full.gd.design->num_pins(), small ? " (--small preset)" : "");

  core::EngineOptions eopt;
  eopt.top_k = 8;
  core::Engine engine(*ins.sta, eopt);
  engine.run_forward();
  // The sparse engine shares INSTA's world: it receives the exact same
  // annotations but refreshes timing through the frontier-sparse pass.
  core::Engine sparse(*ins.sta, eopt);
  sparse.run_forward();

  util::Rng rng(2027);
  const auto changes = gen::random_changelist(
      *full.gd.design, *full.graph, rng,
      (kIterations + 1) * kResizesPerIter);

  util::Table table({"iter", "reference full (ms)", "in-house incr (ms)",
                     "INSTA eco+forward (ms)", "INSTA sparse incr (ms)",
                     "|dTNS| INSTA vs ref (ps)"});
  bench::BenchReport report("fig7_incremental");
  std::size_t mismatches = 0;
  double sum_full = 0.0, sum_incr = 0.0, sum_insta = 0.0, sum_sparse = 0.0;
  for (int it = 0; it < kIterations; ++it) {
    const auto* batch = &changes[static_cast<std::size_t>(it * kResizesPerIter)];

    // Reference full update.
    double t_full;
    {
      util::Stopwatch sw;
      for (int i = 0; i < kResizesPerIter; ++i) {
        full.gd.design->resize_cell(batch[i].cell, batch[i].new_libcell);
        full.calc->update_for_resize(batch[i].cell, full.sta->mutable_delays());
      }
      full.sta->update_full();
      t_full = sw.elapsed_sec();
    }

    // In-house incremental cone update.
    double t_incr;
    {
      util::Stopwatch sw;
      std::vector<timing::ArcId> changed;
      for (int i = 0; i < kResizesPerIter; ++i) {
        incr.gd.design->resize_cell(batch[i].cell, batch[i].new_libcell);
        const auto ids =
            incr.calc->update_for_resize(batch[i].cell, incr.sta->mutable_delays());
        changed.insert(changed.end(), ids.begin(), ids.end());
      }
      incr.sta->update_incremental(changed);
      t_incr = sw.elapsed_sec();
    }

    // INSTA: estimate_eco re-annotation + full forward propagation. The
    // timed portion covers estimate_eco, annotate and the forward pass (as
    // the paper's INSTA bar does); the flow's own netlist bookkeeping
    // (committing the resize) is untimed. The sparse engine consumes the
    // identical deltas, so its annotate + incremental pass is timed
    // separately against the same workload.
    double t_insta = 0.0;
    double t_sparse = 0.0;
    {
      for (int i = 0; i < kResizesPerIter; ++i) {
        util::Stopwatch sw;
        const auto deltas = ins.calc->estimate_eco(
            batch[i].cell, batch[i].new_libcell);
        engine.annotate(deltas);
        t_insta += sw.elapsed_sec();
        util::Stopwatch sw2;
        sparse.annotate(deltas);
        t_sparse += sw2.elapsed_sec();
        // Keep INSTA's world consistent for the next estimate_eco call.
        ins.gd.design->resize_cell(batch[i].cell, batch[i].new_libcell);
        ins.calc->update_for_resize(batch[i].cell, ins.sta->mutable_delays());
      }
      util::Stopwatch sw;
      engine.run_forward();
      t_insta += sw.elapsed_sec();
      util::Stopwatch sw2;
      sparse.run_forward_incremental();
      t_sparse += sw2.elapsed_sec();
    }

    // Bitwise equivalence gate: the sparse pass must reproduce the dense
    // pass exactly on every iteration.
    const std::size_t bad = count_slack_mismatches(engine, sparse);
    if (bad != 0) {
      std::printf("ERROR: iter %d: %zu endpoint slacks differ between the "
                  "sparse and dense passes\n",
                  it, bad);
      mismatches += bad;
    }

    const core::Engine::SparseStats& st = sparse.last_pass_stats();
    sum_full += t_full;
    sum_incr += t_incr;
    sum_insta += t_insta;
    sum_sparse += t_sparse;
    const double abs_dtns =
        std::abs(engine.summary(core::Mode::kSetup, 0).tns - full.sta->tns());
    table.add_row({std::to_string(it), util::fmt("%.1f", t_full * 1e3),
                   util::fmt("%.1f", t_incr * 1e3),
                   util::fmt("%.1f", t_insta * 1e3),
                   util::fmt("%.2f", t_sparse * 1e3),
                   util::fmt("%.2f", abs_dtns)});
    report.add_row("iter " + std::to_string(it),
                   {{"reference_full_ms", t_full * 1e3},
                    {"inhouse_incremental_ms", t_incr * 1e3},
                    {"insta_eco_forward_ms", t_insta * 1e3},
                    {"insta_sparse_incremental_ms", t_sparse * 1e3},
                    {"abs_dtns_ps", abs_dtns},
                    {"sparse_frontier_pins", static_cast<double>(st.frontier_pins)},
                    {"sparse_early_terminations",
                     static_cast<double>(st.early_terminations)},
                    {"sparse_endpoints_evaluated",
                     static_cast<double>(st.endpoints_evaluated)},
                    {"sparse_endpoints_skipped",
                     static_cast<double>(st.endpoints_skipped)},
                    {"slack_mismatches", static_cast<double>(bad)},
                    {"golden_update_reps",
                     static_cast<double>(full.golden_update_reps)}});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\naverages: reference full %.1f ms | in-house incremental %.1f ms | "
      "INSTA %.1f ms | INSTA sparse %.2f ms\n",
      sum_full / kIterations * 1e3, sum_incr / kIterations * 1e3,
      sum_insta / kIterations * 1e3, sum_sparse / kIterations * 1e3);
  std::printf("speed-up of INSTA vs reference full update: %.1fx\n",
              sum_full / sum_insta);
  std::printf("speed-up of INSTA vs in-house incremental: %.2fx\n",
              sum_incr / sum_insta);
  std::printf("speed-up of sparse incremental vs INSTA full forward: %.2fx\n",
              sum_insta / sum_sparse);

  // ---- phase 2: single-arc ECO medians -------------------------------------
  // The acceptance target of the frontier-sparse pass: for a one-arc
  // annotation, the median sparse incremental pass must beat the median
  // dense forward pass by a wide margin (>= 3x against the pre-sparse
  // engine, whose incremental pass re-swept every level above the dirty
  // one and re-evaluated every endpoint).
  bench::print_header("Single-arc ECO: sparse incremental vs dense forward");
  const int kEcoReps = small ? 12 : 32;
  std::vector<double> dense_ms, sparse_ms;
  std::uint64_t total_frontier = 0, total_early = 0, total_eps = 0,
                total_skipped = 0;
  const auto* eco_batch =
      &changes[static_cast<std::size_t>(kIterations * kResizesPerIter)];
  for (int r = 0; r < kEcoReps; ++r) {
    const auto& ch = eco_batch[r % kResizesPerIter];
    const auto deltas = ins.calc->estimate_eco(ch.cell, ch.new_libcell);
    if (deltas.empty()) continue;
    // One arc only: the sparsest possible ECO.
    const std::span<const timing::ArcDelta> one(&deltas[r % deltas.size()], 1);
    engine.annotate(one);
    sparse.annotate(one);
    {
      util::Stopwatch sw;
      engine.run_forward();
      dense_ms.push_back(sw.elapsed_sec() * 1e3);
    }
    {
      util::Stopwatch sw;
      sparse.run_forward_incremental();
      sparse_ms.push_back(sw.elapsed_sec() * 1e3);
    }
    const std::size_t bad = count_slack_mismatches(engine, sparse);
    if (bad != 0) {
      std::printf("ERROR: single-arc ECO %d: %zu slack mismatches\n", r, bad);
      mismatches += bad;
    }
    const core::Engine::SparseStats& st = sparse.last_pass_stats();
    total_frontier += st.frontier_pins;
    total_early += st.early_terminations;
    total_eps += st.endpoints_evaluated;
    total_skipped += st.endpoints_skipped;
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0) return 0.0;
    return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  const double med_dense = median(dense_ms);
  const double med_sparse = median(sparse_ms);
  const double speedup = med_sparse > 0.0 ? med_dense / med_sparse : 0.0;
  const double n_runs = static_cast<double>(sparse_ms.size());
  std::printf("single-arc ECO over %zu runs:\n", sparse_ms.size());
  std::printf("  median dense forward:       %8.3f ms\n", med_dense);
  std::printf("  median sparse incremental:  %8.3f ms\n", med_sparse);
  std::printf("  speed-up:                   %8.2fx\n", speedup);
  std::printf("  mean frontier pins %.1f | early terminations %.1f | "
              "endpoints evaluated %.1f | endpoints skipped %.1f\n",
              total_frontier / n_runs, total_early / n_runs,
              total_eps / n_runs, total_skipped / n_runs);
  report.add_row("single_arc_eco",
                 {{"runs", n_runs},
                  {"median_dense_forward_ms", med_dense},
                  {"median_sparse_incremental_ms", med_sparse},
                  {"speedup_x", speedup},
                  {"mean_frontier_pins", total_frontier / n_runs},
                  {"mean_early_terminations", total_early / n_runs},
                  {"mean_endpoints_evaluated", total_eps / n_runs},
                  {"mean_endpoints_skipped", total_skipped / n_runs}});

  // ---- phase 3: MCMM corners axis ------------------------------------------
  // One C-corner engine replaying single-arc ECOs (broadcast annotate +
  // frontier-sparse refresh of every corner) for C in {1, 2, 4}. The
  // per-corner median is the number the corner-major layout amortizes;
  // every multi-corner run is gated bitwise against C independently built
  // single-corner engines replaying the same edits, feeding the same
  // non-zero-exit mismatch counter as the dense/sparse gate above.
  bench::print_header(
      "MCMM corners axis: C-corner sparse incremental per single-arc ECO");
  const int kCornerReps = small ? 8 : 16;
  double corners_c1_ms = 0.0;
  for (const int c : {1, 2, 4}) {
    core::EngineOptions copt;
    copt.top_k = 8;
    copt.corners = bench::mcmm_corners(c);
    core::Engine multi(*full.sta, copt);
    multi.run_forward();
    std::vector<core::Engine> solos;
    for (int ci = 0; ci < c; ++ci) {
      core::EngineOptions sopt;
      sopt.top_k = 8;
      sopt.corners = {copt.corners[static_cast<std::size_t>(ci)]};
      solos.emplace_back(*full.sta, sopt);
      solos.back().run_forward();
    }
    std::vector<double> corner_ms;
    std::size_t corner_bad = 0;
    for (int r = 0; r < kCornerReps; ++r) {
      const auto& ch = eco_batch[r % kResizesPerIter];
      const auto deltas = full.calc->estimate_eco(ch.cell, ch.new_libcell);
      if (deltas.empty()) continue;
      const std::span<const timing::ArcDelta> one(&deltas[r % deltas.size()],
                                                  1);
      multi.annotate(one);
      util::Stopwatch sw;
      multi.run_forward_incremental();
      corner_ms.push_back(sw.elapsed_sec() * 1e3);
      for (int ci = 0; ci < c; ++ci) {
        auto& solo = solos[static_cast<std::size_t>(ci)];
        solo.annotate(one);
        solo.run_forward_incremental();
        corner_bad += bench::count_corner_mismatches(multi, ci, solo);
      }
    }
    if (corner_bad != 0) {
      std::printf("ERROR: corners c=%d: %zu endpoint slacks differ from "
                  "independent single-corner engines\n", c, corner_bad);
      mismatches += corner_bad;
    }
    const double med = median(corner_ms);
    if (c == 1) corners_c1_ms = med;
    const double per_corner = med / c;
    std::printf("  C=%d: median sparse incremental %8.3f ms "
                "(%.3f ms/corner, %.1f corner-ECOs/s, %s)\n",
                c, med, per_corner,
                per_corner > 0.0 ? 1e3 / per_corner : 0.0,
                corner_bad == 0 ? "bit-identical" : "MISMATCH");
    report.add_row("corners_c" + std::to_string(c),
                   {{"runs", static_cast<double>(corner_ms.size())},
                    {"corners", static_cast<double>(c)},
                    {"median_sparse_incremental_ms", med},
                    {"per_corner_ms", per_corner},
                    {"corner_ecos_per_sec",
                     per_corner > 0.0 ? 1e3 / per_corner : 0.0},
                    {"ratio_vs_c1",
                     corners_c1_ms > 0.0 ? med / corners_c1_ms : 0.0},
                    {"bit_identical", corner_bad == 0 ? 1.0 : 0.0}});
  }
  report.write();

  if (mismatches != 0) {
    std::printf("\nFAILED: %zu total slack mismatches between sparse and "
                "dense passes\n",
                mismatches);
    return 1;
  }
  return 0;
}
