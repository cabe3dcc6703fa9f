// Incremental ECO evaluation: the Application-1 flow of the paper. After a
// gate resize, PrimeTime's estimate_eco stand-in produces local arc-delay
// deltas; INSTA re-annotates them and refreshes full-graph timing in one
// forward pass — no cone tracing, no incremental bookkeeping.

#include <cmath>
#include <cstdio>

#include "core/engine.hpp"
#include "gen/changelist.hpp"
#include "gen/logic_block.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"
#include "util/timer.hpp"

int main() {
  using namespace insta;

  gen::LogicBlockSpec spec;
  spec.name = "eco-demo";
  spec.seed = 3;
  spec.num_gates = 12000;
  spec.num_ffs = 1000;
  gen::GeneratedDesign gd = gen::build_logic_block(spec);
  timing::TimingGraph graph(*gd.design, gd.constraints.clock_root);
  timing::DelayCalculator calc(*gd.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  gen::tune_clock_period(graph, gd.constraints, delays, 0.1);
  ref::GoldenSta sta(graph, gd.constraints, delays);
  sta.update_full();

  core::Engine insta(sta, {});
  insta.run_forward();
  std::printf("initial TNS: reference %.1f ps, INSTA %.1f ps\n", sta.tns(),
              insta.summary(core::Mode::kSetup, 0).tns);

  // Replay a changelist of 50 random resizes against both engines.
  util::Rng rng(7);
  const auto changes = gen::random_changelist(*gd.design, graph, rng, 50);
  double insta_ms = 0.0, golden_ms = 0.0;
  for (const auto& ch : changes) {
    // INSTA path: estimate_eco deltas + annotate + full forward.
    util::Stopwatch sw;
    const auto deltas = calc.estimate_eco(ch.cell, ch.new_libcell);
    insta.annotate(deltas);
    insta.run_forward();
    insta_ms += sw.elapsed_ms();

    // Reference path: exact delay update + incremental cone propagation.
    sw.reset();
    gd.design->resize_cell(ch.cell, ch.new_libcell);
    const auto changed = calc.update_for_resize(ch.cell, sta.mutable_delays());
    sta.update_incremental(changed);
    golden_ms += sw.elapsed_ms();
  }
  const double insta_tns = insta.summary(core::Mode::kSetup, 0).tns;
  std::printf("after 50 resizes: reference TNS %.1f ps, INSTA TNS %.1f ps "
              "(estimate_eco drift: %.1f ps)\n",
              sta.tns(), insta_tns, std::abs(sta.tns() - insta_tns));
  std::printf("per-resize evaluation: INSTA %.2f ms, reference incremental "
              "%.2f ms\n",
              insta_ms / 50.0, golden_ms / 50.0);

  // Any accuracy concern is fixed by re-synchronizing INSTA from the
  // reference (the paper's 10-minute full re-extraction).
  core::Engine resynced(sta, {});
  resynced.run_forward();
  std::printf("after re-sync: INSTA TNS %.1f ps (matches reference again)\n",
              resynced.summary(core::Mode::kSetup, 0).tns);
  return 0;
}
