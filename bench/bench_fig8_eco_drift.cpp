// Reproduces Fig. 8: INSTA's correlation impact when estimate_eco
// re-annotation is used throughout a gate-sizing flow without
// re-synchronizing from the reference engine. The reference side commits
// exact delay updates (including the 1-hop slew ripple), while INSTA only
// sees the frozen-neighbourhood estimate_eco deltas — the correlation decay
// from "before" to "after" is the estimate_eco drift the paper shows, and
// re-initializing INSTA (the 10-minute re-sync the paper mentions) restores
// the near-perfect correlation.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "gen/changelist.hpp"
#include "gen/presets.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace insta;

struct Corr {
  double corr = 0.0;
  util::MismatchStats mm;
};

Corr measure(const bench::Bundle& b, core::Engine& engine) {
  std::vector<double> ref, test;
  for (std::size_t e = 0; e < b.graph->endpoints().size(); ++e) {
    const double g = b.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
    const float m = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(g) || !std::isfinite(m)) continue;
    ref.push_back(g);
    test.push_back(static_cast<double>(m));
  }
  return {util::pearson(ref, test), util::mismatch(ref, test)};
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 8 reproduction: correlation before/after a sizing flow with\n"
      "estimate_eco re-annotation (no re-sync). Paper: correlation remains\n"
      "high enough to drive optimization; minor drift appears after the flow.");

  constexpr int kResizes = 600;
  bench::Bundle b = bench::make_bundle(gen::fig7_block_spec(), 0.08);
  std::printf("design: %zu cells, %zu pins, %d resizes in the flow\n",
              b.gd.design->num_cells(), b.gd.design->num_pins(), kResizes);

  core::EngineOptions eopt;
  eopt.top_k = 16;
  core::Engine engine(*b.sta, eopt);
  engine.run_forward();
  const Corr before = measure(b, engine);

  util::Rng rng(515);
  const auto changes =
      gen::random_changelist(*b.gd.design, *b.graph, rng, kResizes);
  for (const auto& ch : changes) {
    // INSTA sees the frozen-neighbourhood estimate only...
    const auto deltas = b.calc->estimate_eco(ch.cell, ch.new_libcell);
    engine.annotate(deltas);
    // ...while the reference world commits the exact update.
    b.gd.design->resize_cell(ch.cell, ch.new_libcell);
    b.calc->update_for_resize(ch.cell, b.sta->mutable_delays());
  }
  b.sta->update_full();
  engine.run_forward();
  const Corr after = measure(b, engine);

  // Re-synchronizing (re-initializing from the reference) restores accuracy.
  core::Engine resynced(*b.sta, eopt);
  resynced.run_forward();
  const Corr resync = measure(b, resynced);

  util::Table table({"state", "ep slack corr", "avg |mm| ps", "worst |mm| ps"});
  auto row = [&](const char* name, const Corr& c) {
    table.add_row({name, util::format_correlation(c.corr),
                   util::fmt("%.2e", c.mm.avg_abs),
                   util::fmt("%.3f", c.mm.max_abs)});
  };
  row("before flow", before);
  row("after flow (eco drift)", after);
  row("after re-sync", resync);
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "\nTNS view: reference %.1f ps | INSTA (drifted) %.1f ps | "
      "INSTA (re-synced) %.1f ps\n",
      b.sta->tns(), engine.summary(core::Mode::kSetup, 0).tns,
      resynced.summary(core::Mode::kSetup, 0).tns);
  return 0;
}
