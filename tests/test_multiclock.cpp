#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "io/design_io.hpp"
#include "ref/brute_force.hpp"
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

  explicit Fixture(std::uint64_t seed, int extra_clocks = 1,
                   double ratio = 2.0) {
    gen::LogicBlockSpec spec = gen::tiny_spec(seed);
    spec.num_extra_clocks = extra_clocks;
    spec.extra_clock_ratio = ratio;
    gd = gen::build_logic_block(spec);
    graph = std::make_unique<timing::TimingGraph>(
        *gd.design, gd.constraints.clock_roots());
    calc = std::make_unique<timing::DelayCalculator>(*gd.design, *graph);
    calc->compute_all(delays);
    gen::tune_clock_period(*graph, gd.constraints, delays, 0.1);
    sta = std::make_unique<ref::GoldenSta>(*graph, gd.constraints, delays);
    sta->update_full();
  }
};

class MultiClock : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiClock, StructureSpansAllDomains) {
  Fixture f(GetParam());
  const auto& d = *f.gd.design;
  ASSERT_EQ(f.graph->clock_roots().size(), 2u);
  // Neither clock root is a data startpoint; every FF clock pin is in the
  // clock network of one of the trees.
  for (const netlist::CellId root : f.graph->clock_roots()) {
    EXPECT_EQ(f.graph->startpoint_of_pin(d.output_pin(root)),
              timing::kNullStartpoint);
    EXPECT_TRUE(f.graph->is_clock_network(d.output_pin(root)));
  }
  const timing::ClockAnalysis& clock = f.sta->clock();
  int domain_counts[2] = {0, 0};
  for (const netlist::CellId ff : d.flip_flops()) {
    const std::int32_t dom = clock.domain_of_ff(ff);
    ASSERT_GE(dom, 0);
    ASSERT_LT(dom, 2);
    ++domain_counts[dom];
  }
  EXPECT_GT(domain_counts[0], 0);
  EXPECT_GT(domain_counts[1], 0);
}

TEST_P(MultiClock, CrossDomainCreditIsZero) {
  Fixture f(GetParam());
  const auto& d = *f.gd.design;
  const timing::ClockAnalysis& clock = f.sta->clock();
  netlist::CellId a = netlist::kNullCell, b = netlist::kNullCell;
  for (const netlist::CellId ff : d.flip_flops()) {
    if (clock.domain_of_ff(ff) == 0 && a == netlist::kNullCell) a = ff;
    if (clock.domain_of_ff(ff) == 1 && b == netlist::kNullCell) b = ff;
  }
  ASSERT_NE(a, netlist::kNullCell);
  ASSERT_NE(b, netlist::kNullCell);
  EXPECT_DOUBLE_EQ(clock.credit(a, b), 0.0);
  EXPECT_GT(clock.credit(a, a), 0.0);
  EXPECT_GT(clock.credit(b, b), 0.0);
}

TEST_P(MultiClock, PerDomainRequiredPeriods) {
  Fixture f(GetParam(), 1, 2.0);
  const timing::ClockAnalysis& clock = f.sta->clock();
  int checked = 0;
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const timing::Endpoint& ep = f.graph->endpoints()[e];
    if (!ep.clocked) continue;
    const double period = f.sta->ep_period(static_cast<timing::EndpointId>(e));
    if (clock.domain_of_ff(ep.cell) == 0) {
      EXPECT_DOUBLE_EQ(period, f.gd.constraints.clock_period);
    } else {
      EXPECT_DOUBLE_EQ(period, 2.0 * f.gd.constraints.clock_period);
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_P(MultiClock, GoldenMatchesBruteForce) {
  Fixture f(GetParam());
  const auto brute =
      ref::brute_force_endpoint_slacks(*f.graph, f.gd.constraints, f.delays);
  for (std::size_t e = 0; e < brute.size(); ++e) {
    const double mine =
        f.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(brute[e])) {
      EXPECT_FALSE(std::isfinite(mine));
      continue;
    }
    EXPECT_NEAR(brute[e], mine, 1e-7) << "endpoint " << e;
  }
}

TEST_P(MultiClock, EngineMatchesGolden) {
  Fixture f(GetParam());
  core::EngineOptions opt;
  opt.top_k = static_cast<int>(f.graph->startpoints().size());
  core::Engine engine(*f.sta, opt);
  engine.run_forward();
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const double g = f.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
    const float m = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(g)) continue;
    EXPECT_NEAR(g, static_cast<double>(m), 0.05) << "endpoint " << e;
  }
  EXPECT_NEAR(f.sta->tns(), engine.summary(core::Mode::kSetup, 0).tns,
              std::abs(f.sta->tns()) * 1e-4 + 0.1);
}

TEST_P(MultiClock, IoRoundTripKeepsDomains) {
  Fixture f(GetParam());
  std::stringstream ss;
  io::save_design(*f.gd.design, f.gd.constraints, ss);
  const io::LoadedDesign loaded = io::load_design(ss);
  ASSERT_EQ(loaded.constraints.extra_clocks.size(), 1u);
  EXPECT_EQ(loaded.constraints.extra_clocks[0].root,
            f.gd.constraints.extra_clocks[0].root);
  EXPECT_DOUBLE_EQ(loaded.constraints.extra_clocks[0].period_ratio, 2.0);

  timing::TimingGraph graph2(*loaded.design, loaded.constraints.clock_roots());
  timing::DelayCalculator calc2(*loaded.design, graph2);
  timing::ArcDelays delays2;
  calc2.compute_all(delays2);
  ref::GoldenSta sta2(graph2, loaded.constraints, delays2);
  sta2.update_full();
  EXPECT_NEAR(sta2.tns(), f.sta->tns(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiClock,
                         ::testing::Values(151u, 152u, 153u, 154u));

}  // namespace
}  // namespace insta
