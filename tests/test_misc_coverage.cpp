#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/presets.hpp"
#include "gen/tune.hpp"
#include "place/hpwl.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"
#include "util/check.hpp"

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

TEST(EngineOptionsValidation, RejectsNonPositiveTopK) {
  Fixture f(201);
  core::EngineOptions opt;
  opt.top_k = 0;
  EXPECT_THROW(core::Engine(*f.sta, opt), util::CheckError);
}

TEST(GoldenValidation, RequiresDelaysForGraph) {
  Fixture f(202);
  timing::ArcDelays empty;
  EXPECT_THROW(ref::GoldenSta(*f.graph, f.gd.constraints, empty),
               util::CheckError);
}

TEST(GoldenValidation, CloneBeforeUpdateThrows) {
  Fixture f(203);
  ref::GoldenSta fresh(*f.graph, f.gd.constraints, f.delays);
  // Reading the clock analysis before update_full must fail loudly (the
  // INSTA engine initializes from it).
  EXPECT_THROW((void)fresh.clock(), util::CheckError);
  EXPECT_THROW(core::Engine(fresh, {}), util::CheckError);
}

TEST(GoldenValidation, IncrementalBeforeFullThrows) {
  Fixture f(204);
  ref::GoldenSta fresh(*f.graph, f.gd.constraints, f.delays);
  const timing::ArcId arc = 0;
  EXPECT_THROW(fresh.update_incremental({&arc, 1}), util::CheckError);
}

/// Slacks shift exactly one-for-one with the clock period for single-cycle
/// endpoints (the basis of the period tuner).
TEST(GoldenSemantics, SlackShiftsWithPeriod) {
  Fixture f(205);
  timing::Constraints shifted = f.gd.constraints;
  shifted.clock_period += 100.0;
  ref::GoldenSta sta2(*f.graph, shifted, f.delays);
  sta2.update_full();
  const timing::ExceptionTable table(*f.graph, f.gd.constraints.exceptions);
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    const double a = f.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
    const double b = sta2.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(a)) continue;
    // Multicycle endpoints shift by a multiple of the period; others by
    // exactly 100 ps.
    const double shift = b - a;
    EXPECT_GE(shift, 100.0 - 1e-9);
    EXPECT_NEAR(std::fmod(shift + 1e-9, 100.0), 0.0, 2e-9);
  }
}

/// Scaling every arc sigma to zero turns the statistical engine into a
/// plain deterministic STA: arrivals equal plain mean sums and CPPR credits
/// vanish.
TEST(GoldenSemantics, ZeroSigmaDegeneratesToDeterministic) {
  Fixture f(206);
  timing::ArcDelays no_sigma = f.delays;
  for (const int rf : {0, 1}) {
    std::fill(no_sigma.sigma[rf].begin(), no_sigma.sigma[rf].end(), 0.0);
  }
  timing::Constraints cx = f.gd.constraints;
  cx.input_arrival_sigma = 0.0;
  ref::GoldenSta sta(*f.graph, cx, no_sigma);
  sta.update_full();
  const timing::ClockAnalysis clock(*f.graph, no_sigma, cx.nsigma);
  EXPECT_DOUBLE_EQ(clock.max_credit(), 0.0);
  // Every arrival entry has sigma 0 and corner == mu.
  for (const netlist::PinId p : f.graph->level_order()) {
    for (const auto rf : netlist::kBothTransitions) {
      for (const auto& e : sta.arrivals(p, rf)) {
        EXPECT_EQ(e.sigma, 0.0);
        EXPECT_EQ(e.corner, e.mu);
      }
    }
  }
}

/// N_sigma scales pessimism monotonically: larger corners, smaller slacks.
TEST(GoldenSemantics, NSigmaMonotonicity) {
  Fixture f(207);
  timing::Constraints tighter = f.gd.constraints;
  tighter.nsigma = 4.5;
  ref::GoldenSta sta2(*f.graph, tighter, f.delays);
  sta2.update_full();
  // TNS can only degrade with more pessimism (required gains some credit
  // back, but data-path RSS always grows faster than the shared prefix).
  EXPECT_LE(sta2.tns(), f.sta->tns() + 1e-6);
}

TEST(Hpwl, MatchesHandComputedBoundingBoxes) {
  netlist::Library lib = netlist::make_default_library();
  netlist::Design d(lib);
  const auto a = d.add_input_port("a");
  const auto inv = d.add_cell("i", lib.find(netlist::CellFunc::kInv, 1));
  const auto o = d.add_output_port("o");
  const auto n1 = d.add_net("n1");
  d.connect_driver(n1, d.output_pin(a));
  d.connect_sink(n1, d.input_pin(inv, 0));
  const auto n2 = d.add_net("n2");
  d.connect_driver(n2, d.output_pin(inv));
  d.connect_sink(n2, d.input_pin(o, 0));
  d.cell(a).x = 0.0;
  d.cell(a).y = 0.0;
  d.cell(inv).x = 3.0;
  d.cell(inv).y = 4.0;
  d.cell(o).x = 10.0;
  d.cell(o).y = 2.0;
  EXPECT_DOUBLE_EQ(place::net_hpwl(d, n1), 7.0);
  EXPECT_DOUBLE_EQ(place::net_hpwl(d, n2), 9.0);
  EXPECT_DOUBLE_EQ(place::total_hpwl(d), 16.0);
}

/// The WNS backward seed concentrates on the worst endpoint: the fanin arc
/// of the WNS endpoint receives the largest endpoint seed.
TEST(GradientSemantics, WnsSeedConcentratesOnWorstEndpoint) {
  Fixture f(208);
  core::EngineOptions opt;
  opt.wns_tau = 1.0f;  // sharp soft-min
  core::Engine engine(*f.sta, opt);
  engine.run_forward();
  engine.run_backward(core::GradientMetric::kWns);
  float worst_seed = -1.0f;
  std::size_t worst_ep = 0;
  float wns = 0.0f;
  std::size_t wns_ep = 0;
  for (std::size_t e = 0; e < f.graph->endpoints().size(); ++e) {
    float g = 0.0f;
    for (const timing::ArcId a : f.graph->fanin(f.graph->endpoints()[e].pin)) {
      g += engine.arc_gradient(a);
    }
    if (g > worst_seed) {
      worst_seed = g;
      worst_ep = e;
    }
    const float s = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(s) && s < wns) {
      wns = s;
      wns_ep = e;
    }
  }
  EXPECT_EQ(worst_ep, wns_ep);
  EXPECT_GT(worst_seed, 0.5f);  // sharp soft-min: most of the mass
}

}  // namespace
}  // namespace insta
