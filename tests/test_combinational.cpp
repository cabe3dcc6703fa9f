#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/tune.hpp"
#include "ref/brute_force.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"

namespace insta {
namespace {

/// Purely combinational designs (no flip-flops, no clock tree) must work
/// through the whole stack: PI startpoints, PO endpoints, no CPPR credits.
class Combinational : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    gen::LogicBlockSpec spec;
    spec.name = "comb";
    spec.seed = GetParam();
    spec.num_gates = 300;
    spec.num_ffs = 0;
    spec.num_inputs = 16;
    spec.num_outputs = 16;
    spec.depth = 10;
    spec.false_path_frac = 0.0;
    spec.multicycle_frac = 0.0;
    gd_ = gen::build_logic_block(spec);
    graph_ = std::make_unique<timing::TimingGraph>(*gd_.design,
                                                   gd_.constraints.clock_root);
    calc_ = std::make_unique<timing::DelayCalculator>(*gd_.design, *graph_);
    calc_->compute_all(delays_);
    gen::tune_clock_period(*graph_, gd_.constraints, delays_, 0.2);
  }
  gen::GeneratedDesign gd_;
  std::unique_ptr<timing::TimingGraph> graph_;
  std::unique_ptr<timing::DelayCalculator> calc_;
  timing::ArcDelays delays_;
};

TEST_P(Combinational, NoClockArtifacts) {
  EXPECT_EQ(gd_.design->flip_flops().size(), 0u);
  EXPECT_EQ(graph_->startpoints().size(), 16u);
  EXPECT_EQ(graph_->endpoints().size(), 16u);
  const timing::ClockAnalysis clock(*graph_, delays_, 3.0);
  // The design has a clock root port but no clocked elements.
  EXPECT_DOUBLE_EQ(clock.max_credit(), 0.0);
}

TEST_P(Combinational, GoldenMatchesBruteForce) {
  ref::GoldenSta sta(*graph_, gd_.constraints, delays_);
  sta.update_full();
  const auto brute =
      ref::brute_force_endpoint_slacks(*graph_, gd_.constraints, delays_);
  for (std::size_t e = 0; e < brute.size(); ++e) {
    if (!std::isfinite(brute[e])) continue;
    EXPECT_NEAR(brute[e], sta.endpoint_slack(static_cast<timing::EndpointId>(e)),
                1e-9);
  }
  EXPECT_GT(sta.num_violations(), 0);
}

TEST_P(Combinational, EngineMatchesGolden) {
  ref::GoldenSta sta(*graph_, gd_.constraints, delays_);
  sta.update_full();
  core::EngineOptions opt;
  opt.top_k = 16;
  core::Engine engine(sta, opt);
  engine.run_forward();
  for (std::size_t e = 0; e < graph_->endpoints().size(); ++e) {
    const double g = sta.endpoint_slack(static_cast<timing::EndpointId>(e));
    const float m = engine.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (!std::isfinite(g)) continue;
    EXPECT_NEAR(g, static_cast<double>(m), 0.02) << "endpoint " << e;
  }
  engine.run_backward(core::GradientMetric::kTns);
  double total = 0.0;
  for (std::size_t e = 0; e < graph_->endpoints().size(); ++e) {
    for (const timing::ArcId a :
         graph_->fanin(graph_->endpoints()[e].pin)) {
      total += static_cast<double>(engine.arc_gradient(a));
    }
  }
  EXPECT_NEAR(total, engine.summary(core::Mode::kSetup, 0).violations, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Combinational, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace insta
