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

/// Snapshot regression tests: exact metric values for fixed seeds, pinned
/// at the time the semantics were validated against the brute-force oracle.
/// A change to any of these numbers means the timing semantics moved — if
/// intentional (delay model retune, generator change), re-pin deliberately;
/// if not, something broke in a way the property tests may rationalize.
struct Snapshot {
  std::uint64_t seed;
  std::size_t num_cells;
  std::size_t num_pins;
  std::size_t num_startpoints;
};

class Snapshots : public ::testing::Test {
 protected:
  struct World {
    gen::GeneratedDesign gd;
    std::unique_ptr<timing::TimingGraph> graph;
    std::unique_ptr<timing::DelayCalculator> calc;
    timing::ArcDelays delays;
    std::unique_ptr<ref::GoldenSta> sta;
  };

  static World build(std::uint64_t seed) {
    World w;
    w.gd = gen::build_logic_block(gen::tiny_spec(seed));
    w.graph = std::make_unique<timing::TimingGraph>(
        *w.gd.design, w.gd.constraints.clock_root);
    w.calc = std::make_unique<timing::DelayCalculator>(*w.gd.design, *w.graph);
    w.calc->compute_all(w.delays);
    gen::tune_clock_period(*w.graph, w.gd.constraints, w.delays, 0.1);
    ref::GoldenOptions opt;
    opt.enable_hold = true;
    w.sta = std::make_unique<ref::GoldenSta>(*w.graph, w.gd.constraints,
                                             w.delays, opt);
    w.sta->update_full();
    return w;
  }
};

TEST_F(Snapshots, StructureIsStable) {
  const World w = build(1);
  // Generator determinism pin: these change only if the generator or the
  // library changes.
  EXPECT_EQ(w.gd.design->num_cells(), 270u);
  EXPECT_EQ(w.gd.design->flip_flops().size(), 24u);
  EXPECT_EQ(w.graph->startpoints().size(), 32u);
  EXPECT_EQ(w.graph->endpoints().size(), 32u);
}

TEST_F(Snapshots, MetricsAreStable) {
  const World w = build(1);
  // Timing semantics pin (validated against the brute-force oracle).
  // Readers updating the delay model or generator must re-pin these values.
  RecordProperty("period", w.gd.constraints.clock_period);
  RecordProperty("tns", w.sta->tns());
  const double period = w.gd.constraints.clock_period;
  const double tns = w.sta->tns();
  const double wns = w.sta->wns();
  const double ths = w.sta->ths();

  // Self-consistency regardless of exact pins.
  EXPECT_GT(period, 0.0);
  EXPECT_LE(wns, 0.0);
  EXPECT_LE(tns, wns);

  // Cross-engine agreement at tight tolerance.
  core::EngineOptions opt;
  opt.top_k = 64;
  opt.enable_hold = true;
  core::Engine engine(*w.sta, opt);
  engine.run_forward();
  const core::SlackSummary s = engine.summary(core::Mode::kSetup, 0);
  EXPECT_NEAR(s.tns, tns, std::abs(tns) * 1e-5 + 0.05);
  EXPECT_NEAR(s.wns, wns, 0.02);
  EXPECT_NEAR(engine.summary(core::Mode::kHold, 0).tns, ths,
              std::abs(ths) * 1e-5 + 0.05);

  // The frozen snapshot itself (re-pin deliberately when semantics move):
  EXPECT_NEAR(period, 1108.36, 0.2);
  EXPECT_NEAR(tns, -173.03, 0.5);
  EXPECT_NEAR(wns, -71.65, 0.2);
}

TEST_F(Snapshots, SecondBuildBitIdentical) {
  const World a = build(9);
  const World b = build(9);
  for (std::size_t e = 0; e < a.graph->endpoints().size(); ++e) {
    const double sa = a.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
    const double sb = b.sta->endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(sa)) {
      EXPECT_EQ(sa, sb);
    } else {
      EXPECT_FALSE(std::isfinite(sb));
    }
  }
}

}  // namespace
}  // namespace insta
