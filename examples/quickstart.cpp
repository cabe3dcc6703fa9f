// Quickstart: generate a small clocked design, run the golden reference
// engine (the PrimeTime stand-in), initialize INSTA from it, and compare
// endpoint slacks.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cmath>
#include <cstdio>

#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "ref/report.hpp"
#include "timing/delay_calc.hpp"
#include "util/stats.hpp"

int main() {
  using namespace insta;

  // 1. A synthetic clocked netlist: 5000 gates, 400 flip-flops, a buffered
  //    clock tree, rise/fall + unateness everywhere, a few exceptions.
  gen::LogicBlockSpec spec;
  spec.name = "quickstart";
  spec.seed = 1;
  spec.num_gates = 5000;
  spec.num_ffs = 400;
  gen::GeneratedDesign gd = gen::build_logic_block(spec);
  std::printf("design: %zu cells, %zu nets, %zu pins\n",
              gd.design->num_cells(), gd.design->num_nets(),
              gd.design->num_pins());

  // 2. Timing graph + delay calculation (the reference tool's side).
  timing::TimingGraph graph(*gd.design, gd.constraints.clock_root);
  timing::DelayCalculator calc(*gd.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  gen::tune_clock_period(graph, gd.constraints, delays, /*violate=*/0.1);
  std::printf("clock period tuned to %.1f ps (~10%% endpoints violating)\n",
              gd.constraints.clock_period);

  // 3. Golden reference STA: exact per-startpoint statistical propagation
  //    with CPPR.
  ref::GoldenSta sta(graph, gd.constraints, delays);
  sta.update_full();
  std::printf("reference:  WNS %8.2f ps   TNS %10.2f ps   %d violations\n",
              sta.wns(), sta.tns(), sta.num_violations());

  // 4. INSTA: one-time initialization (cloning), then ultra-fast Top-K
  //    statistical propagation.
  core::EngineOptions opt;
  opt.top_k = 32;
  core::Engine insta(sta, opt);
  insta.run_forward();
  const core::SlackSummary s = insta.summary(core::Mode::kSetup, 0);
  std::printf("INSTA:      WNS %8.2f ps   TNS %10.2f ps   %d violations\n",
              s.wns, s.tns, s.violations);

  // 5. Endpoint-slack correlation (the paper's headline metric).
  std::vector<double> ref_slack, insta_slack;
  for (std::size_t e = 0; e < graph.endpoints().size(); ++e) {
    const double g = sta.endpoint_slack(static_cast<timing::EndpointId>(e));
    const float m = insta.endpoint_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(g) && std::isfinite(m)) {
      ref_slack.push_back(g);
      insta_slack.push_back(static_cast<double>(m));
    }
  }
  std::printf("endpoint slack correlation: %s over %zu endpoints\n",
              util::format_correlation(util::pearson(ref_slack, insta_slack))
                  .c_str(),
              ref_slack.size());

  // 6. Timing gradients: one backward pass ranks every arc's contribution
  //    to TNS.
  insta.run_backward(core::GradientMetric::kTns);
  float worst_grad = 0.0f;
  timing::ArcId worst_arc = 0;
  for (std::size_t a = 0; a < graph.num_arcs(); ++a) {
    if (insta.arc_gradient(static_cast<timing::ArcId>(a)) > worst_grad) {
      worst_grad = insta.arc_gradient(static_cast<timing::ArcId>(a));
      worst_arc = static_cast<timing::ArcId>(a);
    }
  }
  const timing::ArcRecord& rec = graph.arc(worst_arc);
  std::printf("most critical arc: %s -> %s (dTNS/d-delay = %.3f)\n",
              gd.design->pin_name(rec.from).c_str(),
              gd.design->pin_name(rec.to).c_str(), worst_grad);

  // 7. A report_timing-style trace of the worst path.
  const auto paths = ref::worst_paths(sta, 1);
  std::printf("\n%s", ref::format_path(sta, paths[0]).c_str());
  return 0;
}
