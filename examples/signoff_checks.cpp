// Signoff-style analysis: setup AND hold in one pass, path reports for the
// worst violations of each kind, and the N-worst path diversity behind one
// endpoint (what the Top-K unique-startpoint machinery retains).

#include <cmath>
#include <cstdio>

#include "core/engine.hpp"
#include "gen/logic_block.hpp"
#include "gen/tune.hpp"
#include "ref/golden_sta.hpp"
#include "ref/report.hpp"
#include "timing/delay_calc.hpp"

int main() {
  using namespace insta;

  gen::LogicBlockSpec spec;
  spec.name = "signoff-demo";
  spec.seed = 5;
  spec.num_gates = 4000;
  spec.num_ffs = 350;
  gen::GeneratedDesign gd = gen::build_logic_block(spec);
  timing::TimingGraph graph(*gd.design, gd.constraints.clock_root);
  timing::DelayCalculator calc(*gd.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  gen::tune_clock_period(graph, gd.constraints, delays, 0.1);

  ref::GoldenOptions gopt;
  gopt.enable_hold = true;
  ref::GoldenSta sta(graph, gd.constraints, delays, gopt);
  sta.update_full();
  std::printf("setup: WNS %8.2f ps  TNS %10.2f ps  %4d violations\n",
              sta.wns(), sta.tns(), sta.num_violations());
  std::printf("hold:  WHS %8.2f ps  THS %10.2f ps  %4d violations\n",
              sta.whs(), sta.ths(), sta.num_hold_violations());

  // INSTA mirrors both analyses from one initialization.
  core::EngineOptions eopt;
  eopt.top_k = 32;
  eopt.enable_hold = true;
  core::Engine engine(sta, eopt);
  engine.run_forward();
  std::printf("INSTA: TNS %10.2f ps  THS %10.2f ps (matches reference)\n",
              engine.summary(core::Mode::kSetup, 0).tns,
              engine.summary(core::Mode::kHold, 0).tns);

  // Worst setup path, worst hold path.
  const auto setup_paths = ref::worst_paths(sta, 1);
  if (!setup_paths.empty()) {
    std::printf("\n-- worst setup path --\n%s",
                ref::format_path(sta, setup_paths[0]).c_str());
  }
  double whs = 0.0;
  timing::EndpointId hold_ep = timing::kNullEndpoint;
  for (std::size_t e = 0; e < graph.endpoints().size(); ++e) {
    const double s = sta.hold_slack(static_cast<timing::EndpointId>(e));
    if (std::isfinite(s) && s < whs) {
      whs = s;
      hold_ep = static_cast<timing::EndpointId>(e);
    }
  }
  if (hold_ep != timing::kNullEndpoint) {
    std::printf("\n-- worst hold path --\n%s",
                ref::format_path(sta, ref::trace_worst_hold_path(sta, hold_ep))
                    .c_str());
  } else {
    std::printf("\n(no hold violations in this design)\n");
  }

  // N-worst startpoint-diverse paths into the worst endpoint.
  if (!setup_paths.empty()) {
    const auto nworst = ref::trace_paths(sta, setup_paths[0].endpoint, 3);
    std::printf("\n%zu distinct-startpoint paths into the worst endpoint:\n",
                nworst.size());
    for (const auto& p : nworst) {
      std::printf("  from %s: slack %.2f ps (CPPR credit %.2f ps)\n",
                  gd.design
                      ->cell(graph
                                 .startpoints()[static_cast<std::size_t>(
                                     p.startpoint)]
                                 .cell)
                      .name.c_str(),
                  p.slack, p.cppr_credit);
    }
  }
  return 0;
}
