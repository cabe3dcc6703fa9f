#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>

#include "analysis/diagnostics.hpp"
#include "core/topk.hpp"
#include "telemetry/telemetry.hpp"
#include "timing/delta_canon.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace insta::core {

using netlist::PinId;
using netlist::RiseFall;
using timing::ArcId;
using timing::ArcRecord;
using timing::ArcSense;
using timing::EndpointId;
using timing::StartpointId;
using util::check;

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Registered-once handles for the engine's hot-path counters. With
/// telemetry compiled out every handle is an empty no-op stub.
struct EngineMetrics {
  telemetry::Counter forward_passes;
  telemetry::Counter incremental_passes;
  telemetry::Counter backward_passes;
  telemetry::Counter levels;
  telemetry::Counter pins;
  telemetry::Counter arcs;
  telemetry::Counter merges;
  telemetry::Counter prunes;
  telemetry::Counter endpoints;
  telemetry::Counter cppr_lookups;
  // Frontier-sparse incremental pass counters.
  telemetry::Counter frontier_pins;
  telemetry::Counter early_terminations;
  telemetry::Counter endpoints_skipped;
  // Backward weight-reuse counters.
  telemetry::Counter bw_weight_pins_recomputed;
  telemetry::Counter bw_weight_pins_reused;
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m = [] {
    auto& r = telemetry::MetricsRegistry::global();
    EngineMetrics em;
    em.forward_passes = r.counter("engine.forward_passes");
    em.incremental_passes = r.counter("engine.incremental_passes");
    em.backward_passes = r.counter("engine.backward_passes");
    em.levels = r.counter("engine.levels_processed");
    em.pins = r.counter("engine.pins_processed");
    em.arcs = r.counter("engine.arcs_traversed");
    em.merges = r.counter("engine.merge_ops");
    em.prunes = r.counter("engine.prune_hits");
    em.endpoints = r.counter("engine.endpoints_evaluated");
    em.cppr_lookups = r.counter("engine.cppr_lookups");
    em.frontier_pins = r.counter("engine.frontier_pins");
    em.early_terminations = r.counter("engine.early_terminations");
    em.endpoints_skipped = r.counter("engine.endpoints_skipped");
    em.bw_weight_pins_recomputed =
        r.counter("engine.backward_weight_pins_recomputed");
    em.bw_weight_pins_reused = r.counter("engine.backward_weight_pins_reused");
    return em;
  }();
  return m;
}

/// Thread-local re-merge destination of the sparse pass: each worker
/// re-merges a pin into this scratch, compares against the live store, and
/// commits only on change. Amortized allocation; sized to the largest
/// top_k seen on this thread.
struct TopKScratch {
  std::vector<float> arr, mu, sig;
  std::vector<std::int32_t> sp;
  std::int32_t cnt = 0;
  void ensure(std::int32_t k) {
    if (static_cast<std::int32_t>(arr.size()) < k) {
      const auto n = static_cast<std::size_t>(k);
      arr.resize(n);
      mu.resize(n);
      sig.resize(n);
      sp.resize(n);
    }
  }
};
thread_local TopKScratch tls_scratch;

}  // namespace

std::vector<std::string> EngineOptions::validate() const {
  std::vector<std::string> problems;
  if (top_k < 1) problems.emplace_back("top_k must be >= 1");
  if (!std::isfinite(tau) || tau <= 0.0f) {
    problems.emplace_back("tau must be finite and > 0");
  }
  if (!std::isfinite(wns_tau) || wns_tau <= 0.0f) {
    problems.emplace_back("wns_tau must be finite and > 0");
  }
  if (parallel_threshold < 0) {
    problems.emplace_back("parallel_threshold must be >= 0");
  }
  if (parallel_grain < 1) problems.emplace_back("parallel_grain must be >= 1");
  if (endpoint_grain < 1) problems.emplace_back("endpoint_grain must be >= 1");
  // Corner-consistency checks mirror the analysis::check_corner_setup lint
  // rules; having them here too means no constructor path can accept a
  // corner set the linter would flag.
  for (std::size_t c = 0; c < corners.size(); ++c) {
    const CornerSpec& cs = corners[c];
    const std::string tag = "corner[" + std::to_string(c) + "]";
    if (cs.name.empty()) problems.emplace_back(tag + " has an empty name");
    if (!std::isfinite(cs.delay_scale) || cs.delay_scale <= 0.0f) {
      problems.emplace_back(tag + " (" + cs.name +
                            "): delay_scale must be finite and > 0");
    }
    if (!std::isfinite(cs.sigma_scale) || cs.sigma_scale <= 0.0f) {
      problems.emplace_back(tag + " (" + cs.name +
                            "): sigma_scale must be finite and > 0");
    }
    for (std::size_t o = 0; o < c; ++o) {
      if (corners[o].name == cs.name) {
        problems.emplace_back(tag + ": duplicate corner name '" + cs.name +
                              "'");
        break;
      }
    }
  }
  return problems;
}

Engine::Engine(const ref::GoldenSta& reference, EngineOptions options)
    : graph_(&reference.graph()),
      options_(std::move(options)),
      exceptions_(reference.exceptions()) {
  if (const std::vector<std::string> problems = options_.validate();
      !problems.empty()) {
    std::string msg = "Engine: invalid EngineOptions:";
    for (const std::string& p : problems) {
      msg += ' ';
      msg += p;
      msg += ';';
    }
    check(false, msg);
  }
  corners_ = options_.corners;
  if (corners_.empty()) corners_.push_back(CornerSpec{});
  C_ = corners_.size();
  nsigma_ = static_cast<float>(reference.constraints().nsigma);
  num_pins_ = graph_->design().num_pins();

  clone_structure(reference);
  clone_delays(reference);
  clone_sp_ep_attributes(reference);

  dirty_pin_.assign(C_ * num_pins_, 0);
  frontier_.resize(C_ * (level_start_.size() - 1));
  dirty_level_.assign(C_, std::numeric_limits<std::size_t>::max());
  dirty_eps_.resize(C_);
  recompute_aggregates();

  // Level-contiguous SoA layout: pins take plane positions in level order
  // (unleveled clock-network pins appended after), entries padded to a
  // multiple of 8 (the merge kernel's candidate group) so every run starts
  // on a 32-byte boundary of the plane. Corners are the outermost (major)
  // axis: plane c of every store is byte-compatible with the whole store
  // of a single-corner engine.
  tk_stride_ = (static_cast<std::size_t>(options_.top_k) + 7) & ~std::size_t{7};
  tk_pos_.assign(num_pins_, -1);
  {
    std::int32_t pos = 0;
    for (const PinId pin : level_pins_) {
      tk_pos_[static_cast<std::size_t>(pin)] = pos++;
    }
    for (std::size_t p = 0; p < num_pins_; ++p) {
      if (tk_pos_[p] < 0) tk_pos_[p] = pos++;
    }
  }
  corner_stride_ = num_pins_ * 2 * tk_stride_;
  const std::size_t planes = C_ * corner_stride_;
  tk_arr_.assign(planes, 0.0f);
  tk_mu_.assign(planes, 0.0f);
  tk_sig_.assign(planes, 0.0f);
  tk_sp_.assign(planes, -1);
  tk_cnt_.assign(C_ * num_pins_ * 2, 0);
  if (options_.enable_hold) {
    tk2_arr_.assign(planes, 0.0f);
    tk2_mu_.assign(planes, 0.0f);
    tk2_sig_.assign(planes, 0.0f);
    tk2_sp_.assign(planes, -1);
    tk2_cnt_.assign(C_ * num_pins_ * 2, 0);
  }

  const std::size_t slots = num_slots_;
  for (auto& w : w_) w.assign(C_ * slots, 0.0f);
  pin_grad_.assign(C_ * num_pins_ * 2, 0.0f);
  slot_grad_.assign(C_ * slots, 0.0f);
  arc_grad_.assign(C_ * graph_->num_arcs(), 0.0f);
  // Backward gather table and candidate scratch (see backward_cand in
  // topk.hpp). The gather table is structure-only and corner-relative
  // (the kernel's base pointers carry the corner offset), so one copy
  // serves every corner; the candidate scratch is per-corner.
  for (const int rf : {0, 1}) {
    const auto rfi = static_cast<std::size_t>(rf);
    slot_ci_[rfi].resize(slots);
    bw_cand_[rfi].assign(C_ * slots, 0.0f);
    for (std::size_t s = 0; s < slots; ++s) {
      const int prf = rf ^ static_cast<int>(fi_neg_[s]);
      slot_ci_[rfi][s] =
          static_cast<std::int32_t>(cnt_index(fi_from_[s], prf));
    }
  }
  w_stale_.assign(C_ * num_pins_, 0);
  w_stale_pins_.resize(C_);
}

CornerId Engine::corner_id(std::string_view name) const {
  for (std::size_t c = 0; c < C_; ++c) {
    if (corners_[c].name == name) return static_cast<CornerId>(c);
  }
  return kAllCorners;
}

void Engine::clone_structure(const ref::GoldenSta& reference) {
  const auto& g = *graph_;
  (void)reference;

  level_start_.assign(g.num_levels() + 1, 0);
  for (std::size_t l = 0; l < g.num_levels(); ++l) {
    level_start_[l + 1] =
        level_start_[l] + static_cast<std::int32_t>(g.level(l).size());
  }
  level_pins_.assign(g.level_order().begin(), g.level_order().end());

  fi_start_.assign(num_pins_ + 1, 0);
  slot_of_arc_.assign(g.num_arcs(), -1);
  for (std::size_t p = 0; p < num_pins_; ++p) {
    fi_start_[p + 1] =
        fi_start_[p] +
        static_cast<std::int32_t>(g.fanin(static_cast<PinId>(p)).size());
  }
  const std::size_t slots = static_cast<std::size_t>(fi_start_[num_pins_]);
  num_slots_ = slots;
  fi_from_.resize(slots);
  fi_neg_.resize(slots);
  fi_arc_.resize(slots);
  {
    std::size_t s = 0;
    for (std::size_t p = 0; p < num_pins_; ++p) {
      for (const ArcId aid : g.fanin(static_cast<PinId>(p))) {
        const ArcRecord& a = g.arc(aid);
        fi_from_[s] = a.from;
        fi_neg_[s] = (a.sense == ArcSense::kNegative) ? 1 : 0;
        fi_arc_[s] = aid;
        slot_of_arc_[static_cast<std::size_t>(aid)] = static_cast<std::int32_t>(s);
        ++s;
      }
    }
  }

  fo_start_.assign(num_pins_ + 1, 0);
  for (std::size_t p = 0; p < num_pins_; ++p) {
    fo_start_[p + 1] =
        fo_start_[p] +
        static_cast<std::int32_t>(g.fanout(static_cast<PinId>(p)).size());
  }
  fo_slot_.resize(slots);
  fo_to_.resize(slots);
  {
    std::size_t s = 0;
    for (std::size_t p = 0; p < num_pins_; ++p) {
      for (const ArcId aid : g.fanout(static_cast<PinId>(p))) {
        const ArcRecord& a = g.arc(aid);
        fo_slot_[s] = slot_of_arc_[static_cast<std::size_t>(aid)];
        fo_to_[s] = a.to;
        ++s;
      }
    }
  }

  sp_of_pin_.assign(num_pins_, -1);
  for (std::size_t p = 0; p < num_pins_; ++p) {
    sp_of_pin_[p] = g.startpoint_of_pin(static_cast<PinId>(p));
  }
}

void Engine::clone_delays(const ref::GoldenSta& reference) {
  const timing::ArcDelays& d = reference.delays();
  const std::size_t slots = num_slots_;
  for (const int rf : {0, 1}) {
    amu_[static_cast<std::size_t>(rf)].resize(C_ * slots);
    asig_[static_cast<std::size_t>(rf)].resize(C_ * slots);
  }
  for (std::size_t c = 0; c < C_; ++c) {
    const float ds = corners_[c].delay_scale;
    const float ss = corners_[c].sigma_scale;
    const std::size_t soff = slot_off(static_cast<CornerId>(c));
    for (const int rf : {0, 1}) {
      const auto rfi = static_cast<std::size_t>(rf);
      for (std::size_t s = 0; s < slots; ++s) {
        const auto arc = static_cast<std::size_t>(fi_arc_[s]);
        amu_[rfi][soff + s] = scaled(d.mu[rf][arc], ds);
        asig_[rfi][soff + s] = scaled(d.sigma[rf][arc], ss);
      }
    }
  }
}

void Engine::clone_sp_ep_attributes(const ref::GoldenSta& reference) {
  const auto& g = *graph_;
  const timing::ClockAnalysis& clock = reference.clock();

  const std::size_t num_sps = g.startpoints().size();
  num_sps_ = num_sps;
  for (const int rf : {0, 1}) {
    sp_mu_[static_cast<std::size_t>(rf)].resize(C_ * num_sps);
    sp_sig_[static_cast<std::size_t>(rf)].resize(C_ * num_sps);
  }
  sp_ck_mu_.assign(num_sps, 0.0f);
  sp_ck_sig2_.assign(num_sps, 0.0f);
  sp_node_.assign(num_sps, -1);
  launch_sp_of_arc_.assign(g.num_arcs(), -1);
  for (std::size_t s = 0; s < num_sps; ++s) {
    const timing::Startpoint& sp = g.startpoints()[s];
    const ref::GoldenSta::SpInit init =
        reference.sp_init(static_cast<StartpointId>(s));
    if (sp.clocked) {
      sp_node_[s] = clock.node_of_ff(sp.cell);
      sp_ck_mu_[s] = static_cast<float>(clock.ck_mu(sp.cell));
      sp_ck_sig2_[s] = static_cast<float>(clock.ck_sig2(sp.cell));
      const auto [first, last] = g.cell_arcs(sp.cell);
      check(last - first == 1, "Engine: FF must have one launch arc");
      launch_sp_of_arc_[static_cast<std::size_t>(first)] =
          static_cast<std::int32_t>(s);
    }
    // The corner scales apply to the *launch* portion of the initial
    // arrival, not the shared clock-network part: mu splits additively
    // (ck + launch), sigma by variance (ck_sig2 + launch_sig2). At scale
    // 1.0f both branches reduce to the exact pre-scaling floats.
    for (std::size_t c = 0; c < C_; ++c) {
      const float ds = corners_[c].delay_scale;
      const float ss = corners_[c].sigma_scale;
      const std::size_t spoff = sp_off(static_cast<CornerId>(c));
      for (const int rf : {0, 1}) {
        const auto rfi = static_cast<std::size_t>(rf);
        const auto base_mu = static_cast<float>(init.mu[rfi]);
        const auto base_sig = static_cast<float>(init.sigma[rfi]);
        sp_mu_[rfi][spoff + s] =
            ds == 1.0f ? base_mu
                       : sp_ck_mu_[s] + (base_mu - sp_ck_mu_[s]) * ds;
        sp_sig_[rfi][spoff + s] =
            ss == 1.0f
                ? base_sig
                : std::sqrt(sp_ck_sig2_[s] +
                            std::max(0.0f,
                                     base_sig * base_sig - sp_ck_sig2_[s]) *
                                ss * ss);
      }
    }
  }

  const std::size_t num_eps = g.endpoints().size();
  ep_pin_.resize(num_eps);
  ep_base_req_.resize(num_eps);
  ep_period_.resize(num_eps);
  ep_node_.assign(num_eps, -1);
  slack_.assign(C_ * num_eps, kInf);
  ep_worst_rf_.assign(C_ * num_eps, 0);
  if (options_.enable_hold) {
    ep_hold_base_.assign(num_eps, std::numeric_limits<float>::quiet_NaN());
    hold_slack_.assign(C_ * num_eps, kInf);
  }
  ep_of_pin_.assign(num_pins_, -1);
  for (std::size_t e = 0; e < num_eps; ++e) {
    const timing::Endpoint& ep = g.endpoints()[e];
    ep_pin_[e] = ep.pin;
    check(ep_of_pin_[static_cast<std::size_t>(ep.pin)] < 0,
          "Engine: endpoint pins must be unique (sparse endpoint lookup)");
    ep_of_pin_[static_cast<std::size_t>(ep.pin)] = static_cast<std::int32_t>(e);
    ep_base_req_[e] =
        static_cast<float>(reference.ep_base_required(static_cast<EndpointId>(e)));
    ep_period_[e] =
        static_cast<float>(reference.ep_period(static_cast<EndpointId>(e)));
    if (ep.clocked) {
      ep_node_[e] = clock.node_of_ff(ep.cell);
      if (options_.enable_hold) {
        const netlist::LibCell& lc = g.design().libcell_of(ep.cell);
        ep_hold_base_[e] =
            static_cast<float>(clock.late_ck(ep.cell) + lc.hold);
      }
    }
  }

  ck_parent_.assign(clock.parents().begin(), clock.parents().end());
  ck_depth_.assign(clock.depths().begin(), clock.depths().end());
  ck_sig2_.resize(clock.node_sig2().size());
  for (std::size_t n = 0; n < ck_sig2_.size(); ++n) {
    ck_sig2_[n] = static_cast<float>(clock.node_sig2()[n]);
  }
}

void Engine::annotate(std::span<const timing::ArcDelta> deltas,
                      CornerId corner) {
  INSTA_CHECK(corner == kAllCorners ||
                  (corner >= 0 && static_cast<std::size_t>(corner) < C_),
              "Engine::annotate: corner id " + std::to_string(corner) +
                  " out of range [0, " + std::to_string(C_) + ")");
  const CornerId c0 = corner == kAllCorners ? 0 : corner;
  const CornerId c1 = corner == kAllCorners ? static_cast<CornerId>(C_)
                                            : corner + 1;
  for (const timing::ArcDelta& d : deltas) {
    // Always-on range check: an out-of-range arc id would scribble over the
    // flat stores in Release. Full structured validation (clock-network
    // arcs, non-finite values, duplicates) is annotate_checked()'s job.
    INSTA_CHECK(d.arc >= 0 && static_cast<std::size_t>(d.arc) <
                                  slot_of_arc_.size(),
                "Engine::annotate: arc id " + std::to_string(d.arc) +
                    " out of range (use annotate_checked for structured "
                    "diagnostics)");
    INSTA_DCHECK(std::isfinite(d.mu[0]) && std::isfinite(d.mu[1]) &&
                     d.sigma[0] >= 0.0 && d.sigma[1] >= 0.0,
                 "Engine::annotate: non-finite mean or negative sigma");
    const auto arc = static_cast<std::size_t>(d.arc);
    const std::int32_t slot = slot_of_arc_[arc];
    {
      // Seed the sparse frontier at the arc's sink pin in every targeted
      // corner. For launch arcs the sink is the FF output pin, whose
      // fanin-less merge re-reads the startpoint attributes updated below.
      const PinId to = graph_->arc(d.arc).to;
      const int lvl = graph_->level_of(to);
      for (CornerId c = c0; c < c1; ++c) mark_dirty(to, lvl, c);
    }
    if (slot >= 0) {
      for (CornerId c = c0; c < c1; ++c) {
        const float ds = corners_[static_cast<std::size_t>(c)].delay_scale;
        const float ss = corners_[static_cast<std::size_t>(c)].sigma_scale;
        const std::size_t soff = slot_off(c);
        for (const int rf : {0, 1}) {
          const auto rfi = static_cast<std::size_t>(rf);
          amu_[rfi][soff + static_cast<std::size_t>(slot)] =
              scaled(d.mu[rfi], ds);
          asig_[rfi][soff + static_cast<std::size_t>(slot)] =
              scaled(d.sigma[rfi], ss);
        }
      }
      continue;
    }
    const std::int32_t sp = launch_sp_of_arc_[arc];
    check(sp >= 0,
          "Engine::annotate: arc is neither a data arc nor a launch arc "
          "(clock-network arcs require re-initialization)");
    const auto spi = static_cast<std::size_t>(sp);
    for (CornerId c = c0; c < c1; ++c) {
      const float ds = corners_[static_cast<std::size_t>(c)].delay_scale;
      const float ss = corners_[static_cast<std::size_t>(c)].sigma_scale;
      const std::size_t spoff = sp_off(c);
      for (const int rf : {0, 1}) {
        const auto rfi = static_cast<std::size_t>(rf);
        const float dsig = scaled(d.sigma[rfi], ss);
        sp_mu_[rfi][spoff + spi] = sp_ck_mu_[spi] + scaled(d.mu[rfi], ds);
        sp_sig_[rfi][spoff + spi] =
            std::sqrt(sp_ck_sig2_[spi] + dsig * dsig);
      }
    }
  }
}

timing::ArcDelta Engine::read_annotation(ArcId arc, CornerId corner) const {
  INSTA_CHECK(corner >= 0 && static_cast<std::size_t>(corner) < C_,
              "Engine::read_annotation: corner id " + std::to_string(corner) +
                  " out of range [0, " + std::to_string(C_) + ")");
  const std::int32_t slot = slot_of_arc_[static_cast<std::size_t>(arc)];
  timing::ArcDelta d;
  d.arc = arc;
  if (slot >= 0) {
    const std::size_t soff = slot_off(corner);
    for (const int rf : {0, 1}) {
      const auto rfi = static_cast<std::size_t>(rf);
      d.mu[rfi] = static_cast<double>(
          amu_[rfi][soff + static_cast<std::size_t>(slot)]);
      d.sigma[rfi] = static_cast<double>(
          asig_[rfi][soff + static_cast<std::size_t>(slot)]);
    }
    return d;
  }
  const std::int32_t sp = launch_sp_of_arc_[static_cast<std::size_t>(arc)];
  check(sp >= 0, "read_annotation: arc is neither a data arc nor a launch arc");
  // Launch arcs are folded into the startpoint's initial arrival; undo that
  // fold: mu = sp_mu - ck_mu, sigma^2 = sp_sigma^2 - ck_sigma^2. The result
  // is the corner-local (scaled) launch delay.
  const auto spi = static_cast<std::size_t>(sp);
  const std::size_t spoff = sp_off(corner);
  for (const int rf : {0, 1}) {
    const auto rfi = static_cast<std::size_t>(rf);
    d.mu[rfi] =
        static_cast<double>(sp_mu_[rfi][spoff + spi] - sp_ck_mu_[spi]);
    const float var = sp_sig_[rfi][spoff + spi] * sp_sig_[rfi][spoff + spi] -
                      sp_ck_sig2_[spi];
    d.sigma[rfi] = std::sqrt(std::max(0.0, static_cast<double>(var)));
  }
  return d;
}

namespace {
/// Per-delta validity predicate shared by check_deltas and annotate_checked:
/// true when annotate() can apply the delta without throwing or corrupting
/// state. `num_arcs` bounds the id space; slot/launch lookups classify the
/// arc kind.
bool delta_is_error_free(const timing::ArcDelta& d, std::size_t num_arcs,
                         const std::vector<std::int32_t>& slot_of_arc,
                         const std::vector<std::int32_t>& launch_sp_of_arc) {
  if (d.arc < 0 || static_cast<std::size_t>(d.arc) >= num_arcs) return false;
  const auto arc = static_cast<std::size_t>(d.arc);
  if (slot_of_arc[arc] < 0 && launch_sp_of_arc[arc] < 0) return false;
  for (const int rf : {0, 1}) {
    const auto rfi = static_cast<std::size_t>(rf);
    if (!std::isfinite(d.mu[rfi])) return false;
    if (!std::isfinite(d.sigma[rfi]) || d.sigma[rfi] < 0.0) return false;
  }
  return true;
}
}  // namespace

analysis::LintReport Engine::check_deltas(
    std::span<const timing::ArcDelta> deltas, CornerId corner) const {
  analysis::LintReport report;
  if (corner != kAllCorners &&
      (corner < 0 || static_cast<std::size_t>(corner) >= C_)) {
    analysis::Diagnostic d;
    d.rule = "corner-unknown";
    d.severity = analysis::Severity::kError;
    d.kind = analysis::ObjectKind::kNone;
    d.where = "corner " + std::to_string(corner);
    d.message = "corner id out of range [0, " + std::to_string(C_) +
                ") (use kAllCorners to broadcast)";
    report.add(std::move(d));
  }
  // Per-rule reporting cap, linter-style: a garbage input file should not
  // produce a million diagnostics, but the counts stay exact.
  constexpr std::size_t kCap = 32;
  struct RuleCount {
    const char* rule;
    std::size_t n = 0;
  };
  RuleCount range{"delta-arc-range"};
  RuleCount clock{"delta-clock-arc"};
  RuleCount value{"delta-bad-value"};
  RuleCount dup{"delta-duplicate-arc"};
  auto add = [&report](RuleCount& rc, analysis::Severity sev, timing::ArcId arc,
                       std::string message) {
    if (++rc.n > kCap) return;
    analysis::Diagnostic d;
    d.rule = rc.rule;
    d.severity = sev;
    d.kind = analysis::ObjectKind::kArc;
    d.object = arc;
    d.where = "arc " + std::to_string(arc);
    d.message = std::move(message);
    report.add(std::move(d));
  };

  const std::size_t num_arcs = slot_of_arc_.size();
  // Duplicate detection is delegated to the shared canonicalizer — the
  // same helper that keys the serve layer's what-if cache — so "what
  // counts as the same delta-set" has exactly one definition.
  std::vector<timing::ArcId> dup_arcs;
  static_cast<void>(timing::canonicalize_deltas(deltas, &dup_arcs));
  for (const timing::ArcId a : dup_arcs) {
    if (a < 0 || static_cast<std::size_t>(a) >= num_arcs) continue;
    add(dup, analysis::Severity::kWarning, a,
        "arc annotated more than once in this delta-set (last write wins)");
  }
  for (const timing::ArcDelta& d : deltas) {
    if (d.arc < 0 || static_cast<std::size_t>(d.arc) >= num_arcs) {
      add(range, analysis::Severity::kError, d.arc,
          "arc id out of range [0, " + std::to_string(num_arcs) + ")");
      continue;
    }
    const auto arc = static_cast<std::size_t>(d.arc);
    if (slot_of_arc_[arc] < 0 && launch_sp_of_arc_[arc] < 0) {
      add(clock, analysis::Severity::kError, d.arc,
          "arc is neither a data arc nor a launch arc (clock-network arcs "
          "require re-initialization)");
      continue;
    }
    for (const int rf : {0, 1}) {
      const auto rfi = static_cast<std::size_t>(rf);
      if (!std::isfinite(d.mu[rfi]) || !std::isfinite(d.sigma[rfi]) ||
          d.sigma[rfi] < 0.0) {
        add(value, analysis::Severity::kError, d.arc,
            "non-finite mean or negative sigma");
        break;
      }
    }
  }
  for (const RuleCount* rc : {&range, &clock, &value, &dup}) {
    if (rc->n > kCap) report.add_suppressed(rc->rule, rc->n - kCap);
  }
  return report;
}

analysis::LintReport Engine::annotate_checked(
    std::span<const timing::ArcDelta> deltas, CornerId corner) {
  analysis::LintReport report = check_deltas(deltas, corner);
  // An unknown corner poisons the whole set: there is no plane to apply
  // even the clean deltas to.
  if (corner != kAllCorners &&
      (corner < 0 || static_cast<std::size_t>(corner) >= C_)) {
    return report;
  }
  if (!report.has_errors()) {
    annotate(deltas, corner);
    return report;
  }
  // Apply the clean subset in input order; erroneous entries are skipped so
  // one bad delta in a what-if file does not poison the rest.
  std::vector<timing::ArcDelta> valid;
  valid.reserve(deltas.size());
  for (const timing::ArcDelta& d : deltas) {
    if (delta_is_error_free(d, slot_of_arc_.size(), slot_of_arc_,
                            launch_sp_of_arc_)) {
      valid.push_back(d);
    }
  }
  annotate(valid, corner);
  return report;
}

// ---- Transaction ------------------------------------------------------------

Engine::Transaction::Transaction(Engine& engine)
    : engine_(&engine), aggregates_(engine.aggregates_) {}

Engine::Transaction::Transaction(Transaction&& other) noexcept
    : engine_(other.engine_),
      undo_(std::move(other.undo_)),
      applied_(std::move(other.applied_)),
      aggregates_(std::move(other.aggregates_)) {
  other.engine_ = nullptr;
}

Engine::Transaction::~Transaction() {
  if (engine_ != nullptr) rollback();
}

void Engine::Transaction::record(std::span<const timing::ArcDelta> deltas) {
  Engine& e = *engine_;
  const std::size_t C = e.C_;
  for (const timing::ArcDelta& d : deltas) {
    // Entries annotate() will reject are not recorded; delta-sets are small
    // (ECO-sized), so the first-touch dedup is a linear scan.
    if (d.arc < 0 || static_cast<std::size_t>(d.arc) >= e.slot_of_arc_.size()) {
      continue;
    }
    bool seen = false;
    for (const Undo& u : undo_) {
      if (u.arc == d.arc) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    const auto arc = static_cast<std::size_t>(d.arc);
    Undo u;
    u.arc = d.arc;
    u.sink = e.graph_->arc(d.arc).to;
    u.mu.resize(C * 2);
    u.sig.resize(C * 2);
    const std::int32_t slot = e.slot_of_arc_[arc];
    // All corners are snapshotted regardless of which corner the caller
    // targets: rollback is then exact whatever mix of targeted and
    // broadcast annotations follows the first touch.
    if (slot >= 0) {
      u.slot = slot;
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t soff = e.slot_off(static_cast<CornerId>(c));
        for (const int rf : {0, 1}) {
          const auto rfi = static_cast<std::size_t>(rf);
          u.mu[c * 2 + rfi] =
              e.amu_[rfi][soff + static_cast<std::size_t>(slot)];
          u.sig[c * 2 + rfi] =
              e.asig_[rfi][soff + static_cast<std::size_t>(slot)];
        }
      }
    } else {
      const std::int32_t sp = e.launch_sp_of_arc_[arc];
      if (sp < 0) continue;  // clock-network arc: annotate() throws below
      u.sp = sp;
      for (std::size_t c = 0; c < C; ++c) {
        const std::size_t spoff = e.sp_off(static_cast<CornerId>(c));
        for (const int rf : {0, 1}) {
          const auto rfi = static_cast<std::size_t>(rf);
          u.mu[c * 2 + rfi] =
              e.sp_mu_[rfi][spoff + static_cast<std::size_t>(sp)];
          u.sig[c * 2 + rfi] =
              e.sp_sig_[rfi][spoff + static_cast<std::size_t>(sp)];
        }
      }
    }
    undo_.push_back(std::move(u));
  }
}

void Engine::Transaction::annotate(std::span<const timing::ArcDelta> deltas,
                                   CornerId corner) {
  check(engine_ != nullptr,
        "Transaction::annotate: transaction already committed or rolled back");
  record(deltas);
  applied_.push_back({corner, {deltas.begin(), deltas.end()}});
  engine_->annotate(deltas, corner);
}

void Engine::Transaction::commit() {
  check(engine_ != nullptr,
        "Transaction::commit: transaction already committed or rolled back");
  engine_->txn_active_ = false;
  engine_ = nullptr;
  // applied_ is intentionally kept: a committed transaction's records are
  // its replication payload (see applied()).
  undo_.clear();
}

void Engine::Transaction::rollback() {
  check(engine_ != nullptr,
        "Transaction::rollback: transaction already committed or rolled back");
  Engine& e = *engine_;
  if (!undo_.empty()) {
    // Restore the raw delay floats (not read_annotation round-trips: the
    // launch-arc sigma fold does not invert exactly in float) and seed the
    // frontier at each touched sink in every corner, exactly as a broadcast
    // annotate() would. Corners the edits never touched restore identical
    // bytes, so their sparse re-merge early-terminates at the first pin.
    for (const Undo& u : undo_) {
      for (std::size_t c = 0; c < e.C_; ++c) {
        for (const int rf : {0, 1}) {
          const auto rfi = static_cast<std::size_t>(rf);
          if (u.slot >= 0) {
            e.amu_[rfi][e.slot_off(static_cast<CornerId>(c)) +
                        static_cast<std::size_t>(u.slot)] = u.mu[c * 2 + rfi];
            e.asig_[rfi][e.slot_off(static_cast<CornerId>(c)) +
                         static_cast<std::size_t>(u.slot)] = u.sig[c * 2 + rfi];
          } else {
            e.sp_mu_[rfi][e.sp_off(static_cast<CornerId>(c)) +
                          static_cast<std::size_t>(u.sp)] = u.mu[c * 2 + rfi];
            e.sp_sig_[rfi][e.sp_off(static_cast<CornerId>(c)) +
                           static_cast<std::size_t>(u.sp)] = u.sig[c * 2 + rfi];
          }
        }
        e.mark_dirty(u.sink, e.graph_->level_of(u.sink),
                     static_cast<CornerId>(c));
      }
    }
    e.run_forward_incremental();
    // The sparse pass restored every slack bitwise; restoring the cache
    // snapshot on top also undoes the float drift of delta folding, so
    // aggregates come back exactly.
    e.aggregates_ = aggregates_;
    undo_.clear();
  }
  applied_.clear();  // the edits no longer exist; there is nothing to replay
  e.txn_active_ = false;
  engine_ = nullptr;
}

Engine::Transaction Engine::begin_edit() {
  check(!txn_active_,
        "Engine::begin_edit: a Transaction is already active on this engine");
  check(timing_clean(),
        "Engine::begin_edit: timing must be clean (run run_forward() or "
        "run_forward_incremental() first)");
  txn_active_ = true;
  return Transaction(*this);
}

// ---- state export / import (replication) -------------------------------------

EngineState Engine::export_state() const {
  check(!txn_active_,
        "Engine::export_state: a Transaction is active (commit or roll back "
        "first so the image is a committed generation)");
  check(timing_clean(),
        "Engine::export_state: timing must be clean (run a forward pass "
        "first)");
  EngineState s;
  s.generation = generation_;
  s.num_corners = static_cast<std::uint32_t>(C_);
  s.num_pins = num_pins_;
  s.num_slots = num_slots_;
  s.num_sps = num_sps_;
  s.num_eps = ep_pin_.size();
  s.num_arcs = slot_of_arc_.size();
  s.top_k = static_cast<std::int32_t>(options_.top_k);
  s.tk_stride = static_cast<std::uint32_t>(tk_stride_);
  s.enable_hold = options_.enable_hold ? 1 : 0;
  s.corners = corners_;
  s.amu = amu_;
  s.asig = asig_;
  s.sp_mu = sp_mu_;
  s.sp_sig = sp_sig_;
  s.tk_arr = tk_arr_;
  s.tk_mu = tk_mu_;
  s.tk_sig = tk_sig_;
  s.tk_sp = tk_sp_;
  s.tk_cnt = tk_cnt_;
  s.tk2_arr = tk2_arr_;
  s.tk2_mu = tk2_mu_;
  s.tk2_sig = tk2_sig_;
  s.tk2_sp = tk2_sp_;
  s.tk2_cnt = tk2_cnt_;
  s.slack = slack_;
  s.hold_slack = hold_slack_;
  s.ep_worst_rf = ep_worst_rf_;
  s.ep_base_req = ep_base_req_;
  s.ep_hold_base = ep_hold_base_;
  s.aggregates = aggregates_;
  return s;
}

void Engine::import_state(const EngineState& s) {
  check(!txn_active_,
        "Engine::import_state: a Transaction is active on this engine");
  auto require = [](bool ok, std::string_view what) {
    INSTA_CHECK(ok, "Engine::import_state: snapshot does not match this "
                    "engine's design/options: " +
                        std::string(what));
  };
  require(s.num_corners == C_, "corner count");
  require(s.num_pins == num_pins_, "pin count");
  require(s.num_slots == num_slots_, "fanin slot count");
  require(s.num_sps == num_sps_, "startpoint count");
  require(s.num_eps == ep_pin_.size(), "endpoint count");
  require(s.num_arcs == slot_of_arc_.size(), "arc count");
  require(s.top_k == static_cast<std::int32_t>(options_.top_k), "top_k");
  require(s.tk_stride == tk_stride_, "tk_stride");
  require(s.enable_hold == (options_.enable_hold ? 1 : 0), "enable_hold");
  require(s.corners.size() == corners_.size(), "corner list size");
  for (std::size_t c = 0; c < corners_.size(); ++c) {
    require(s.corners[c].name == corners_[c].name &&
                s.corners[c].delay_scale == corners_[c].delay_scale &&
                s.corners[c].sigma_scale == corners_[c].sigma_scale,
            "corner spec \"" + corners_[c].name + "\"");
  }
  auto same_floats = [](const std::vector<float>& a,
                        const std::vector<float>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
  };
  // Required-time attributes are the design/constraints fingerprint: a
  // byte-for-byte match here (together with the shape checks above) is
  // what makes "same design file on both ends" an enforced contract
  // instead of an operator convention.
  require(same_floats(s.ep_base_req, ep_base_req_),
          "endpoint required times (different constraints?)");
  require(same_floats(s.ep_hold_base, ep_hold_base_),
          "endpoint hold required times");
  auto sized = [&require](const auto& v, const auto& live, const char* what) {
    require(v.size() == live.size(), what);
  };
  for (const int rf : {0, 1}) {
    const auto rfi = static_cast<std::size_t>(rf);
    sized(s.amu[rfi], amu_[rfi], "amu plane size");
    sized(s.asig[rfi], asig_[rfi], "asig plane size");
    sized(s.sp_mu[rfi], sp_mu_[rfi], "sp_mu plane size");
    sized(s.sp_sig[rfi], sp_sig_[rfi], "sp_sig plane size");
  }
  sized(s.tk_arr, tk_arr_, "tk_arr plane size");
  sized(s.tk_mu, tk_mu_, "tk_mu plane size");
  sized(s.tk_sig, tk_sig_, "tk_sig plane size");
  sized(s.tk_sp, tk_sp_, "tk_sp plane size");
  sized(s.tk_cnt, tk_cnt_, "tk_cnt plane size");
  sized(s.tk2_arr, tk2_arr_, "tk2_arr plane size");
  sized(s.tk2_mu, tk2_mu_, "tk2_mu plane size");
  sized(s.tk2_sig, tk2_sig_, "tk2_sig plane size");
  sized(s.tk2_sp, tk2_sp_, "tk2_sp plane size");
  sized(s.tk2_cnt, tk2_cnt_, "tk2_cnt plane size");
  sized(s.slack, slack_, "slack plane size");
  sized(s.hold_slack, hold_slack_, "hold_slack plane size");
  sized(s.ep_worst_rf, ep_worst_rf_, "ep_worst_rf plane size");
  sized(s.aggregates[0], aggregates_[0], "setup aggregates corner count");
  sized(s.aggregates[1], aggregates_[1], "hold aggregates corner count");

  amu_ = s.amu;
  asig_ = s.asig;
  sp_mu_ = s.sp_mu;
  sp_sig_ = s.sp_sig;
  tk_arr_ = s.tk_arr;
  tk_mu_ = s.tk_mu;
  tk_sig_ = s.tk_sig;
  tk_sp_ = s.tk_sp;
  tk_cnt_ = s.tk_cnt;
  tk2_arr_ = s.tk2_arr;
  tk2_mu_ = s.tk2_mu;
  tk2_sig_ = s.tk2_sig;
  tk2_sp_ = s.tk2_sp;
  tk2_cnt_ = s.tk2_cnt;
  slack_ = s.slack;
  hold_slack_ = s.hold_slack;
  ep_worst_rf_ = s.ep_worst_rf;
  aggregates_ = s.aggregates;

  // The image replaced whatever was pending: drop any queued frontier state
  // so the engine is clean at the imported generation.
  const std::size_t num_levels = level_start_.size() - 1;
  for (CornerId c = 0; c < static_cast<CornerId>(C_); ++c) {
    const std::size_t poff = pin_off(c);
    for (std::size_t l = 0; l < num_levels; ++l) {
      std::vector<PinId>& fr =
          frontier_[static_cast<std::size_t>(c) * num_levels + l];
      for (const PinId pin : fr) {
        dirty_pin_[poff + static_cast<std::size_t>(pin)] = 0;
      }
      fr.clear();
    }
    dirty_eps_[static_cast<std::size_t>(c)].clear();
  }
  dirty_level_.assign(C_, std::numeric_limits<std::size_t>::max());
  full_dirty_ = false;
  generation_ = s.generation;
  // Every Top-K store may have changed: no backward weight survives, and
  // the generation-stamped merged caches must not survive either — the
  // imported generation number can collide with one this engine already
  // cached under different state (e.g. a replica that diverged and is
  // being resynced).
  invalidate_weights();
  merged_ = {};
  last_pass_ = SparseStats{};
}

template <bool kEarly>
void Engine::merge_pin_rf(PinId pin, int rf, CornerId corner,
                          const TopKView& dst, ForwardCounters& fc) {
  merge_pin_values<kEarly>(LiveValues(*this, corner), pin, rf, dst, fc);
}

void Engine::process_pin(PinId pin, CornerId corner, ForwardCounters& fc) {
  const auto k = static_cast<std::int32_t>(options_.top_k);
  const std::size_t tkoff = tk_off(corner);
  const std::size_t cntoff = cnt_off(corner);
  ++fc.pins;
  for (int rf = 0; rf < 2; ++rf) {
    const std::size_t base = tkoff + entry_base(pin, rf);
    std::int32_t& cnt = tk_cnt_[cntoff + cnt_index(pin, rf)];
    const TopKView view{&tk_arr_[base], &tk_mu_[base], &tk_sig_[base],
                        &tk_sp_[base], k, &cnt};
    merge_pin_rf<false>(pin, rf, corner, view, fc);
    INSTA_DCHECK(cnt <= k, "process_pin: Top-K count exceeds capacity");
    INSTA_DCHECK(cnt == 0 || std::isfinite(tk_arr_[base]),
                 "process_pin: non-finite worst arrival");
  }
}

void Engine::process_pin_early(PinId pin, CornerId corner,
                               ForwardCounters& fc) {
  const auto k = static_cast<std::int32_t>(options_.top_k);
  const std::size_t tkoff = tk_off(corner);
  const std::size_t cntoff = cnt_off(corner);
  ++fc.pins;
  for (int rf = 0; rf < 2; ++rf) {
    const std::size_t base = tkoff + entry_base(pin, rf);
    std::int32_t& cnt = tk2_cnt_[cntoff + cnt_index(pin, rf)];
    const TopKView view{&tk2_arr_[base], &tk2_mu_[base], &tk2_sig_[base],
                        &tk2_sp_[base], k, &cnt};
    merge_pin_rf<true>(pin, rf, corner, view, fc);
  }
}

bool Engine::reprocess_pin_sparse(PinId pin, CornerId corner,
                                  ForwardCounters& fc) {
  const auto k = static_cast<std::int32_t>(options_.top_k);
  const std::size_t tkoff = tk_off(corner);
  const std::size_t cntoff = cnt_off(corner);
  TopKScratch& sc = tls_scratch;
  sc.ensure(k);
  const TopKView scratch{sc.arr.data(), sc.mu.data(), sc.sig.data(),
                         sc.sp.data(), k, &sc.cnt};
  bool changed = false;

  ++fc.pins;
  for (int rf = 0; rf < 2; ++rf) {
    merge_pin_rf<false>(pin, rf, corner, scratch, fc);
    const std::size_t base = tkoff + entry_base(pin, rf);
    std::int32_t& cnt = tk_cnt_[cntoff + cnt_index(pin, rf)];
    const TopKView live{&tk_arr_[base], &tk_mu_[base], &tk_sig_[base],
                        &tk_sp_[base], k, &cnt};
    if (!topk_equal(scratch, live)) {
      topk_copy(live, scratch);
      changed = true;
    }
  }
  if (options_.enable_hold) {
    ++fc.pins;
    for (int rf = 0; rf < 2; ++rf) {
      merge_pin_rf<true>(pin, rf, corner, scratch, fc);
      const std::size_t base = tkoff + entry_base(pin, rf);
      std::int32_t& cnt = tk2_cnt_[cntoff + cnt_index(pin, rf)];
      const TopKView live{&tk2_arr_[base], &tk2_mu_[base], &tk2_sig_[base],
                          &tk2_sp_[base], k, &cnt};
      if (!topk_equal(scratch, live)) {
        topk_copy(live, scratch);
        changed = true;
      }
    }
  }
  return changed;
}

void Engine::mark_dirty(PinId pin, int lvl, CornerId corner) {
  if (lvl < 0) return;
  const std::size_t p = pin_off(corner) + static_cast<std::size_t>(pin);
  if (dirty_pin_[p] != 0) return;
  dirty_pin_[p] = 1;
  const std::size_t num_levels = level_start_.size() - 1;
  frontier_[static_cast<std::size_t>(corner) * num_levels +
            static_cast<std::size_t>(lvl)]
      .push_back(pin);
  auto& dl = dirty_level_[static_cast<std::size_t>(corner)];
  dl = std::min(dl, static_cast<std::size_t>(lvl));
}

void Engine::forward_from(std::size_t first_level) {
  INSTA_TRACE_SCOPE("engine.forward",
                    static_cast<std::int64_t>(first_level));
  EngineMetrics& em = engine_metrics();
  em.forward_passes.inc();
  auto& pool = util::ThreadPool::global();
  const std::size_t num_levels = level_start_.size() - 1;
  const auto threshold = static_cast<std::size_t>(options_.parallel_threshold);
  const auto grain = static_cast<std::size_t>(options_.parallel_grain);
  const auto C = static_cast<CornerId>(C_);
  // Level-synchronous independence invariant (Algorithm 1): a pin's fanin
  // sources must all sit at strictly lower levels, otherwise the parallel
  // per-level kernel below reads a Top-K store while another worker writes
  // it. Compiled out in release; the analysis::Linter checks the same
  // property ("level-inversion") as a reportable diagnostic.
#ifndef NDEBUG
  for (std::size_t s = 0; s < fi_from_.size(); ++s) {
    const PinId from = fi_from_[s];
    const timing::ArcId arc = fi_arc_[s];
    INSTA_DCHECK(graph_->level_of(from) <
                     graph_->level_of(graph_->arc(arc).to),
                 "forward_from: fanin arc does not climb levels");
  }
#endif
  for (std::size_t l = std::min(first_level, num_levels); l < num_levels; ++l) {
    INSTA_TRACE_SCOPE("engine.level", static_cast<std::int64_t>(l));
    em.levels.inc();
    const std::size_t lo = static_cast<std::size_t>(level_start_[l]);
    const std::size_t hi = static_cast<std::size_t>(level_start_[l + 1]);
    // One traversal amortizes across corners: each pin's CSR walk stays in
    // cache while all C corner planes merge through it.
    auto run = [&](std::size_t a, std::size_t b) {
      ForwardCounters fc;
      for (std::size_t i = a; i < b; ++i) {
        const PinId pin = level_pins_[i];
        for (CornerId c = 0; c < C; ++c) {
          process_pin(pin, c, fc);
          if (options_.enable_hold) process_pin_early(pin, c, fc);
        }
      }
      em.pins.add(fc.pins);
      em.arcs.add(fc.arcs);
      em.merges.add(fc.merges);
      em.prunes.add(fc.prunes);
    };
    if (options_.parallel && hi - lo >= threshold) {
      pool.parallel_for_chunks(lo, hi, run, grain);
    } else {
      run(lo, hi);
    }
  }
  const std::size_t num_eps = ep_pin_.size();
  INSTA_TRACE_SCOPE("engine.endpoints",
                    static_cast<std::int64_t>(num_eps));
  auto eval = [&](std::size_t a, std::size_t b) {
    std::uint64_t lookups = 0;
    for (std::size_t e = a; e < b; ++e) {
      for (CornerId c = 0; c < C; ++c) {
        lookups += evaluate_endpoint(static_cast<EndpointId>(e), c);
        if (options_.enable_hold) {
          lookups += evaluate_endpoint_hold(static_cast<EndpointId>(e), c);
        }
      }
    }
    em.endpoints.add((b - a) * C_);
    em.cppr_lookups.add(lookups);
  };
  if (options_.parallel && num_eps >= threshold) {
    pool.parallel_for_chunks(0, num_eps, eval,
                             static_cast<std::size_t>(options_.endpoint_grain));
  } else {
    eval(0, num_eps);
  }

  // Everything is now fresh: drop any queued frontier state in every corner
  // and rebuild the delta-maintained aggregates from scratch, so a full
  // pass always resets accumulated floating-point drift exactly.
  for (CornerId c = 0; c < C; ++c) {
    const std::size_t poff = pin_off(c);
    for (std::size_t l = 0; l < num_levels; ++l) {
      std::vector<PinId>& fr =
          frontier_[static_cast<std::size_t>(c) * num_levels + l];
      for (const PinId pin : fr) {
        dirty_pin_[poff + static_cast<std::size_t>(pin)] = 0;
      }
      fr.clear();
    }
    dirty_eps_[static_cast<std::size_t>(c)].clear();
  }
  dirty_level_.assign(C_, std::numeric_limits<std::size_t>::max());
  full_dirty_ = false;
  // A dense sweep rewrites every Top-K store: no backward weight survives.
  invalidate_weights();
  recompute_aggregates();
  last_pass_ = SparseStats{};
  last_pass_.sparse = false;
  last_pass_.levels_touched =
      (num_levels - std::min(first_level, num_levels)) * C_;
  last_pass_.frontier_pins = level_pins_.size() * C_;
  last_pass_.endpoints_evaluated = num_eps * C_;
}

void Engine::run_forward_sparse() {
  EngineMetrics& em = engine_metrics();
  em.incremental_passes.inc();
  last_pass_ = SparseStats{};
  last_pass_.sparse = true;
  // Corners run back-to-back over fully independent frontier state: each
  // corner's walk is then exactly the operation sequence of an independent
  // single-corner engine, which keeps the order-sensitive double-precision
  // TNS delta folds bit-identical to C separate engines. The thread-local
  // scratch and changed_flags_ are safely shared because corners are
  // serial with respect to each other.
  for (CornerId c = 0; c < static_cast<CornerId>(C_); ++c) {
    run_forward_sparse_corner(c);
  }
}

void Engine::run_forward_sparse_corner(CornerId corner) {
  INSTA_TRACE_SCOPE("engine.forward_sparse",
                    static_cast<std::int64_t>(corner));
  EngineMetrics& em = engine_metrics();
  auto& pool = util::ThreadPool::global();
  const std::size_t num_levels = level_start_.size() - 1;
  const auto threshold = static_cast<std::size_t>(options_.parallel_threshold);
  const auto grain = static_cast<std::size_t>(options_.parallel_grain);
  const std::size_t cc = static_cast<std::size_t>(corner);
  const std::size_t poff = pin_off(corner);
  const std::size_t eoff = ep_off(corner);
  std::vector<EndpointId>& deps = dirty_eps_[cc];
  deps.clear();

  for (std::size_t l = std::min(dirty_level_[cc], num_levels); l < num_levels;
       ++l) {
    std::vector<PinId>& fr = frontier_[cc * num_levels + l];
    if (fr.empty()) continue;
    INSTA_TRACE_SCOPE("engine.sparse_level",
                      static_cast<std::int64_t>(fr.size()));
    em.levels.inc();
    ++last_pass_.levels_touched;

    // Phase 1 (parallel): re-merge every dirty pin of this level into
    // thread-local scratch, committing only changed stores. Each chunk
    // writes a disjoint changed_flags_ range; no shared mutable state.
    changed_flags_.assign(fr.size(), 0);
    auto run = [&](std::size_t a, std::size_t b) {
      ForwardCounters fc;
      for (std::size_t i = a; i < b; ++i) {
        changed_flags_[i] = reprocess_pin_sparse(fr[i], corner, fc) ? 1 : 0;
      }
      em.pins.add(fc.pins);
      em.arcs.add(fc.arcs);
      em.merges.add(fc.merges);
      em.prunes.add(fc.prunes);
    };
    if (options_.parallel && fr.size() >= threshold) {
      pool.parallel_for_chunks(std::size_t{0}, fr.size(), run, grain);
    } else {
      run(0, fr.size());
    }

    // Phase 2 (serial scatter): a changed pin dirties its fanout (always at
    // strictly deeper levels) and queues its endpoint; an unchanged pin
    // terminates the ripple here. Serial keeps the frontier order
    // deterministic and the dirty flags race-free.
    std::uint64_t early = 0;
    for (std::size_t i = 0; i < fr.size(); ++i) {
      const auto p = static_cast<std::size_t>(fr[i]);
      dirty_pin_[poff + p] = 0;
      // Every frontier pin's backward weights are suspect: it was queued
      // either by an arc annotation (its fanin delays changed) or by a
      // parent whose Top-K store changed (its candidate inputs changed).
      mark_weights_stale(fr[i], corner);
      if (changed_flags_[i] == 0) {
        ++early;
        continue;
      }
      if (ep_of_pin_[p] >= 0) {
        deps.push_back(static_cast<EndpointId>(ep_of_pin_[p]));
      }
      const std::int32_t os = fo_start_[p];
      const std::int32_t oe = fo_start_[p + 1];
      for (std::int32_t o = os; o < oe; ++o) {
        const PinId child = fo_to_[static_cast<std::size_t>(o)];
        if (dirty_pin_[poff + static_cast<std::size_t>(child)] != 0) continue;
        mark_dirty(child, graph_->level_of(child), corner);
      }
    }
    last_pass_.frontier_pins += fr.size();
    last_pass_.early_terminations += early;
    em.frontier_pins.add(fr.size());
    em.early_terminations.add(early);
    fr.clear();
  }
  dirty_level_[cc] = std::numeric_limits<std::size_t>::max();

  // Phase 3: delta endpoint evaluation — only the endpoints this corner's
  // frontier actually reached. Old slacks are snapshotted so the change can
  // be folded into the corner's Aggregates.
  const std::size_t nd = deps.size();
  const std::size_t num_eps = ep_pin_.size();
  INSTA_TRACE_SCOPE("engine.sparse_endpoints",
                    static_cast<std::int64_t>(nd));
  if (nd != 0) {
    old_slack_scratch_.resize(nd);
    if (options_.enable_hold) old_hold_scratch_.resize(nd);
    for (std::size_t i = 0; i < nd; ++i) {
      const auto e = static_cast<std::size_t>(deps[i]);
      old_slack_scratch_[i] = slack_[eoff + e];
      if (options_.enable_hold) old_hold_scratch_[i] = hold_slack_[eoff + e];
    }
    auto eval = [&](std::size_t a, std::size_t b) {
      std::uint64_t lookups = 0;
      for (std::size_t i = a; i < b; ++i) {
        lookups += evaluate_endpoint(deps[i], corner);
        if (options_.enable_hold) {
          lookups += evaluate_endpoint_hold(deps[i], corner);
        }
      }
      em.endpoints.add(b - a);
      em.cppr_lookups.add(lookups);
    };
    if (options_.parallel && nd >= threshold) {
      pool.parallel_for_chunks(
          std::size_t{0}, nd, eval,
          static_cast<std::size_t>(options_.endpoint_grain));
    } else {
      eval(0, nd);
    }
    Aggregates& setup = aggregates(Mode::kSetup, corner);
    Aggregates& hold = aggregates(Mode::kHold, corner);
    for (std::size_t i = 0; i < nd; ++i) {
      const auto e = static_cast<std::size_t>(deps[i]);
      setup.apply(old_slack_scratch_[i], slack_[eoff + e]);
      if (options_.enable_hold) {
        hold.apply(old_hold_scratch_[i], hold_slack_[eoff + e]);
      }
    }
  }
  deps.clear();
  last_pass_.endpoints_evaluated += nd;
  last_pass_.endpoints_skipped += num_eps - nd;
  em.endpoints_skipped.add(num_eps - nd);
}

void Engine::run_forward() {
  forward_from(0);
  ++generation_;
}

void Engine::run_forward_incremental() {
  if (full_dirty_) {
    forward_from(0);
  } else {
    run_forward_sparse();
  }
  ++generation_;
}

float Engine::credit(std::int32_t a, std::int32_t b) const {
  if (a < 0 || b < 0) return 0.0f;
  while (ck_depth_[static_cast<std::size_t>(a)] >
         ck_depth_[static_cast<std::size_t>(b)]) {
    a = ck_parent_[static_cast<std::size_t>(a)];
  }
  while (ck_depth_[static_cast<std::size_t>(b)] >
         ck_depth_[static_cast<std::size_t>(a)]) {
    b = ck_parent_[static_cast<std::size_t>(b)];
  }
  while (a != b) {
    a = ck_parent_[static_cast<std::size_t>(a)];
    b = ck_parent_[static_cast<std::size_t>(b)];
    // Nodes of distinct clock trees climb past their roots without meeting:
    // no common path, zero credit (matches ClockAnalysis::credit).
    if (a < 0 || b < 0) return 0.0f;
  }
  return 2.0f * nsigma_ * std::sqrt(ck_sig2_[static_cast<std::size_t>(a)]);
}

std::uint64_t Engine::evaluate_endpoint(EndpointId ep, CornerId corner) {
  const SetupEval ev =
      evaluate_endpoint_values(LiveValues(*this, corner), ep);
  const std::size_t e = ep_off(corner) + static_cast<std::size_t>(ep);
  slack_[e] = ev.slack;
  ep_worst_rf_[e] = ev.worst_rf;
  return ev.lookups;
}

std::uint64_t Engine::evaluate_endpoint_hold(EndpointId ep, CornerId corner) {
  const HoldEval ev =
      evaluate_endpoint_hold_values(LiveValues(*this, corner), ep);
  hold_slack_[ep_off(corner) + static_cast<std::size_t>(ep)] = ev.slack;
  return ev.lookups;
}

void Engine::recompute_aggregates() {
  const std::size_t num_eps = ep_pin_.size();
  for (const Mode mode : {Mode::kSetup, Mode::kHold}) {
    std::vector<Aggregates>& row = aggregates_[static_cast<std::size_t>(mode)];
    row.assign(C_, Aggregates{});
    if (mode == Mode::kHold && hold_slack_.empty()) continue;
    for (CornerId c = 0; c < static_cast<CornerId>(C_); ++c) {
      const float* plane = slack_plane(mode, c);
      row[static_cast<std::size_t>(c)] = Aggregates::scan(
          num_eps, [plane](std::size_t e) { return plane[e]; });
    }
  }
}

SlackSummary Engine::summary(Mode mode, CornerId corner) const {
  check(corner >= 0 && static_cast<std::size_t>(corner) < C_,
        "Engine::summary: corner id " + std::to_string(corner) +
            " out of range [0, " + std::to_string(C_) + ")");
  check(mode == Mode::kSetup || options_.enable_hold,
        "Engine::summary(Mode::kHold): engine was built without enable_hold");
  Aggregates& a = aggregates(mode, corner);
  if (a.valid == 0) {
    const float* plane = slack_plane(mode, corner);
    a.rescan(ep_pin_.size(), [plane](std::size_t e) { return plane[e]; });
  }
  return a.summary();
}

SlackSummary Engine::merged_summary(Mode mode) const {
  check(mode == Mode::kSetup || options_.enable_hold,
        "Engine::merged_summary(Mode::kHold): engine was built without "
        "enable_hold");
  MergedCache& cache = merged_[static_cast<std::size_t>(mode)];
  if (cache.generation == generation_) return cache.summary;
  if (C_ == 1) {
    cache.summary = summary(mode, 0);
  } else {
    // Deterministic endpoint-major scan: the merged slack of an endpoint is
    // its worst finite slack over every corner (a corner where the endpoint
    // is unconstrained contributes nothing; +inf when none constrains it).
    const float* base = slack_plane(mode, 0);
    const std::size_t num_eps = ep_pin_.size();
    cache.summary =
        Aggregates::scan(num_eps,
                         [this, base, num_eps](std::size_t e) {
                           float m = kInf;
                           for (std::size_t c = 0; c < C_; ++c) {
                             const float s = base[c * num_eps + e];
                             if (std::isfinite(s) && s < m) m = s;
                           }
                           return m;
                         })
            .summary();
  }
  cache.generation = generation_;
  return cache.summary;
}

void Engine::compute_weights_pin(std::size_t p, float tau, CornerId corner) {
  const std::int32_t fs = fi_start_[p];
  const std::int32_t fe = fi_start_[p + 1];
  if (fs == fe) return;
  const std::int32_t n = fe - fs;
  const std::size_t soff = slot_off(corner);
  for (int rf = 0; rf < 2; ++rf) {
    const auto rfi = static_cast<std::size_t>(rf);
    const float* cand = bw_cand_[rfi].data() + soff + fs;
    float* w = w_[rfi].data() + soff + fs;
    // libm exp and a strictly sequential denominator in slot order. Empty
    // parents carry cand = -inf, so exp contributes exactly +0.0f to the
    // sum and the stored weight, matching a zero-filled skip.
    float m = -kInf;
    for (std::int32_t i = 0; i < n; ++i) m = std::max(m, cand[i]);
    if (!std::isfinite(m)) {
      std::fill(w, w + n, 0.0f);
      continue;
    }
    float denom = 0.0f;
    for (std::int32_t i = 0; i < n; ++i) {
      const float e = std::exp((cand[i] - m) / tau);
      w[i] = e;
      denom += e;
    }
    if (denom <= 0.0f) continue;
    const float inv = 1.0f / denom;
    for (std::int32_t i = 0; i < n; ++i) w[i] *= inv;
  }
}

void Engine::mark_weights_stale(PinId pin, CornerId corner) {
  if (!w_tracking_) return;
  const std::size_t p = pin_off(corner) + static_cast<std::size_t>(pin);
  if (w_stale_[p] != 0) return;
  w_stale_[p] = 1;
  w_stale_pins_[static_cast<std::size_t>(corner)].push_back(pin);
}

void Engine::invalidate_weights() {
  w_tracking_ = false;
  for (std::size_t c = 0; c < C_; ++c) {
    const std::size_t poff = pin_off(static_cast<CornerId>(c));
    for (const PinId pin : w_stale_pins_[c]) {
      w_stale_[poff + static_cast<std::size_t>(pin)] = 0;
    }
    w_stale_pins_[c].clear();
  }
}

void Engine::run_backward(GradientMetric metric) {
  INSTA_TRACE_SCOPE("engine.backward");
  engine_metrics().backward_passes.inc();
  auto& pool = util::ThreadPool::global();
  std::fill(pin_grad_.begin(), pin_grad_.end(), 0.0f);
  std::fill(slot_grad_.begin(), slot_grad_.end(), 0.0f);
  std::fill(arc_grad_.begin(), arc_grad_.end(), 0.0f);
  const float tau = std::max(options_.tau, 1e-4f);
  const auto slots = static_cast<std::int32_t>(num_slots_);
  const auto C = static_cast<CornerId>(C_);
  const std::size_t num_eps = ep_pin_.size();

  // Phase 1: Eq. 6 softmax weights of every merge in every corner, from the
  // parents' top-1 arrivals. Weights depend only on parent top-1 entries
  // and fanin arc delays, both of which each corner's sparse-forward
  // frontier tracks — so after an incremental forward pass only that
  // corner's frontier pins' weights are recomputed and clean cones keep
  // their previous (identical) bytes. A pending annotation (timing not
  // clean) falls back to full recompute: its frontier has not run yet, so
  // the stale sets are not trustworthy.
  const bool reuse = w_tracking_ && timing_clean();
  last_backward_ = BackwardStats{};
  {
    INSTA_TRACE_SCOPE("engine.backward.weights");
    if (!reuse) {
      // One candidate pass over each corner's whole slot plane, then
      // per-pin softmax (each pin owns its fanin slot range; fully
      // parallel). The gather table slot_ci_ is corner-relative; the base
      // pointers carry the corner offsets.
      for (CornerId c = 0; c < C; ++c) {
        const std::size_t soff = slot_off(c);
        for (const int rf : {0, 1}) {
          const auto rfi = static_cast<std::size_t>(rf);
          backward_cand(tk_mu_.data() + tk_off(c), tk_sig_.data() + tk_off(c),
                        tk_cnt_.data() + cnt_off(c), slot_ci_[rfi].data(),
                        static_cast<std::int32_t>(tk_stride_),
                        amu_[rfi].data() + soff, asig_[rfi].data() + soff,
                        slots, nsigma_, bw_cand_[rfi].data() + soff);
        }
        auto weights = [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            compute_weights_pin(static_cast<std::size_t>(level_pins_[i]), tau,
                                c);
          }
        };
        if (options_.parallel) {
          pool.parallel_for_chunks(0, level_pins_.size(), weights, 512);
        } else {
          weights(0, level_pins_.size());
        }
      }
      last_backward_.weight_pins_recomputed = level_pins_.size() * C_;
      for (std::size_t c = 0; c < C_; ++c) {
        const std::size_t poff = pin_off(static_cast<CornerId>(c));
        for (const PinId pin : w_stale_pins_[c]) {
          w_stale_[poff + static_cast<std::size_t>(pin)] = 0;
        }
        w_stale_pins_[c].clear();
      }
      w_tracking_ = true;
    } else {
      for (CornerId c = 0; c < C; ++c) {
        const std::size_t cc = static_cast<std::size_t>(c);
        const std::size_t soff = slot_off(c);
        std::vector<PinId>& stale = w_stale_pins_[cc];
        auto sparse_weights = [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const auto p = static_cast<std::size_t>(stale[i]);
            const std::int32_t fs = fi_start_[p];
            const std::int32_t fe = fi_start_[p + 1];
            if (fs != fe) {
              for (const int rf : {0, 1}) {
                const auto rfi = static_cast<std::size_t>(rf);
                backward_cand(tk_mu_.data() + tk_off(c),
                              tk_sig_.data() + tk_off(c),
                              tk_cnt_.data() + cnt_off(c),
                              slot_ci_[rfi].data() + fs,
                              static_cast<std::int32_t>(tk_stride_),
                              amu_[rfi].data() + soff + fs,
                              asig_[rfi].data() + soff + fs, fe - fs, nsigma_,
                              bw_cand_[rfi].data() + soff + fs);
              }
              compute_weights_pin(p, tau, c);
            }
          }
        };
        const std::size_t ns = stale.size();
        if (options_.parallel &&
            ns >= static_cast<std::size_t>(options_.parallel_threshold)) {
          pool.parallel_for_chunks(std::size_t{0}, ns, sparse_weights,
                                   static_cast<std::size_t>(
                                       options_.parallel_grain));
        } else {
          sparse_weights(0, ns);
        }
        last_backward_.weight_pins_recomputed += ns;
        last_backward_.weight_pins_reused += level_pins_.size() - ns;
        const std::size_t poff = pin_off(c);
        for (const PinId pin : stale) {
          w_stale_[poff + static_cast<std::size_t>(pin)] = 0;
        }
        stale.clear();
      }
      last_backward_.weights_reused = true;
    }
    EngineMetrics& em = engine_metrics();
    em.bw_weight_pins_recomputed.add(last_backward_.weight_pins_recomputed);
    em.bw_weight_pins_reused.add(last_backward_.weight_pins_reused);
  }

  for (CornerId c = 0; c < C; ++c) {
    const std::size_t eoff = ep_off(c);
    const std::size_t poff2 = pin_off(c) * 2;
    const std::size_t soff = slot_off(c);

    // Phase 2: endpoint seeds of d(-metric_c)/d(arrival) from this corner's
    // slack plane. Each corner's kWns softmin is over its own slacks.
    if (metric == GradientMetric::kTns) {
      for (std::size_t e = 0; e < num_eps; ++e) {
        const float s = slack_[eoff + e];
        if (!std::isfinite(s) || s >= 0.0f) continue;
        pin_grad_[poff2 + static_cast<std::size_t>(ep_pin_[e]) * 2 +
                  ep_worst_rf_[eoff + e]] += 1.0f;
      }
    } else {
      float smin = 0.0f;
      bool any = false;
      for (std::size_t e = 0; e < num_eps; ++e) {
        const float s = slack_[eoff + e];
        if (std::isfinite(s) && s < 0.0f && (!any || s < smin)) {
          smin = s;
          any = true;
        }
      }
      if (any) {
        const float wtau = std::max(options_.wns_tau, 1e-4f);
        double denom = 0.0;
        for (std::size_t e = 0; e < num_eps; ++e) {
          const float s = slack_[eoff + e];
          if (std::isfinite(s) && s < 0.0f) {
            denom += std::exp(static_cast<double>((smin - s) / wtau));
          }
        }
        for (std::size_t e = 0; e < num_eps; ++e) {
          const float s = slack_[eoff + e];
          if (!std::isfinite(s) || s >= 0.0f) continue;
          const float seed = static_cast<float>(
              std::exp(static_cast<double>((smin - s) / wtau)) / denom);
          pin_grad_[poff2 + static_cast<std::size_t>(ep_pin_[e]) * 2 +
                    ep_worst_rf_[eoff + e]] += seed;
        }
      }
    }

    // Phase 3: reverse level-synchronous pull. Each pin gathers the
    // weighted gradients of its fanout (already-final deeper levels) into
    // itself and into the fanout arcs it owns.
    INSTA_TRACE_SCOPE("engine.backward.pull");
    const std::size_t num_levels = level_start_.size() - 1;
    for (std::size_t l = num_levels; l-- > 0;) {
      const std::size_t lo = static_cast<std::size_t>(level_start_[l]);
      const std::size_t hi = static_cast<std::size_t>(level_start_[l + 1]);
      auto pull = [&](std::size_t a, std::size_t b) {
        for (std::size_t i = a; i < b; ++i) {
          const auto p = static_cast<std::size_t>(level_pins_[i]);
          const std::int32_t os = fo_start_[p];
          const std::int32_t oe = fo_start_[p + 1];
          for (std::int32_t o = os; o < oe; ++o) {
            const auto slot = static_cast<std::size_t>(fo_slot_[o]);
            const auto to =
                static_cast<std::size_t>(fo_to_[static_cast<std::size_t>(o)]);
            for (int crf = 0; crf < 2; ++crf) {
              const float wv =
                  w_[static_cast<std::size_t>(crf)][soff + slot];
              if (wv == 0.0f) continue;
              const float g =
                  pin_grad_[poff2 + to * 2 + static_cast<std::size_t>(crf)];
              if (g == 0.0f) continue;
              const float contrib = wv * g;
              const int prf = crf ^ static_cast<int>(fi_neg_[slot]);
              pin_grad_[poff2 + p * 2 + static_cast<std::size_t>(prf)] +=
                  contrib;
              slot_grad_[soff + slot] += contrib;
            }
          }
        }
      };
      if (options_.parallel && hi - lo >= 512) {
        pool.parallel_for_chunks(lo, hi, pull, 256);
      } else {
        pull(lo, hi);
      }
    }

    // Phase 4: scatter slot gradients onto graph arc ids.
    const std::size_t aoff = arc_off(c);
    for (std::size_t s = 0; s < num_slots_; ++s) {
      arc_grad_[aoff + static_cast<std::size_t>(fi_arc_[s])] +=
          slot_grad_[soff + s];
    }
  }
}

float Engine::stage_gradient(netlist::CellId cell, CornerId corner) const {
  const std::size_t aoff = arc_off(corner);
  float g = 0.0f;
  const auto [cfirst, clast] = graph_->cell_arcs(cell);
  for (ArcId a = cfirst; a < clast; ++a) {
    g += arc_grad_[aoff + static_cast<std::size_t>(a)];
  }
  const netlist::LibCell& lc = graph_->design().libcell_of(cell);
  for (int i = 0; i < netlist::num_data_inputs(lc.func); ++i) {
    const PinId pin = graph_->design().input_pin(cell, i);
    for (const ArcId a : graph_->fanin(pin)) {
      g += arc_grad_[aoff + static_cast<std::size_t>(a)];
    }
  }
  return g;
}

std::vector<Engine::TopKEntry> Engine::arrivals(PinId pin, RiseFall rf,
                                                CornerId corner) const {
  const std::size_t base =
      tk_off(corner) + entry_base(pin, netlist::rf_index(rf));
  const std::int32_t cnt =
      tk_cnt_[cnt_off(corner) + cnt_index(pin, netlist::rf_index(rf))];
  std::vector<TopKEntry> out;
  out.reserve(static_cast<std::size_t>(cnt));
  for (std::int32_t k = 0; k < cnt; ++k) {
    TopKEntry e;
    e.arr = tk_arr_[base + static_cast<std::size_t>(k)];
    e.mu = tk_mu_[base + static_cast<std::size_t>(k)];
    e.sig = tk_sig_[base + static_cast<std::size_t>(k)];
    e.sp = tk_sp_[base + static_cast<std::size_t>(k)];
    out.push_back(e);
  }
  return out;
}

float Engine::worst_arrival(PinId pin, CornerId corner) const {
  float worst = -kInf;
  for (int rf = 0; rf < 2; ++rf) {
    if (tk_cnt_[cnt_off(corner) + cnt_index(pin, rf)] > 0) {
      worst = std::max(worst, tk_arr_[tk_off(corner) + entry_base(pin, rf)]);
    }
  }
  return worst;
}

std::size_t Engine::memory_bytes() const {
  std::size_t b = 0;
  b += tk_arr_.capacity() * sizeof(float) * 3;  // arr, mu, sig
  b += tk_sp_.capacity() * sizeof(std::int32_t);
  b += tk_cnt_.capacity() * sizeof(std::int32_t);
  b += tk2_arr_.capacity() * sizeof(float) * 3;
  b += tk2_sp_.capacity() * sizeof(std::int32_t);
  b += tk2_cnt_.capacity() * sizeof(std::int32_t);
  b += fi_from_.capacity() * sizeof(PinId);
  b += fi_neg_.capacity();
  b += fi_arc_.capacity() * sizeof(ArcId);
  b += (amu_[0].capacity() + amu_[1].capacity() + asig_[0].capacity() +
        asig_[1].capacity()) *
       sizeof(float);
  b += (fo_slot_.capacity() + fo_to_.capacity()) * sizeof(std::int32_t);
  b += (w_[0].capacity() + w_[1].capacity() + slot_grad_.capacity() +
        pin_grad_.capacity() + arc_grad_.capacity() + bw_cand_[0].capacity() +
        bw_cand_[1].capacity()) *
       sizeof(float);
  b += (fi_start_.capacity() + fo_start_.capacity() + slot_of_arc_.capacity() +
        sp_of_pin_.capacity() + launch_sp_of_arc_.capacity() +
        ep_of_pin_.capacity() + tk_pos_.capacity() + slot_ci_[0].capacity() +
        slot_ci_[1].capacity()) *
       sizeof(std::int32_t);
  b += (slack_.capacity() + hold_slack_.capacity()) * sizeof(float);
  b += ep_worst_rf_.capacity();
  b += dirty_pin_.capacity() + changed_flags_.capacity() + w_stale_.capacity();
  for (const auto& ws : w_stale_pins_) b += ws.capacity() * sizeof(PinId);
  for (const auto& fr : frontier_) b += fr.capacity() * sizeof(PinId);
  for (const auto& de : dirty_eps_) b += de.capacity() * sizeof(EndpointId);
  return b;
}

}  // namespace insta::core
