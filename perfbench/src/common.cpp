#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common.hpp"
#include "gen/tune.hpp"
#include "telemetry/json.hpp"
#include "timing/clock.hpp"

namespace perfbench {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

std::string read_status(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

long status_field(int pid, const char* field) {
  const std::string s = read_status(pid);
  const std::string key = std::string("\n") + field + ":";
  const auto at = s.find(key);
  if (at == std::string::npos) return -1;
  return std::strtol(s.c_str() + at + key.size(), nullptr, 10);
}

}  // namespace

double proc_status_mb(int pid, const char* field) {
  const long kb = status_field(pid, field);
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

long proc_threads(int pid) { return status_field(pid, "Threads"); }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void Report::check(bool ok, const std::string& name,
                   const std::string& detail) {
  if (!ok) failed_checks.push_back(detail.empty() ? name : name + ": " + detail);
}

void Report::end_to_end(double setup_s, double peak_rss_mb,
                        const std::vector<double>& op_ms, double timed_s) {
  metric("setup_s", setup_s, "s");
  metric("peak_rss_mb", peak_rss_mb, "MB");
  metric("ops_per_s", static_cast<double>(op_ms.size()) / timed_s, "1/s");
  metric("op_p50_ms", quantile(op_ms, 0.5), "ms");
  metric("op_p90_ms", quantile(op_ms, 0.9), "ms");
  std::string q;
  for (int i = 0; i <= 10; ++i) {
    if (i) q += ',';
    q += std::to_string(quantile(op_ms, i / 10.0));
  }
  note("op_ms_deciles", q);
  note("timed_ops", std::to_string(op_ms.size()));
  note("timed_s", std::to_string(timed_s));
}

// ---- inputs and set-up ------------------------------------------------------

bool resizable(const insta::netlist::Design& d, const insta::timing::TimingGraph& g,
               insta::netlist::CellId cell) {
  const auto& lc = d.libcell_of(cell);
  if (insta::netlist::is_sequential(lc.func) || !insta::netlist::has_output(lc.func) ||
      insta::netlist::num_data_inputs(lc.func) == 0 || g.is_clock_cell(cell)) {
    return false;
  }
  return d.library().family(lc.func).size() >= 2;
}

insta::netlist::LibCellId other_size(const insta::netlist::Design& d,
                                     insta::netlist::CellId cell, insta::util::Rng& rng) {
  const auto fam = d.library().family(d.libcell_of(cell).func);
  const auto cur = d.cell(cell).libcell;
  auto to = cur;
  while (to == cur) {
    to = fam[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(fam.size()) - 1))];
  }
  return to;
}

std::string ensure_design(const Options& opt, const insta::gen::LogicBlockSpec& spec,
                          double violate) {
  constexpr double kResizeShare = 0.5;
  const std::string path = opt.work_dir + "/" + opt.workload + "-" + spec.name +
                           "-" + std::to_string(opt.seed) + ".inet";
  if (std::ifstream(path).good()) return path;
  insta::gen::GeneratedDesign gd = insta::gen::build_logic_block(spec);
  auto& d = *gd.design;
  insta::timing::TimingGraph graph(d, gd.constraints.clock_root);
  insta::timing::DelayCalculator calc(d, graph);
  insta::timing::ArcDelays delays;
  calc.compute_all(delays);
  insta::gen::tune_clock_period(graph, gd.constraints, delays, violate);

  // Cells that reach no timing-sensitive endpoint: setup slack below
  // kSetupMargin or hold slack below kHoldMargin (shares of the period).
  // Every cell in the fanin cone of such an endpoint is excluded, so a
  // resize elsewhere (including its input-cap change on the driver, which
  // is then outside the cones too) moves no sensitive slack.
  constexpr double kSetupMargin = 0.25;
  constexpr double kHoldMargin = 0.1;
  std::vector<char> in_cone(d.num_cells(), 0);
  {
    const insta::timing::ClockAnalysis probe(graph, delays, gd.constraints.nsigma);
    insta::ref::GoldenOptions gopt;
    gopt.prune_window = probe.max_credit() * 1.5 + 10.0;
    gopt.enable_hold = true;
    insta::ref::GoldenSta sta(graph, gd.constraints, delays, gopt);
    sta.update_full();
    const double period = gd.constraints.clock_period;
    std::vector<char> seen(d.num_pins(), 0);
    std::vector<insta::netlist::PinId> stack;
    const auto eps = graph.endpoints();
    for (std::size_t e = 0; e < eps.size(); ++e) {
      const auto ep = static_cast<insta::timing::EndpointId>(e);
      if (!(sta.endpoint_slack(ep) < kSetupMargin * period) &&
          !(sta.hold_slack(ep) < kHoldMargin * period)) {
        continue;
      }
      stack.push_back(eps[e].pin);
      while (!stack.empty()) {
        const auto pin = stack.back();
        stack.pop_back();
        if (seen[static_cast<std::size_t>(pin)]) continue;
        seen[static_cast<std::size_t>(pin)] = 1;
        in_cone[static_cast<std::size_t>(d.pin(pin).cell)] = 1;
        for (const auto arc : graph.fanin(pin)) stack.push_back(graph.arc(arc).from);
      }
    }
  }
  // A resize also changes the load, and so the delay and slew, of the
  // cells driving the resized cell's inputs: those must be outside too.
  const auto movable = [&](insta::netlist::CellId cell) {
    if (in_cone[static_cast<std::size_t>(cell)] || !resizable(d, graph, cell)) return false;
    const auto [first, n] = d.pin_range(cell);
    for (int i = 0; i < n; ++i) {
      const auto& pin = d.pin(first + i);
      if (pin.dir != insta::netlist::PinDir::kInput || pin.net == insta::netlist::kNullNet) {
        continue;
      }
      const auto drv = d.net(pin.net).driver;
      if (drv != insta::netlist::kNullPin &&
          in_cone[static_cast<std::size_t>(d.pin(drv).cell)]) {
        return false;
      }
    }
    return true;
  };
  // The seed picks which of them change drive strength; the clock period
  // stays the one tuned above.
  insta::util::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t c = 0; c < d.num_cells(); ++c) {
    const auto cell = static_cast<insta::netlist::CellId>(c);
    if (movable(cell) && rng.chance(kResizeShare)) d.resize_cell(cell, other_size(d, cell, rng));
  }
  // Written under a temporary name and renamed, so an interrupted run never
  // leaves a truncated design behind for the next one.
  const std::string tmp = path + ".tmp";
  insta::io::save_design_file(*gd.design, gd.constraints, tmp);
  std::rename(tmp.c_str(), path.c_str());
  return path;
}

std::unique_ptr<Prepared> prepare(const std::string& path, bool hold,
                                  bool exact_window) {
  auto p = std::make_unique<Prepared>();
  {
    const Scope s("io.load");
    p->loaded = insta::io::load_design_file(path);
  }
  {
    const Scope s("timing.graph");
    p->graph = std::make_unique<insta::timing::TimingGraph>(
        *p->loaded.design, p->loaded.constraints.clock_root);
  }
  {
    const Scope s("timing.delay_calc");
    p->calc = std::make_unique<insta::timing::DelayCalculator>(
        *p->loaded.design, *p->graph);
    p->calc->compute_all(p->delays);
  }
  {
    const Scope s("ref.golden");
    insta::ref::GoldenOptions gopt;
    gopt.enable_hold = hold;
    if (!exact_window) {
      const insta::timing::ClockAnalysis probe(*p->graph, p->delays,
                                               p->loaded.constraints.nsigma);
      gopt.prune_window = probe.max_credit() * 1.5 + 10.0;
    }
    p->sta = std::make_unique<insta::ref::GoldenSta>(
        *p->graph, p->loaded.constraints, p->delays, gopt);
    p->sta->update_full();
  }
  return p;
}

// ---- tracer -----------------------------------------------------------------

namespace {
std::atomic<int> g_next_tid{1};
thread_local int t_tid = 0;
thread_local std::vector<int> t_stack;

int this_tid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}
}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

int Tracer::begin(const char* name) {
  const int parent = t_stack.empty() ? -1 : t_stack.back();
  const int tid = this_tid();
  const double t0 = now_sec();
  int idx = 0;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    idx = static_cast<int>(spans_.size());
    spans_.push_back({name, t0, t0, parent, tid});
  }
  t_stack.push_back(idx);
  return idx;
}

void Tracer::end(int idx) {
  const double t1 = now_sec();
  t_stack.pop_back();
  const std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(idx)].end = t1;
}

int Tracer::add(const char* name, double start, double end, int parent) {
  const std::lock_guard<std::mutex> lk(mu_);
  const int tid = spans_[static_cast<std::size_t>(parent)].tid;
  spans_.push_back({name, start, end, parent, tid});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans()) {
    if (name == s.name) out.push_back((s.end - s.start) * 1e3);
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::vector<Span> sp = spans();
  if (sp.empty()) return;
  double origin = sp.front().start;
  for (const Span& s : sp) origin = std::min(origin, s.start);
  std::vector<std::size_t> order(sp.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Within a lane, X events must appear in start order; a parent sorts
  // before a child that starts on the same microsecond.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (sp[a].tid != sp[b].tid) return sp[a].tid < sp[b].tid;
    return sp[a].start < sp[b].start;
  });
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const std::size_t i : order) {
    const Span& s = sp[i];
    const double ts = (s.start - origin) * 1e6;
    const double dur = std::max(0.0, (s.end - s.start) * 1e6);
    out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << insta::telemetry::json_number(ts)
        << ", \"dur\": " << insta::telemetry::json_number(dur)
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << "}}";
    first = false;
  }
  out << "\n]}\n";
}

double Tracer::write_tables(const std::string& path, const std::string& op_name,
                            const std::string& workload) const {
  const std::vector<Span> sp = spans();
  std::vector<double> child_sum(sp.size(), 0.0);
  for (const Span& s : sp) {
    if (s.parent >= 0) {
      child_sum[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> coverage;
  double op_total = 0.0;
  double op_children = 0.0;
  for (std::size_t i = 0; i < sp.size(); ++i) {
    const double d = sp[i].end - sp[i].start;
    Row& r = rows[sp[i].name];
    ++r.count;
    r.total += d;
    r.self += d - child_sum[i];
    if (op_name == sp[i].name && d > 0.0) {
      coverage.push_back(child_sum[i] / d);
      op_total += d;
      op_children += child_sum[i];
    }
  }
  std::ofstream out(path);
  out << "# per-layer self time, workload " << workload << "\n";
  out << "span\tcount\ttotal_ms\tself_ms\tself_share_of_ops\n";
  for (const auto& [name, r] : rows) {
    char line[256];
    std::snprintf(line, sizeof(line), "%s\t%zu\t%.3f\t%.3f\t%.4f\n",
                  name.c_str(), r.count, r.total * 1e3, r.self * 1e3,
                  op_total > 0.0 ? r.self / op_total : 0.0);
    out << line;
  }
  const double med = median(coverage);
  char line[256];
  std::snprintf(line, sizeof(line),
                "# reconciliation: %zu '%s' spans, layer calls cover %.4f of "
                "op time in total, median per op %.4f\n",
                coverage.size(), op_name.c_str(),
                op_total > 0.0 ? op_children / op_total : 0.0, med);
  out << line;
  return med;
}

}  // namespace perfbench
