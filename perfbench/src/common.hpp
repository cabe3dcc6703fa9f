#pragma once

// Shared pieces of the end-to-end benchmark: run options, the result
// report every workload fills, sample statistics, /proc readers, and the
// span tracer the traced run records around calls into each layer.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gen/logic_block.hpp"
#include "io/design_io.hpp"
#include "ref/golden_sta.hpp"
#include "timing/delay_calc.hpp"
#include "timing/graph.hpp"
#include "util/rng.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< inputs, sockets and traced-run artifacts
  std::string cli;       ///< path of the insta_cli binary (serve_fleet)
  /// Measure one set-up and stop (run.py takes the median of several
  /// set-ups, each in a fresh process, as a cold start is what users see).
  bool setup_only = false;
};

/// Monotonic time in seconds since an arbitrary origin.
double now_sec();

/// Sample statistics (linear interpolation between order statistics, the
/// numpy default). Empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Fields of /proc/<pid>/status ("VmHWM" in MB, "Threads" as a count);
/// pid 0 reads this process. Returns -1 when unreadable.
double proc_status_mb(int pid, const char* field);
long proc_threads(int pid);
std::string cpu_model();

/// Everything a workload reports. run.py turns it into the one-line result
/// and the per-run record.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Kind {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Metric> metrics;
  std::map<std::string, Kind> kinds;
  std::vector<std::string> failed_checks;
  std::vector<std::pair<std::string, std::string>> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  /// Records one correctness check; a failure is kept with its detail.
  void check(bool ok, const std::string& name, const std::string& detail = "");
  /// The five end-to-end metrics from the set-up time and op latencies.
  void end_to_end(double setup_s, double peak_rss_mb,
                  const std::vector<double>& op_ms, double timed_s);
};

// ---- tracing ----------------------------------------------------------------

/// In-memory span recorder of the traced run. Spans are taken only in the
/// benchmark's own code, around calls into the program's public functions;
/// nothing is written until the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;  ///< seconds, now_sec() clock
    double end;
    int parent;    ///< index into spans(), -1 for a root
    int tid;
  };

  static Tracer& get();
  void enable() { enabled_ = true; }
  /// Stops recording (verification work is not part of any layer metric).
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  int begin(const char* name);
  void end(int idx);
  /// Records an interval measured elsewhere (a server-side part of a
  /// request, taken from its reply) as a child of span `parent`.
  int add(const char* name, double start, double end, int parent);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Writes Chrome trace_event JSON ("X" events, one lane per thread).
  void write_chrome(const std::string& path) const;
  /// Per-name count/total/self time table, plus the reconciliation of each
  /// `op_name` span against the sum of its direct children. Returns the
  /// median children/op coverage ratio.
  double write_tables(const std::string& path, const std::string& op_name,
                      const std::string& workload) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op unless the tracer is enabled.
class Scope {
 public:
  explicit Scope(const char* name)
      : idx_(Tracer::get().enabled() ? Tracer::get().begin(name) : -1) {}
  ~Scope() {
    if (idx_ >= 0) Tracer::get().end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const { return idx_; }

 private:
  int idx_;
};

// ---- inputs and set-up ------------------------------------------------------

/// Design file of the run under work_dir: the preset's netlist, its clock
/// period tuned so that about `violate` of the endpoints fail setup, and
/// then half of its "movable" cells, chosen by the seed, moved to another
/// drive strength. A movable cell lies outside the fanin cone of every
/// timing-sensitive endpoint, and so do the cells driving it; resizing it
/// moves no sensitive slack. Every seed thus presents the same critical
/// structure with different non-critical logic: the op sequences of the
/// workloads (and so their latency percentiles) repeat across seeds, while
/// the inputs differ. Written with io::save_design_file on first use of a
/// seed and reused afterwards; never timed.
std::string ensure_design(const Options& opt, const insta::gen::LogicBlockSpec& spec,
                          double violate);

/// A combinational, non-clock cell with at least two drive strengths.
bool resizable(const insta::netlist::Design& d, const insta::timing::TimingGraph& g,
               insta::netlist::CellId cell);

/// A random drive strength of `cell`'s family other than its current one.
insta::netlist::LibCellId other_size(const insta::netlist::Design& d,
                                     insta::netlist::CellId cell, insta::util::Rng& rng);

/// A design opened the way every library caller opens it: loaded, graph
/// built, delays calculated, golden reference updated. The golden uses the
/// CPPR-safe pruning window max_credit * 1.5 + 10 ps unless `exact_window`
/// (the insta_cli serve default: unpruned).
struct Prepared {
  insta::io::LoadedDesign loaded;
  std::unique_ptr<insta::timing::TimingGraph> graph;
  std::unique_ptr<insta::timing::DelayCalculator> calc;
  insta::timing::ArcDelays delays;
  std::unique_ptr<insta::ref::GoldenSta> sta;
};
std::unique_ptr<Prepared> prepare(const std::string& path, bool hold,
                                  bool exact_window = false);

// ---- workloads --------------------------------------------------------------

void run_eco_sizing(const Options& opt, Report& rep);
void run_serve_fleet(const Options& opt, Report& rep);

}  // namespace perfbench
