// perfbench: one end-to-end benchmark run of a named workload.
//
//   perfbench --workload eco_sizing|serve_fleet --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--cli insta_cli]
//             [--setup-only 1]
//
// Prints one JSON object as its last stdout line: correct, attempted,
// failed, metrics (name -> {value, unit}) and a "record" object with the
// per-kind operation counts, failed checks and run provenance. Exits 1 when
// a correctness check fails (the failed checks are named on stderr).
// perfbench/run.py builds this binary and is the command users run.

#include <sys/stat.h>

#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "telemetry/json.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using insta::telemetry::json_escape;
using insta::telemetry::json_number;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload eco_sizing|serve_fleet "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--cli PATH] "
               "[--setup-only 1]\n");
  return 2;
}

std::string to_json(const perfbench::Options& opt, const perfbench::Report& rep) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [k, v] : rep.kinds) {
    attempted += v.attempted;
    failed += v.failed;
  }
  std::string s = "{\"correct\": ";
  s += rep.failed_checks.empty() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted) +
       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    s += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
         json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}, \"record\": {\"workload\": \"" + opt.workload +
       "\", \"seed\": " + std::to_string(opt.seed) +
       ", \"trace\": " + (opt.trace ? "1" : "0") + ", \"kinds\": {";
  bool first = true;
  for (const auto& [k, v] : rep.kinds) {
    s += (first ? "" : ", ") + std::string("\"") + k +
         "\": {\"attempted\": " + std::to_string(v.attempted) +
         ", \"failed\": " + std::to_string(v.failed) + "}";
    first = false;
  }
  s += "}, \"failed_checks\": [";
  for (std::size_t i = 0; i < rep.failed_checks.size(); ++i) {
    s += (i ? ", \"" : "\"") + json_escape(rep.failed_checks[i]) + "\"";
  }
  s += "], \"info\": {";
  for (std::size_t i = 0; i < rep.info.size(); ++i) {
    s += (i ? ", \"" : "\"") + json_escape(rep.info[i].first) + "\": \"" +
         json_escape(rep.info[i].second) + "\"";
  }
  return s + "}}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::stoull(v);
    else if (k == "--seconds") opt.seconds = std::stod(v);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--work-dir") opt.work_dir = v;
    else if (k == "--cli") opt.cli = v;
    else if (k == "--setup-only") opt.setup_only = v == "1";
    else return usage();
  }
  if (opt.work_dir.empty() || opt.seconds <= 0.0) return usage();
  ::mkdir(opt.work_dir.c_str(), 0755);
  if (opt.trace) perfbench::Tracer::get().enable();

  perfbench::Report rep;
  rep.note("cpu_model", perfbench::cpu_model());
  rep.note("hardware_threads",
           std::to_string(std::thread::hardware_concurrency()));
  rep.note("pool_workers",
           std::to_string(insta::util::ThreadPool::global().size()));
  rep.note("kernel_flavor",
           insta::util::simd::resolve(insta::util::simd::SimdMode::kAuto)
               ? "avx2"
               : "scalar");
  try {
    if (opt.workload == "eco_sizing") {
      perfbench::run_eco_sizing(opt, rep);
    } else if (opt.workload == "serve_fleet") {
      perfbench::run_serve_fleet(opt, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  rep.note("benchmark_threads", std::to_string(perfbench::proc_threads(0)));
  // Every workload is built so that no operation fails; one that does is a
  // fault of the program, whatever the other checks say.
  std::uint64_t failed_ops = 0;
  for (const auto& [k, v] : rep.kinds) failed_ops += v.failed;
  rep.check(failed_ops == 0, "no operation failed",
            std::to_string(failed_ops) + " failed");
  if (opt.trace) {
    // Traced-run artifacts: Chrome trace_event JSON and the per-layer
    // self-time / reconciliation table.
    const std::string stem = opt.work_dir + "/" + opt.workload + "-s" +
                             std::to_string(opt.seed);
    const auto& tracer = perfbench::Tracer::get();
    tracer.write_chrome(stem + ".trace.json");
    const double coverage =
        tracer.write_tables(stem + ".layers.tsv", "op", opt.workload);
    rep.note("trace_file", stem + ".trace.json");
    rep.note("layer_table", stem + ".layers.tsv");
    rep.note("op_coverage_median", std::to_string(coverage));
  }
  std::printf("%s\n", to_json(opt, rep).c_str());
  std::fflush(stdout);
  for (const std::string& c : rep.failed_checks) {
    std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
                 opt.workload.c_str(), c.c_str());
  }
  return rep.failed_checks.empty() ? 0 : 1;
}
