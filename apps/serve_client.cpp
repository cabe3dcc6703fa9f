// serve_client — client, verifier, and load generator for `insta_cli serve`.
//
//   serve_client --connect <unix:/path | host:port> --script f.ndjson
//                                  send each request line, print each reply
//   serve_client --connect ... --verify 1 --in d.inet [--hold 1] [--topk K]
//                [--samples N] [--seed S]
//                                  load the same design in-process, replay
//                                  identical summary/endpoints/whatif
//                                  queries over the wire, and require
//                                  bit-exact agreement; exit 1 on mismatch
//   serve_client --connect ... --load 1 --clients N --requests M
//                [--deltas D] [--seed S] [--edit 1]
//                                  closed-loop mixed read/what-if load from
//                                  N concurrent connections (plus one edit
//                                  commit when --edit); prints queries/sec
//                                  and latency percentiles
//   serve_client --connect ... --commit N --in d.inet [--deltas D]
//                [--seed S]
//                                  send N edit commits (begin_edit /
//                                  annotate / commit) built from random
//                                  design changelists — the writer-side
//                                  driver for replication tests
//   serve_client --connect <A> --compare <B> [--in d.inet]
//                [--timeout-sec T] [--samples N] [--seed S]
//                                  wait until A and B report the same
//                                  generation, then replay identical
//                                  summary / endpoints / whatif requests to
//                                  both and require byte-identical result
//                                  payloads; exit 1 on any drift
//   serve_client --connect ... --shutdown 1
//                                  ask the server to shut down
//
// Modes combine left to right in one run: --script, then --verify, then
// --load, then --commit, then --compare, then --shutdown.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/scenario_batch.hpp"
#include "gen/changelist.hpp"
#include "io/design_io.hpp"
#include "ref/golden_sta.hpp"
#include "telemetry/json.hpp"
#include "timing/delay_calc.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace insta;

/// Minimal --key value argument parser (the insta_cli convention).
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      util::check(key.rfind("--", 0) == 0, "expected --option, got " + key);
      util::check(i + 1 < argc, "missing value for " + key);
      values_[key.substr(2)] = argv[++i];
    }
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double get_num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// errno rendered through the single NOLINT'd strerror call site: the
/// static buffer is copied into the returned string immediately, and this
/// client is single-threaded.
std::string errno_text() {
  return std::strerror(errno);  // NOLINT(concurrency-mt-unsafe)
}

/// One blocking NDJSON connection: request() sends a line and returns the
/// matching reply line.
class Conn {
 public:
  explicit Conn(const std::string& endpoint) {
    if (endpoint.rfind("unix:", 0) == 0) {
      const std::string path = endpoint.substr(5);
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      util::check(fd_ >= 0, "socket: " + errno_text());
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      util::check(path.size() < sizeof(addr.sun_path),
                  "unix path too long: " + path);
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      util::check(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                  "connect " + endpoint + ": " + errno_text());
    } else {
      const std::size_t colon = endpoint.rfind(':');
      util::check(colon != std::string::npos,
                  "--connect must be unix:/path or host:port");
      const std::string host = endpoint.substr(0, colon);
      const int port = std::atoi(endpoint.c_str() + colon + 1);
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      util::check(fd_ >= 0, "socket: " + errno_text());
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      util::check(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                  "cannot parse host address " + host);
      util::check(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                  "connect " + endpoint + ": " + errno_text());
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  std::string request(const std::string& line) {
    send_line(line);
    return recv_line();
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      util::check(n > 0 || errno == EINTR,
                  "send: " + errno_text());
      if (n > 0) off += static_cast<std::size_t>(n);
    }
  }

  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      util::check(n > 0, "server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Parses a reply line; fails hard on malformed JSON (the server always
/// sends well-formed replies, so this is a protocol bug, not user input).
telemetry::JsonValue parse_reply(const std::string& line) {
  telemetry::JsonValue doc;
  std::string error;
  util::check(telemetry::json_parse(line, doc, error),
              "malformed reply line: " + error + ": " + line);
  return doc;
}

bool reply_ok(const telemetry::JsonValue& reply) {
  const telemetry::JsonValue* ok = reply.find("ok");
  return ok != nullptr && ok->type == telemetry::JsonValue::Type::kBool &&
         ok->boolean;
}

std::string reply_error_code(const telemetry::JsonValue& reply) {
  if (const telemetry::JsonValue* err = reply.find("error");
      err != nullptr && err->is_object()) {
    if (const telemetry::JsonValue* code = err->find("code");
        code != nullptr && code->is_string()) {
      return code->string;
    }
  }
  return "";
}

/// Fetches reply.result.<path...>; throws on absence (verification mode
/// treats a missing field as a mismatch, not a soft skip).
const telemetry::JsonValue& result_field(const telemetry::JsonValue& reply,
                                         std::initializer_list<const char*>
                                             path) {
  const telemetry::JsonValue* v = reply.find("result");
  util::check(v != nullptr, "reply has no result");
  for (const char* key : path) {
    v = v->find(key);
    util::check(v != nullptr, std::string("reply result has no ") + key);
  }
  return *v;
}

std::string delta_json(const timing::ArcDelta& d) {
  return "{\"arc\": " + std::to_string(d.arc) +
         ", \"mu\": [" + telemetry::json_number(d.mu[0]) + ", " +
         telemetry::json_number(d.mu[1]) + "], \"sigma\": [" +
         telemetry::json_number(d.sigma[0]) + ", " +
         telemetry::json_number(d.sigma[1]) + "]}";
}

std::string scenarios_json(
    const std::vector<std::vector<timing::ArcDelta>>& scenarios) {
  std::string s = "[";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (i != 0) s += ", ";
    s += "{\"deltas\": [";
    for (std::size_t j = 0; j < scenarios[i].size(); ++j) {
      if (j != 0) s += ", ";
      s += delta_json(scenarios[i][j]);
    }
    s += "]}";
  }
  return s + "]";
}

/// Exact double comparison against a wire number (json_number prints %.17g,
/// which round-trips; NaN/inf arrive as null and compare equal to any
/// non-finite local value).
bool wire_equals(const telemetry::JsonValue& v, double local) {
  if (v.type == telemetry::JsonValue::Type::kNull) {
    return !std::isfinite(local);
  }
  return v.is_number() && v.number == local;
}

int mismatch(const char* what, double local, const telemetry::JsonValue& wire) {
  std::fprintf(stderr, "verify: MISMATCH %s: local %.17g, wire %s\n", what,
               local, wire.is_number() ? "(number)" : "(non-number)");
  if (wire.is_number()) {
    std::fprintf(stderr, "  wire value %.17g\n", wire.number);
  }
  return 1;
}

/// The server's corner list from the info reply, scales bit-exact (the
/// wire prints them with %.17g). Empty, i.e. the engine default, when the
/// server advertises no scales.
std::vector<core::CornerSpec> server_corners(Conn& conn) {
  const auto info =
      parse_reply(conn.request("{\"id\": 4, \"op\": \"info\"}"));
  util::check(reply_ok(info), "verify: info failed on the wire");
  const telemetry::JsonValue& result = result_field(info, {});
  const telemetry::JsonValue* names = result.find("corners");
  const telemetry::JsonValue* scales = result.find("corner_scales");
  std::vector<core::CornerSpec> corners;
  if (names == nullptr || scales == nullptr) return corners;
  util::check(names->is_array() && scales->is_array() &&
                  names->array.size() == scales->array.size(),
              "verify: info corners and corner_scales disagree");
  for (std::size_t c = 0; c < names->array.size(); ++c) {
    const telemetry::JsonValue& pair = scales->array[c];
    util::check(pair.is_array() && pair.array.size() == 2 &&
                    pair.array[0].is_number() && pair.array[1].is_number(),
                "verify: malformed corner_scales entry");
    corners.push_back({names->array[c].string,
                       static_cast<float>(pair.array[0].number),
                       static_cast<float>(pair.array[1].number)});
  }
  return corners;
}

/// Replays summary / endpoints / whatif against both the wire and a local
/// engine built from the same design file and the server's corners,
/// requiring exact equality.
int run_verify(Conn& conn, const Args& args) {
  util::check(args.has("in"), "verify: --in is required");
  const bool hold = args.has("hold");

  io::LoadedDesign loaded = io::load_design_file(args.get("in", ""));
  timing::TimingGraph graph(*loaded.design, loaded.constraints.clock_root);
  timing::DelayCalculator calc(*loaded.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  ref::GoldenOptions gopt;
  gopt.enable_hold = hold;
  ref::GoldenSta sta(graph, loaded.constraints, delays, gopt);
  sta.update_clock();
  core::EngineOptions eopt;
  eopt.top_k = static_cast<int>(args.get_num("topk", 32));
  eopt.enable_hold = hold;
  eopt.corners = server_corners(conn);
  core::Engine engine(sta, eopt);
  engine.run_forward();

  int failures = 0;

  // summary: wire vs Engine::summary.
  {
    const auto reply =
        parse_reply(conn.request("{\"id\": 1, \"op\": \"summary\"}"));
    util::check(reply_ok(reply), "verify: summary failed on the wire");
    // The wire summary is the cross-corner merged view (== corner 0 on
    // single-corner engines), so compare against merged_summary.
    const core::SlackSummary s = engine.merged_summary(core::Mode::kSetup);
    if (!wire_equals(result_field(reply, {"setup", "tns"}), s.tns)) {
      failures += mismatch("summary.setup.tns", s.tns,
                           result_field(reply, {"setup", "tns"}));
    }
    if (!wire_equals(result_field(reply, {"setup", "wns"}), s.wns)) {
      failures += mismatch("summary.setup.wns", s.wns,
                           result_field(reply, {"setup", "wns"}));
    }
    if (hold) {
      const core::SlackSummary h = engine.merged_summary(core::Mode::kHold);
      if (!wire_equals(result_field(reply, {"hold", "tns"}), h.tns)) {
        failures += mismatch("summary.hold.tns", h.tns,
                             result_field(reply, {"hold", "tns"}));
      }
    }
  }

  // endpoints: every slack of the full range, exact float compare.
  {
    const std::size_t num_eps = graph.endpoints().size();
    std::string ids = "[";
    for (std::size_t e = 0; e < num_eps; ++e) {
      if (e != 0) ids += ", ";
      ids += std::to_string(e);
    }
    ids += "]";
    const auto reply = parse_reply(conn.request(
        "{\"id\": 2, \"op\": \"endpoints\", \"ids\": " + ids + "}"));
    util::check(reply_ok(reply), "verify: endpoints failed on the wire");
    const telemetry::JsonValue& eps = result_field(reply, {"endpoints"});
    util::check(eps.is_array() && eps.array.size() == num_eps,
                "verify: endpoints reply has wrong cardinality");
    for (std::size_t e = 0; e < num_eps; ++e) {
      // The wire's merged slack: the worst over the corners.
      float merged = std::numeric_limits<float>::infinity();
      for (core::CornerId c = 0;
           c < static_cast<core::CornerId>(engine.num_corners()); ++c) {
        const float s =
            engine.endpoint_slack(static_cast<timing::EndpointId>(e), c);
        if (s < merged) merged = s;
      }
      const auto local = static_cast<double>(merged);
      const telemetry::JsonValue* slack = eps.array[e].find("slack");
      util::check(slack != nullptr, "verify: endpoint entry has no slack");
      if (!wire_equals(*slack, local)) {
        failures += mismatch(
            ("endpoint " + std::to_string(e) + " slack").c_str(), local,
            *slack);
      }
    }
  }

  // whatif: identical scenarios through ScenarioBatch locally and through
  // the wire; setup/hold summaries must agree exactly.
  {
    const int samples = std::max(1, static_cast<int>(args.get_num("samples",
                                                                  8)));
    util::Rng rng(static_cast<std::uint64_t>(args.get_num("seed", 7)));
    const std::vector<gen::Resize> changes =
        gen::random_changelist(*loaded.design, graph, rng, samples);
    std::vector<std::vector<timing::ArcDelta>> scenarios;
    for (const gen::Resize& rz : changes) {
      scenarios.push_back(calc.estimate_eco(rz.cell, rz.new_libcell));
    }

    core::ScenarioBatch batch(engine);
    const std::vector<core::ScenarioResult> local = batch.evaluate(scenarios);

    const auto reply = parse_reply(conn.request(
        "{\"id\": 3, \"op\": \"whatif\", \"scenarios\": " +
        scenarios_json(scenarios) + "}"));
    util::check(reply_ok(reply), "verify: whatif failed on the wire");
    const telemetry::JsonValue& results = result_field(reply, {"results"});
    util::check(results.is_array() && results.array.size() == local.size(),
                "verify: whatif reply has wrong cardinality");
    for (std::size_t i = 0; i < local.size(); ++i) {
      const telemetry::JsonValue& r = results.array[i];
      const telemetry::JsonValue* setup = r.find("setup");
      util::check(setup != nullptr, "verify: whatif result has no setup");
      const std::string tag = "whatif[" + std::to_string(i) + "]";
      const telemetry::JsonValue* tns = setup->find("tns");
      const telemetry::JsonValue* wns = setup->find("wns");
      util::check(tns != nullptr && wns != nullptr,
                  "verify: whatif summary is incomplete");
      if (!wire_equals(*tns, local[i].setup.tns)) {
        failures += mismatch((tag + ".setup.tns").c_str(),
                             local[i].setup.tns, *tns);
      }
      if (!wire_equals(*wns, local[i].setup.wns)) {
        failures += mismatch((tag + ".setup.wns").c_str(),
                             local[i].setup.wns, *wns);
      }
      if (hold) {
        const telemetry::JsonValue* hs = r.find("hold");
        util::check(hs != nullptr, "verify: whatif result has no hold");
        const telemetry::JsonValue* htns = hs->find("tns");
        util::check(htns != nullptr, "verify: hold summary is incomplete");
        if (!wire_equals(*htns, local[i].hold.tns)) {
          failures += mismatch((tag + ".hold.tns").c_str(),
                               local[i].hold.tns, *htns);
        }
      }
    }
  }

  if (failures == 0) {
    std::printf("verify: wire replies are bit-identical to in-process "
                "evaluation\n");
    return 0;
  }
  std::fprintf(stderr, "verify: %d mismatches\n", failures);
  return 1;
}

/// Latency percentile over a sorted sample set.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Closed-loop mixed workload from one client thread. Records per-request
/// latency (seconds); counts shed replies separately from failures.
struct LoadResult {
  std::vector<double> latencies;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;      ///< "overloaded" replies (admission control)
  std::uint64_t rejected = 0;  ///< "bad-request" replies (e.g. a random
                               ///< delta landing on a clock-network arc)
  std::uint64_t failed = 0;    ///< anything else — a real protocol failure
};

void run_load_client(const std::string& endpoint, int requests, int deltas,
                     std::uint64_t seed, std::int64_t num_arcs,
                     LoadResult& out) {
  Conn conn(endpoint);
  util::Rng rng(seed);
  for (int i = 0; i < requests; ++i) {
    std::string req;
    const std::uint64_t pick = rng() % 4;
    if (pick == 0) {
      req = "{\"id\": " + std::to_string(i) + ", \"op\": \"summary\"}";
    } else if (pick == 1) {
      req = "{\"id\": " + std::to_string(i) +
            ", \"op\": \"endpoints\", \"worst\": 8}";
    } else {
      std::string ds = "[";
      for (int j = 0; j < deltas; ++j) {
        if (j != 0) ds += ", ";
        const auto arc = static_cast<std::int64_t>(
            rng() % static_cast<std::uint64_t>(num_arcs));
        const double mu = 0.5 + 3.0 * rng.uniform();
        ds += "{\"arc\": " + std::to_string(arc) + ", \"mu\": [" +
              telemetry::json_number(mu) + ", " + telemetry::json_number(mu) +
              "]}";
      }
      ds += "]";
      req = "{\"id\": " + std::to_string(i) +
            ", \"op\": \"whatif\", \"scenarios\": [{\"deltas\": " + ds +
            "}]}";
    }
    util::Stopwatch sw;
    const std::string line = conn.request(req);
    out.latencies.push_back(sw.elapsed_sec());
    const auto reply = parse_reply(line);
    if (reply_ok(reply)) {
      ++out.ok;
    } else if (reply_error_code(reply) == "overloaded") {
      ++out.shed;
    } else if (reply_error_code(reply) == "bad-request") {
      ++out.rejected;
    } else {
      ++out.failed;
    }
  }
}

int run_load(const Args& args, const std::string& endpoint) {
  const int clients = std::max(1, static_cast<int>(args.get_num("clients",
                                                                4)));
  const int requests = std::max(1, static_cast<int>(args.get_num("requests",
                                                                 50)));
  const int deltas = std::max(1, static_cast<int>(args.get_num("deltas", 4)));
  const auto seed = static_cast<std::uint64_t>(args.get_num("seed", 11));

  std::int64_t num_arcs = 0;
  {
    Conn probe(endpoint);
    const auto reply =
        parse_reply(probe.request("{\"id\": 0, \"op\": \"info\"}"));
    util::check(reply_ok(reply), "load: info op failed");
    num_arcs = static_cast<std::int64_t>(
        result_field(reply, {"arcs"}).number);
    util::check(num_arcs > 0, "load: server reports no arcs");
  }

  std::vector<LoadResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  util::Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      run_load_client(endpoint, requests, deltas, seed + 1000u * c, num_arcs,
                      results[static_cast<std::size_t>(c)]);
    });
  }
  // One mid-run edit commit (small annotate) exercises snapshot
  // republication while readers and what-ifs are in flight.
  std::uint64_t commits = 0;
  if (args.has("edit")) {
    Conn edit(endpoint);
    util::check(reply_ok(parse_reply(edit.request(
                    "{\"id\": 90, \"op\": \"begin_edit\"}"))),
                "load: begin_edit failed");
    util::Rng rng(seed + 77);
    const auto arc = static_cast<std::int64_t>(
        rng() % static_cast<std::uint64_t>(num_arcs));
    util::check(
        reply_ok(parse_reply(edit.request(
            "{\"id\": 91, \"op\": \"annotate\", \"deltas\": [{\"arc\": " +
            std::to_string(arc) + ", \"mu\": [1.25, 1.25]}]}"))),
        "load: annotate failed");
    util::check(reply_ok(parse_reply(
                    edit.request("{\"id\": 92, \"op\": \"commit\"}"))),
                "load: commit failed");
    ++commits;
  }
  for (std::thread& t : threads) t.join();
  const double wall_sec = wall.elapsed_sec();

  std::vector<double> all;
  std::uint64_t ok = 0, shed = 0, rejected = 0, failed = 0;
  for (const LoadResult& r : results) {
    all.insert(all.end(), r.latencies.begin(), r.latencies.end());
    ok += r.ok;
    shed += r.shed;
    rejected += r.rejected;
    failed += r.failed;
  }
  std::sort(all.begin(), all.end());
  std::printf("load: %d clients x %d requests in %.2f s: %.0f q/s, "
              "%llu ok, %llu shed, %llu rejected, %llu failed, "
              "%llu commits\n",
              clients, requests, wall_sec,
              static_cast<double>(all.size()) / wall_sec,
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(commits));
  std::printf("load: latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, "
              "max %.2f ms\n",
              percentile(all, 0.50) * 1e3, percentile(all, 0.95) * 1e3,
              percentile(all, 0.99) * 1e3, all.empty() ? 0.0 : all.back() *
                                                                   1e3);
  if (args.has("out")) {
    // Machine-readable run report, in the shape
    // telemetry::validate_serve_report checks (telemetry_check
    // --serve-report).
    const std::string path = args.get("out", "");
    std::ofstream f(path, std::ios::binary);
    util::check(static_cast<bool>(f), "load: cannot write " + path);
    f << "{\n  \"clients\": " << clients
      << ",\n  \"requests_per_client\": " << requests << ",\n  \"ok\": " << ok
      << ",\n  \"shed\": " << shed << ",\n  \"rejected\": " << rejected
      << ",\n  \"failed\": " << failed << ",\n  \"commits\": " << commits
      << ",\n  \"wall_sec\": " << telemetry::json_number(wall_sec)
      << ",\n  \"qps\": "
      << telemetry::json_number(static_cast<double>(all.size()) / wall_sec)
      << ",\n  \"latency_ms\": {\"p50\": "
      << telemetry::json_number(percentile(all, 0.50) * 1e3) << ", \"p95\": "
      << telemetry::json_number(percentile(all, 0.95) * 1e3) << ", \"p99\": "
      << telemetry::json_number(percentile(all, 0.99) * 1e3) << ", \"max\": "
      << telemetry::json_number(all.empty() ? 0.0 : all.back() * 1e3)
      << "}\n}\n";
    util::check(f.good(), "load: short write to " + path);
    std::printf("load: wrote report to %s\n", path.c_str());
  }
  return failed == 0 ? 0 : 1;
}

/// Sends N edit commits built from random design changelists — the
/// writer-side driver the replication smoke test uses to advance the
/// generation chain.
int run_commit(Conn& conn, const Args& args) {
  util::check(args.has("in"), "commit: --in is required");
  const int commits = std::max(1, static_cast<int>(args.get_num("commit", 1)));
  const int resizes = std::max(1, static_cast<int>(args.get_num("deltas", 4)));
  io::LoadedDesign loaded = io::load_design_file(args.get("in", ""));
  timing::TimingGraph graph(*loaded.design, loaded.constraints.clock_root);
  timing::DelayCalculator calc(*loaded.design, graph);
  timing::ArcDelays delays;
  calc.compute_all(delays);
  util::Rng rng(static_cast<std::uint64_t>(args.get_num("seed", 19)));

  for (int i = 0; i < commits; ++i) {
    util::check(reply_ok(parse_reply(conn.request(
                    "{\"id\": 70, \"op\": \"begin_edit\"}"))),
                "commit: begin_edit failed");
    const std::vector<gen::Resize> changes =
        gen::random_changelist(*loaded.design, graph, rng, resizes);
    for (const gen::Resize& rz : changes) {
      const std::vector<timing::ArcDelta> deltas =
          calc.estimate_eco(rz.cell, rz.new_libcell);
      if (deltas.empty()) continue;
      std::string ds = "[";
      for (std::size_t j = 0; j < deltas.size(); ++j) {
        if (j != 0) ds += ", ";
        ds += delta_json(deltas[j]);
      }
      ds += "]";
      util::check(
          reply_ok(parse_reply(conn.request(
              "{\"id\": 71, \"op\": \"annotate\", \"deltas\": " + ds + "}"))),
          "commit: annotate failed");
    }
    const auto reply =
        parse_reply(conn.request("{\"id\": 72, \"op\": \"commit\"}"));
    util::check(reply_ok(reply), "commit: commit failed");
    std::printf("commit %d/%d: version %.0f\n", i + 1, commits,
                result_field(reply, {"version"}).number);
  }
  return 0;
}

/// The reply's result payload as raw bytes, with the per-server
/// "server_us" timing object (the one legitimately deployment-variant
/// member) stripped: the unit of the replication bit-identity gate.
std::string result_bytes(const std::string& reply, const char* what) {
  const std::size_t lo = reply.find("\"result\": ");
  util::check(lo != std::string::npos,
              std::string("compare: ") + what + " reply has no result");
  const std::size_t hi = reply.rfind(", \"server_us\": ");
  util::check(hi != std::string::npos && hi > lo,
              std::string("compare: ") + what + " reply has no server_us");
  return reply.substr(lo, hi - lo);
}

/// Waits until two servers report the same generation, then requires
/// byte-identical result payloads for identical requests on both.
int run_compare(const Args& args, const std::string& a_ep) {
  const std::string b_ep = args.get("compare", "");
  Conn a(a_ep);
  Conn b(b_ep);
  const double timeout_sec = args.get_num("timeout-sec", 30);

  // Convergence gate: a replica is allowed to lag, not to drift, so poll
  // until both sides sit at one generation before comparing bytes.
  util::Stopwatch sw;
  double gen_a = -1.0;
  double gen_b = -2.0;
  for (;;) {
    const auto ra = parse_reply(a.request("{\"id\": 1, \"op\": \"stats\"}"));
    const auto rb = parse_reply(b.request("{\"id\": 1, \"op\": \"stats\"}"));
    util::check(reply_ok(ra) && reply_ok(rb), "compare: stats failed");
    gen_a = result_field(ra, {"generation"}).number;
    gen_b = result_field(rb, {"generation"}).number;
    if (gen_a == gen_b) break;
    util::check(sw.elapsed_sec() < timeout_sec,
                "compare: servers did not converge within " +
                    std::to_string(timeout_sec) + " s (generations " +
                    std::to_string(gen_a) + " vs " + std::to_string(gen_b) +
                    ")");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("compare: both servers at generation %.0f\n", gen_a);

  int failures = 0;
  const auto compare_req = [&](const std::string& req, const std::string&
                                                           what) {
    const std::string la = a.request(req);
    const std::string lb = b.request(req);
    util::check(reply_ok(parse_reply(la)) && reply_ok(parse_reply(lb)),
                "compare: " + what + " failed on the wire");
    if (result_bytes(la, what.c_str()) != result_bytes(lb, what.c_str())) {
      std::fprintf(stderr, "compare: MISMATCH %s\n  A: %s\n  B: %s\n",
                   what.c_str(), la.c_str(), lb.c_str());
      ++failures;
    }
  };

  compare_req("{\"id\": 2, \"op\": \"summary\"}", "summary");
  compare_req("{\"id\": 3, \"op\": \"endpoints\", \"worst\": 64}",
              "endpoints");
  // Per-corner views, from the corner list both sides advertise.
  {
    const auto info = parse_reply(a.request("{\"id\": 4, \"op\": \"info\"}"));
    util::check(reply_ok(info), "compare: info failed");
    const telemetry::JsonValue& corners = result_field(info, {"corners"});
    for (std::size_t c = 0; c < corners.array.size(); ++c) {
      compare_req("{\"id\": 5, \"op\": \"summary\", \"corner\": " +
                      std::to_string(c) + "}",
                  "summary[corner " + std::to_string(c) + "]");
    }
  }
  // What-if equivalence needs real deltas, which need the design file.
  if (args.has("in")) {
    const int samples =
        std::max(1, static_cast<int>(args.get_num("samples", 4)));
    io::LoadedDesign loaded = io::load_design_file(args.get("in", ""));
    timing::TimingGraph graph(*loaded.design, loaded.constraints.clock_root);
    timing::DelayCalculator calc(*loaded.design, graph);
    timing::ArcDelays delays;
    calc.compute_all(delays);
    util::Rng rng(static_cast<std::uint64_t>(args.get_num("seed", 23)));
    const std::vector<gen::Resize> changes =
        gen::random_changelist(*loaded.design, graph, rng, samples);
    std::vector<std::vector<timing::ArcDelta>> scenarios;
    for (const gen::Resize& rz : changes) {
      scenarios.push_back(calc.estimate_eco(rz.cell, rz.new_libcell));
    }
    compare_req("{\"id\": 6, \"op\": \"whatif\", \"scenarios\": " +
                    scenarios_json(scenarios) + "}",
                "whatif");
  }

  if (failures == 0) {
    std::printf("compare: result payloads are byte-identical\n");
    return 0;
  }
  std::fprintf(stderr, "compare: %d mismatches\n", failures);
  return 1;
}

int run_script(Conn& conn, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  util::check(static_cast<bool>(f), "script: cannot read " + path);
  std::string line;
  int rc = 0;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    const std::string reply = conn.request(line);
    std::printf("%s\n", reply.c_str());
    if (!reply_ok(parse_reply(reply))) rc = 1;
  }
  return rc;
}

void usage() {
  std::fprintf(stderr,
               "usage: serve_client --connect <unix:/path | host:port>\n"
               "  [--script f.ndjson]                 replay request lines\n"
               "  [--verify 1 --in d.inet [--hold 1] [--topk K]\n"
               "   [--samples N] [--seed S]]          exact wire-vs-local "
               "check\n"
               "  [--load 1 [--clients N] [--requests M] [--deltas D]\n"
               "   [--seed S] [--edit 1]\n"
               "   [--out report.json]]               closed-loop load; --out\n"
               "                                      writes a JSON run "
               "report\n"
               "  [--commit N --in d.inet [--deltas D] [--seed S]]\n"
               "                                      send N random edit "
               "commits\n"
               "  [--compare <unix:/path | host:port> [--in d.inet]\n"
               "   [--timeout-sec T] [--samples N] [--seed S]]\n"
               "                                      byte-compare two "
               "servers\n"
               "  [--shutdown 1]                      stop the server\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, 1);
    if (!args.has("connect")) {
      usage();
      return 2;
    }
    const std::string endpoint = args.get("connect", "");
    int rc = 0;
    if (args.has("script")) {
      Conn conn(endpoint);
      rc = std::max(rc, run_script(conn, args.get("script", "")));
    }
    if (args.has("verify")) {
      Conn conn(endpoint);
      rc = std::max(rc, run_verify(conn, args));
    }
    if (args.has("load")) {
      rc = std::max(rc, run_load(args, endpoint));
    }
    if (args.has("commit")) {
      Conn conn(endpoint);
      rc = std::max(rc, run_commit(conn, args));
    }
    if (args.has("compare")) {
      rc = std::max(rc, run_compare(args, endpoint));
    }
    if (args.has("shutdown")) {
      Conn conn(endpoint);
      const auto reply = parse_reply(
          conn.request("{\"id\": 99, \"op\": \"shutdown\"}"));
      util::check(reply_ok(reply), "shutdown op failed");
      std::printf("server shutting down\n");
    }
    if (!args.has("script") && !args.has("verify") && !args.has("load") &&
        !args.has("commit") && !args.has("compare") && !args.has("shutdown")) {
      usage();
      return 2;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
