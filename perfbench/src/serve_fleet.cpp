// serve_fleet: an `insta_cli serve` writer plus one `--replica-of`
// read-only replica on a Table-II cipher_top-scale design, driven over
// their Unix sockets as a client would. Three closed-loop connections: two
// on the replica send whatif / summary / endpoints, one on the writer
// cycles begin_edit / annotate / commit with reads in between. One
// operation is one request line and its reply.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include "analysis/diagnostics.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "gen/presets.hpp"
#include "replica/codec.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "telemetry/json.hpp"

extern char** environ;

namespace perfbench {
namespace {

using insta::telemetry::JsonValue;

constexpr int kReplicaClients = 2;
constexpr int kCommitPool = 1024;
constexpr double kRepeatShare = 0.25;
constexpr int kRepeatWindow = 16;
constexpr double kWaitSec = 30.0;
constexpr int kReplayThreads = 4;
// The traffic shares below are assumptions, not measurements of a client:
// the README ("Requests") says why each was chosen and what it hides.
// The writer connection starts one edit cycle every kEditPeriodSec (an ECO
// tool committing 10 edits a second). Unpaced, it commits ~900 times a
// second and the replica, which also serves the what-if clients, falls out
// of the 1024-commit delta window and must full-resync.
constexpr double kEditPeriodSec = 0.1;
// Request mix of the replica connections.
constexpr double kWhatifShare = 0.8;
constexpr double kSummaryShare = 0.1;
// The replica's replication stats are sampled this often during the timed
// phase, on a connection that times no operation.
constexpr double kLagSampleSec = 0.1;

/// server_us members of a reply and the span names they become.
constexpr std::pair<const char*, const char*> kServerParts[] = {
    {"queue", "serve.queue"},
    {"batch", "serve.batch"},
    {"eval", "serve.eval"},
    {"serialize", "serve.serialize"}};

// ---- processes and connections ----------------------------------------------

class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = -1;
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  /// Sends one request line and returns its reply line.
  std::string call(const std::string& line) {
    std::string out = line + "\n";
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

JsonValue parse(const std::string& text) {
  JsonValue v;
  std::string err;
  if (!insta::telemetry::json_parse(text, v, err)) {
    throw std::runtime_error("bad reply JSON: " + err);
  }
  return v;
}

double num(const JsonValue& v, std::initializer_list<const char*> path) {
  const JsonValue* cur = &v;
  for (const char* k : path) {
    cur = cur->find(k);
    if (cur == nullptr) return -1.0;
  }
  return cur->number;
}

/// The "result" member of a reply line, verbatim (the reply builders put
/// the id first and the server_us object last).
std::string result_of(const std::string& reply) {
  const auto a = reply.find("\"result\": ");
  const auto b = reply.rfind(", \"server_us\"");
  if (a == std::string::npos || b == std::string::npos || b < a) return "";
  return reply.substr(a + 10, b - a - 10);
}

struct Server {
  pid_t pid = -1;
  std::string sock;
};

/// The writer and replica processes; killed and reaped on destruction.
class Fleet {
 public:
  Fleet(const std::string& cli, const std::string& design) {
    writer_.sock = "w.sock";
    replica_.sock = "r.sock";
    ::unlink(writer_.sock.c_str());
    ::unlink(replica_.sock.c_str());
    writer_.pid = spawn(cli, {"serve", "--in", design, "--socket", writer_.sock,
                              "--max-seconds", "170"},
                        "writer.log");
    replica_.pid = spawn(cli, {"serve", "--in", design, "--socket", replica_.sock,
                               "--replica-of", "unix:" + writer_.sock,
                               "--bootstrap-seconds", "60", "--max-seconds", "170"},
                         "replica.log");
  }
  ~Fleet() {
    for (Server* s : {&writer_, &replica_}) {
      if (s->pid > 0) {
        ::kill(s->pid, SIGKILL);
        ::waitpid(s->pid, nullptr, 0);
      }
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  Server& writer() { return writer_; }
  Server& replica() { return replica_; }

  /// Sends shutdown to both and reaps them (SIGKILL after a grace period).
  void stop() {
    for (Server* s : {&replica_, &writer_}) {
      if (s->pid <= 0) continue;
      {
        Conn c(s->sock);
        if (c.ok()) {
          try {
            (void)c.call("{\"op\": \"shutdown\"}");
          } catch (const std::exception&) {
          }
        }
      }
      const double t0 = now_sec();
      while (::waitpid(s->pid, nullptr, WNOHANG) == 0) {
        if (now_sec() - t0 > 10.0) {
          ::kill(s->pid, SIGKILL);
          ::waitpid(s->pid, nullptr, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      s->pid = -1;
    }
  }

 private:
  static pid_t spawn(const std::string& cli, std::vector<std::string> args,
                     const std::string& log) {
    args.insert(args.begin(), cli);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, cli.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + cli);
    return pid;
  }

  Server writer_;
  Server replica_;
};

/// Calls `line` on `sock` until a connection succeeds and `done(reply)`
/// holds; returns the final reply.
template <typename Pred>
std::string poll(const Server& s, const std::string& line, Pred done) {
  const double t0 = now_sec();
  for (;;) {
    if (s.pid > 0 && ::waitpid(s.pid, nullptr, WNOHANG) != 0) {
      throw std::runtime_error("server " + s.sock + " exited during start-up");
    }
    Conn c(s.sock);
    if (c.ok()) {
      try {
        std::string reply = c.call(line);
        if (done(reply)) return reply;
      } catch (const std::exception&) {
      }
    }
    if (now_sec() - t0 > kWaitSec) {
      throw std::runtime_error("timed out waiting for " + s.sock);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::uint64_t generation_of(const std::string& stats_reply) {
  return static_cast<std::uint64_t>(num(parse(stats_reply), {"result", "generation"}));
}

/// The engine version an ok reply was answered at; false for an error
/// reply or a reply without one.
bool version_of(const std::string& reply, std::uint64_t& version) {
  const JsonValue j = parse(reply);
  const JsonValue* ok = j.find("ok");
  const double v = num(j, {"result", "version"});
  if (ok == nullptr || ok->type != JsonValue::Type::kBool || !ok->boolean || v < 0.0) {
    return false;
  }
  version = static_cast<std::uint64_t>(v);
  return true;
}

// ---- requests ---------------------------------------------------------------

/// estimate_eco deltas of resizing `cell` to a random other size, as a
/// JSON delta list.
std::string resize_deltas(const Prepared& p, insta::netlist::CellId cell,
                          insta::util::Rng& rng) {
  const auto& d = *p.loaded.design;
  std::string s = "[";
  const auto deltas = p.calc->estimate_eco(cell, other_size(d, cell, rng));
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const auto& x = deltas[i];
    using insta::telemetry::json_number;
    s += (i ? ", " : "") + std::string("{\"arc\": ") + std::to_string(x.arc) +
         ", \"mu\": [" + json_number(x.mu[0]) + ", " + json_number(x.mu[1]) +
         "], \"sigma\": [" + json_number(x.sigma[0]) + ", " +
         json_number(x.sigma[1]) + "]}";
  }
  return s + "]";
}

/// One timed request and its reply.
struct Op {
  std::string kind;
  std::string body;  ///< request line without its id member
  std::string reply;
  double start = 0.0;
  double rtt = 0.0;
  int span = -1;  ///< the traced "op" span
};

std::string with_id(std::int64_t id, const std::string& body) {
  return "{\"id\": " + std::to_string(id) + ", " + body.substr(1);
}

}  // namespace

void run_serve_fleet(const Options& opt, Report& rep) {
  if (opt.cli.empty()) throw std::runtime_error("serve_fleet needs --cli");
  std::string design = ensure_design(opt, insta::gen::table2_iwls_specs()[1], 0.1);
  char buf[PATH_MAX];
  if (::realpath(design.c_str(), buf) == nullptr) throw std::runtime_error("realpath");
  design = buf;
  if (::realpath(opt.cli.c_str(), buf) == nullptr) throw std::runtime_error("no insta_cli");
  const std::string cli = buf;
  // Socket paths are relative to the work dir: an absolute checkout path
  // could exceed the 108-byte sun_path limit.
  if (::chdir(opt.work_dir.c_str()) != 0) throw std::runtime_error("chdir");

  // Request inputs, built before any server starts (never timed): what-if
  // scenarios and commits are estimate_eco deltas of real resizes.
  std::vector<std::string> scenarios;
  std::vector<std::string> commit_deltas;
  std::vector<std::int64_t> ep_ids;
  if (!opt.setup_only) {
    const auto p = prepare(design, false);
    std::vector<insta::netlist::CellId> cells;
    for (std::size_t c = 0; c < p->loaded.design->num_cells(); ++c) {
      if (resizable(*p->loaded.design, *p->graph, static_cast<insta::netlist::CellId>(c))) {
        cells.push_back(static_cast<insta::netlist::CellId>(c));
      }
    }
    insta::util::Rng rng(opt.seed * 7919 + 17);
    // One scenario per resizable cell, so every seed's what-ifs sample the
    // same population of cells (a what-if's cost follows the fanout cone
    // of its cells); the seed picks each target size and the draws.
    for (const auto cell : cells) {
      scenarios.push_back("{\"label\": \"c" + std::to_string(cell) +
                          "\", \"deltas\": " + resize_deltas(*p, cell, rng) + "}");
    }
    for (int i = 0; i < kCommitPool; ++i) {
      const auto cell = cells[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cells.size()) - 1))];
      commit_deltas.push_back(resize_deltas(*p, cell, rng));
    }
    for (int i = 0; i < 8; ++i) {
      ep_ids.push_back(rng.uniform_int(
          0, static_cast<std::int64_t>(p->graph->endpoints().size()) - 1));
    }
  }

  // ---- set-up: spawn both, wait for the replica at the writer's generation
  double writer_ready = 0.0;
  double replica_ready = 0.0;
  std::unique_ptr<Fleet> fleet;
  {
    const Scope s("setup");
    const double t0 = now_sec();
    fleet = std::make_unique<Fleet>(cli, design);
    (void)poll(fleet->writer(), "{\"op\": \"ping\"}", [](const std::string& x) {
      return x.find("\"pong\": true") != std::string::npos;
    });
    writer_ready = now_sec() - t0;
    const std::uint64_t gen0 = generation_of(poll(
        fleet->writer(), "{\"op\": \"stats\"}", [](const std::string&) { return true; }));
    (void)poll(fleet->replica(), "{\"op\": \"stats\"}", [&](const std::string& x) {
      return generation_of(x) == gen0;
    });
    replica_ready = now_sec() - t0;
  }
  if (opt.setup_only) {
    fleet->stop();
    return rep.metric("setup_s", replica_ready, "s");
  }

  // ---- timed phase: three closed-loop connections --------------------------
  // clients[0] is the writer connection; each holds its timed ops in order.
  std::vector<std::vector<Op>> clients(kReplicaClients + 1);
  const double t0 = now_sec() + 0.05;
  const double deadline = t0 + opt.seconds;
  std::vector<std::string> errors(clients.size());
  const auto run_client = [&](std::size_t ci) {
    std::vector<Op>& ops = clients[ci];
    const bool writer = ci == 0;
    Conn conn(writer ? fleet->writer().sock : fleet->replica().sock);
    if (!conn.ok()) {
      errors[ci] = "cannot connect";
      return;
    }
    insta::util::Rng rng(opt.seed * 104729 + ci);
    std::vector<std::string> recent;
    std::int64_t id = static_cast<std::int64_t>(ci + 1) * 1000000000LL;
    std::size_t cycle = 0;
    double next_cycle = t0;
    const auto send = [&](const char* kind, std::string body) {
      const Scope s("op");
      Op op{kind, std::move(body), "", now_sec(), 0.0, s.index()};
      op.reply = conn.call(with_id(++id, op.body));
      op.rtt = now_sec() - op.start;
      ops.push_back(std::move(op));
    };
    while (now_sec() < t0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    try {
      while (now_sec() < deadline) {
        if (writer) {
          // begin_edit, annotate, a read, commit.
          while (now_sec() < next_cycle) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          if (now_sec() >= deadline) break;
          next_cycle = std::max(next_cycle + kEditPeriodSec, now_sec());
          const std::string& deltas = commit_deltas[cycle % commit_deltas.size()];
          send("begin_edit", "{\"op\": \"begin_edit\"}");
          send("annotate", "{\"op\": \"annotate\", \"deltas\": " + deltas + "}");
          send("summary", "{\"op\": \"summary\"}");
          send("commit", "{\"op\": \"commit\"}");
          ++cycle;
          continue;
        }
        const double u = rng.uniform();
        if (u < kWhatifShare) {
          std::string body;
          if (!recent.empty() && rng.chance(kRepeatShare)) {
            body = recent[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(recent.size()) - 1))];
          } else {
            const auto n = rng.uniform_int(1, 4);
            body = "{\"op\": \"whatif\", \"scenarios\": [";
            for (std::int64_t i = 0; i < n; ++i) {
              body += (i ? ", " : "") +
                      scenarios[static_cast<std::size_t>(
                          rng.uniform_int(0, static_cast<std::int64_t>(scenarios.size()) - 1))];
            }
            body += "]}";
            recent.push_back(body);
            if (recent.size() > kRepeatWindow) recent.erase(recent.begin());
          }
          send("whatif", body);
        } else if (u < kWhatifShare + kSummaryShare) {
          send("summary", "{\"op\": \"summary\"}");
        } else if (rng.chance(0.5)) {
          send("endpoints", "{\"op\": \"endpoints\", \"worst\": 16}");
        } else {
          std::string body = "{\"op\": \"endpoints\", \"ids\": [";
          for (std::size_t i = 0; i < ep_ids.size(); ++i) {
            body += (i ? ", " : "") + std::to_string(ep_ids[i]);
          }
          send("endpoints", body + "]}");
        }
      }
    } catch (const std::exception& e) {
      errors[ci] = e.what();
    }
  };
  // Replication lag under load: the replica's last_lag_us (from the
  // writer's commit to the replica's apply, of the last delta applied),
  // kept whenever the replica has applied deltas since the previous sample.
  std::vector<double> lag_ms;
  std::string monitor_error;
  const auto run_monitor = [&] {
    Conn conn(fleet->replica().sock);
    if (!conn.ok()) {
      monitor_error = "cannot connect";
      return;
    }
    double applied = 0.0;
    try {
      for (double next = t0; ; next += kLagSampleSec) {
        while (now_sec() < next) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (now_sec() >= deadline) break;
        const JsonValue st = parse(conn.call("{\"op\": \"stats\"}"));
        const double a = num(st, {"result", "replication", "applied_deltas"});
        if (a > applied) {
          applied = a;
          lag_ms.push_back(num(st, {"result", "replication", "last_lag_us"}) * 1e-3);
        }
      }
    } catch (const std::exception& e) {
      monitor_error = e.what();
    }
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < clients.size(); ++i) threads.emplace_back(run_client, i);
    threads.emplace_back(run_monitor);
    for (auto& t : threads) t.join();
  }
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i].empty()) throw std::runtime_error("client " + std::to_string(i) + ": " + errors[i]);
  }
  if (!monitor_error.empty()) throw std::runtime_error("lag monitor: " + monitor_error);
  // Reported in every run (it is measured the same way in both modes); run.py
  // prints it with the per-layer metrics of a traced run.
  rep.metric("replica.lag_ms", median(lag_ms), "ms");
  rep.note("replica_lag_samples", std::to_string(lag_ms.size()));
  rep.note("replica_lag_max_ms",
           std::to_string(lag_ms.empty() ? 0.0 : *std::max_element(lag_ms.begin(), lag_ms.end())));
  double t_last = t0;
  std::vector<double> op_ms;
  for (const auto& ops : clients) {
    for (const Op& op : ops) {
      op_ms.push_back(op.rtt * 1e3);
      t_last = std::max(t_last, op.start + op.rtt);
      auto& k = rep.kinds[op.kind];
      ++k.attempted;
      if (op.reply.find("\"ok\": true") == std::string::npos) ++k.failed;
    }
  }
  const double w_mb = proc_status_mb(fleet->writer().pid, "VmHWM");
  const double r_mb = proc_status_mb(fleet->replica().pid, "VmHWM");
  rep.note("writer_threads", std::to_string(proc_threads(fleet->writer().pid)));
  rep.note("replica_threads", std::to_string(proc_threads(fleet->replica().pid)));
  rep.note("client_threads", std::to_string(clients.size()));
  rep.end_to_end(replica_ready, w_mb + r_mb, op_ms, t_last - t0);

  // ---- convergence (outside the timing) -----------------------------------
  const std::string wstats_line =
      poll(fleet->writer(), "{\"op\": \"stats\"}", [](const std::string&) { return true; });
  const std::uint64_t final_gen = generation_of(wstats_line);
  const std::string rstats_line = poll(
      fleet->replica(), "{\"op\": \"stats\"}",
      [&](const std::string& x) { return generation_of(x) == final_gen; });
  const JsonValue rstats = parse(rstats_line);
  const auto same_reply = [&](const std::string& line) {
    Conn w(fleet->writer().sock);
    Conn r(fleet->replica().sock);
    return w.ok() && r.ok() && result_of(w.call(line)) == result_of(r.call(line));
  };
  rep.check(same_reply("{\"op\": \"summary\"}") &&
                same_reply("{\"op\": \"endpoints\", \"worst\": 256}"),
            "replica at the writer's final generation answers summary and "
            "endpoints byte-identically");
  const double full_syncs = num(rstats, {"result", "replication", "full_syncs"});
  rep.check(full_syncs == 0.0, "replica full_syncs is 0",
            std::to_string(full_syncs));
  fleet->stop();
  fleet.reset();
  // A failed operation already fails the run ("no operation failed"), and
  // its reply has no version to replay it at.
  for (const auto& [kind, k] : rep.kinds) {
    if (k.failed > 0) return rep.note("replay", "skipped: a " + kind + " failed");
  }

  // ---- verification: replay against an in-process engine ------------------
  // Built exactly as insta_cli serve builds its World (unpruned golden,
  // default engine options) and served with the CLI's batching window; no
  // what-if cache, so every answer is computed.
  const auto ref = prepare(design, false, /*exact_window=*/true);
  insta::core::Engine engine(*ref->sta);
  engine.run_forward();
  insta::serve::ServiceOptions sopt;
  sopt.whatif_cache_entries = 0;
  insta::serve::TimingService service(engine, sopt);
  // One connection replays the writer's edits; kReplayThreads more replay
  // each version's reads concurrently, so the service coalesces them into
  // batches as the replica did (a third faster than one at a time).
  insta::serve::Dispatcher writer_disp(service);
  std::vector<std::unique_ptr<insta::serve::Dispatcher>> read_disp;
  for (int t = 0; t < kReplayThreads; ++t) {
    read_disp.push_back(std::make_unique<insta::serve::Dispatcher>(service));
  }
  // Traced runs also replay the writer's commits through a replica-side
  // apply_commit on a second engine.
  std::unique_ptr<insta::core::Engine> twin;
  std::unique_ptr<insta::serve::TimingService> twin_service;
  if (Tracer::get().enabled()) {
    twin = std::make_unique<insta::core::Engine>(*ref->sta);
    twin->run_forward();
    twin_service = std::make_unique<insta::serve::TimingService>(*twin, sopt);
  }

  const auto dispatch = [&](insta::serve::Dispatcher& disp, const std::string& line) {
    if (Tracer::get().enabled()) {
      insta::serve::Request req;
      insta::analysis::LintReport lr;
      const Scope s("serve.parse");
      (void)insta::serve::parse_request(line, req, lr);
    }
    const Scope s("serve.dispatch");
    return disp.dispatch(line);
  };

  struct Read {
    std::uint64_t version;
    const Op* op;
  };
  std::vector<Read> reads;
  std::vector<const Op*> writer_ops;
  for (const auto& ops : clients) {
    for (const Op& op : ops) {
      if (&ops == &clients[0] && (op.kind == "begin_edit" || op.kind == "annotate" ||
                                 op.kind == "commit")) {
        writer_ops.push_back(&op);
      } else {
        std::uint64_t v = 0;
        if (!version_of(op.reply, v)) return rep.check(false, "every read reply carries its version");
        reads.push_back({v, &op});
      }
    }
  }
  // Writer ops come in begin_edit, annotate, commit triples; the commit's
  // reply carries the version it published.
  std::vector<std::uint64_t> commit_version;
  for (std::size_t i = 2; i < writer_ops.size(); i += 3) {
    std::uint64_t v = 0;
    if (!version_of(writer_ops[i]->reply, v)) {
      return rep.check(false, "every commit reply carries its version");
    }
    commit_version.push_back(v);
  }
  std::stable_sort(reads.begin(), reads.end(),
                   [](const Read& a, const Read& b) { return a.version < b.version; });

  std::size_t next_w = 0;
  std::uint64_t prev_gen = service.snapshot()->version;
  std::size_t bad_commit = 0, bad_read = 0, bad_version = 0, bad_repeat = 0, repeats = 0;
  std::vector<double> apply_us;
  const auto advance_to = [&](std::uint64_t v) {
    while (next_w + 2 < writer_ops.size() && commit_version[next_w / 3] <= v) {
      for (int i = 0; i < 3; ++i, ++next_w) {
        const Op& op = *writer_ops[next_w];
        if (result_of(dispatch(writer_disp, with_id(1, op.body))) != result_of(op.reply)) {
          ++bad_commit;
        }
      }
      if (twin_service) {
        std::vector<insta::replica::CommitRecord> recs;
        (void)service.delta_log().since(prev_gen, recs);
        for (const auto& rec : recs) {
          const double a = now_sec();
          {
            const Scope s("replica.apply_commit");
            if (!twin_service->apply_commit(rec).ok()) ++bad_commit;
          }
          apply_us.push_back((now_sec() - a) * 1e6);
        }
      }
      prev_gen = service.snapshot()->version;
    }
  };
  for (std::size_t i = 0, j = 0; i < reads.size(); i = j) {
    const std::uint64_t v = reads[i].version;
    for (j = i; j < reads.size() && reads[j].version == v; ++j) {
    }
    advance_to(v);
    if (service.snapshot()->version != v) {
      bad_version += j - i;
      continue;
    }
    // In-process answer of every distinct request body at this version.
    std::map<std::string, std::string> want;
    std::vector<const std::string*> bodies;
    for (std::size_t k = i; k < j; ++k) {
      if (want.emplace(reads[k].op->body, "").second) bodies.push_back(&reads[k].op->body);
    }
    std::vector<std::string> answers(bodies.size());
    {
      std::vector<std::thread> threads;
      for (int t = 0; t < kReplayThreads; ++t) {
        threads.emplace_back([&, t] {
          for (std::size_t b = t; b < bodies.size(); b += kReplayThreads) {
            answers[b] = result_of(dispatch(*read_disp[t], with_id(1, *bodies[b])));
          }
        });
      }
      for (auto& th : threads) th.join();
    }
    for (std::size_t b = 0; b < bodies.size(); ++b) want[*bodies[b]] = answers[b];
    std::map<std::string, std::string> first;
    for (std::size_t k = i; k < j; ++k) {
      const Op& op = *reads[k].op;
      const std::string got = result_of(op.reply);
      if (got != want[op.body]) ++bad_read;
      const auto [it, fresh] = first.emplace(op.body, got);
      if (!fresh && op.kind == "whatif") {
        ++repeats;
        if (it->second != got) ++bad_repeat;
      }
    }
  }
  advance_to(UINT64_MAX);
  rep.check(bad_version == 0, "every reply's version is reachable by replaying the commits",
            std::to_string(bad_version) + " replies");
  rep.check(bad_commit == 0, "every commit reply equals the in-process replay",
            std::to_string(bad_commit) + " mismatches");
  rep.check(bad_read == 0,
            "every whatif/summary/endpoints reply equals the in-process engine at its version",
            std::to_string(bad_read) + " of " + std::to_string(reads.size()));
  rep.check(bad_repeat == 0, "every repeated what-if returns the bytes of its first reply",
            std::to_string(bad_repeat) + " of " + std::to_string(repeats));
  if (twin) {
    rep.check(std::memcmp(twin->endpoint_slacks().data(), engine.endpoint_slacks().data(),
                          engine.endpoint_slacks().size() * sizeof(float)) == 0,
              "apply_commit replay reaches the writer's slacks byte for byte");
  }
  rep.note("whatif_repeats_same_version", std::to_string(repeats));
  rep.note("commits", std::to_string(writer_ops.size() / 3));
  rep.note("design", std::to_string(ref->loaded.design->num_cells()) + " cells, " +
                         std::to_string(ref->loaded.design->num_pins()) +
                         " pins, top_k 32, 1 corner");

  if (Tracer::get().enabled()) {
    const Tracer& t = Tracer::get();
    rep.metric("serve.writer_ready_s", writer_ready, "s");
    rep.metric("serve.replica_ready_s", replica_ready, "s");
    rep.metric("serve.writer_rss_mb", w_mb, "MB");
    rep.metric("serve.replica_rss_mb", r_mb, "MB");
    std::map<std::string, std::vector<double>> rtt, part;
    for (const auto& ops : clients) {
      for (const Op& op : ops) {
        const JsonValue rj = parse(op.reply);
        const double total = num(rj, {"server_us", "total"});
        const std::string group = op.kind == "whatif" ? "whatif"
                                  : op.kind == "commit" ? "commit"
                                  : (op.kind == "summary" || op.kind == "endpoints") ? "read"
                                                                                      : "edit";
        rtt[group].push_back(op.rtt * 1e6);
        part["transport"].push_back(op.rtt * 1e6 - total);
        // The reply's server_us parts as spans under the op: durations are
        // the server's, placement inside the round trip is inferred
        // (transport split evenly around the server interval).
        double at = op.start + (op.rtt - total * 1e-6) / 2.0;
        const int server = Tracer::get().add("serve.server", at, at + total * 1e-6, op.span);
        for (const auto& [k, span] : kServerParts) {
          const double us = num(rj, {"server_us", k});
          if (op.kind == "whatif") part[k].push_back(us);
          if (us > 0.0) Tracer::get().add(span, at, at + us * 1e-6, server);
          at += us * 1e-6;
        }
      }
    }
    rep.metric("serve.whatif_rtt_us", median(rtt["whatif"]), "us");
    rep.metric("serve.read_rtt_us", median(rtt["read"]), "us");
    rep.metric("serve.commit_rtt_us", median(rtt["commit"]), "us");
    rep.metric("serve.queue_us", median(part["queue"]), "us");
    rep.metric("serve.batch_us", median(part["batch"]), "us");
    rep.metric("serve.eval_us", median(part["eval"]), "us");
    rep.metric("serve.serialize_us", median(part["serialize"]), "us");
    rep.metric("serve.transport_us", median(part["transport"]), "us");
    const double batches = num(rstats, {"result", "batches"});
    rep.metric("serve.batch_occupancy",
               num(rstats, {"result", "whatif_scenarios"}) / std::max(batches, 1.0),
               "ratio");
    const double hits = num(rstats, {"result", "whatif_cache", "hits"});
    const double misses = num(rstats, {"result", "whatif_cache", "misses"});
    rep.metric("replica.cache_hit_ratio", hits / std::max(hits + misses, 1.0), "ratio");
    rep.metric("replica.applied_deltas",
               num(rstats, {"result", "replication", "applied_deltas"}), "count");
    rep.metric("replica.full_syncs", full_syncs, "count");
    rep.metric("serve.parse_us", median(t.durations_ms("serve.parse")) * 1e3, "us");
    rep.metric("serve.dispatch_us", median(t.durations_ms("serve.dispatch")) * 1e3, "us");
    rep.metric("replica.apply_commit_us", median(apply_us), "us");

    // Snapshot codec and import on the writer's final state.
    twin_service.reset();
    const insta::core::EngineState state = service.export_state();
    insta::core::EngineState decoded;
    double a = now_sec();
    {
      const Scope s("replica.snapshot_codec");
      const std::string frame = insta::replica::encode_snapshot(state);
      rep.check(insta::replica::decode_snapshot(frame, decoded).empty(),
                "snapshot frame decodes");
    }
    rep.metric("replica.snapshot_codec_ms", (now_sec() - a) * 1e3, "ms");
    a = now_sec();
    {
      const Scope s("core.import_state");
      twin->import_state(decoded);
    }
    rep.metric("core.import_state_ms", (now_sec() - a) * 1e3, "ms");
  }
}

}  // namespace perfbench
