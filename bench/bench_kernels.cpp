// Kernel microbenchmarks (google-benchmark):
//   * the Top-K merge kernel, level-contiguous SoA vs the pre-refactor
//     interleaved (AoS) layout,
//   * the O(K^2 * L) complexity claim: forward runtime vs Top-K,
//   * backward-kernel cost: the per-slot candidate gather plus
//     engine-level full and incremental (weight-reuse) backward,
//   * golden full vs incremental update, and INSTA initialization (cloning).
//
// Every kernel-level benchmark reports candidates/s (SetItemsProcessed)
// and plane-read GB/s (SetBytesProcessed; the per-candidate bytes counted
// are documented at each benchmark). The main() additionally re-times the
// hot kernels with bench::time_repeated (median of reps) and stamps
// BENCH_kernels.json so CI can diff kernel throughput across commits.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <random>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/topk.hpp"
#include "gen/changelist.hpp"
#include "gen/presets.hpp"

namespace {

using namespace insta;

/// One shared medium design for all engine-level benchmarks.
bench::Bundle& shared_bundle() {
  static bench::Bundle b = [] {
    gen::LogicBlockSpec spec;
    spec.name = "kernel-bench";
    spec.seed = 7;
    spec.num_gates = 20000;
    spec.num_ffs = 1800;
    spec.depth = 24;
    spec.num_inputs = 64;
    spec.num_outputs = 64;
    return bench::make_bundle(spec, 0.08);
  }();
  return b;
}

// ---- Top-K insert (Algorithm 2) ---------------------------------------------

struct InsertStream {
  std::vector<float> arr;
  std::vector<std::int32_t> sp;
  InsertStream() {
    std::mt19937 rng(42);
    std::uniform_real_distribution<float> val(0.0f, 1000.0f);
    std::uniform_int_distribution<std::int32_t> spd(0, 63);
    for (int i = 0; i < 4096; ++i) {
      arr.push_back(val(rng));
      sp.push_back(spd(rng));
    }
  }
};

void BM_TopKInsert_SortedList(benchmark::State& state) {
  static const InsertStream stream;
  const auto k = static_cast<std::int32_t>(state.range(0));
  std::vector<float> a(static_cast<std::size_t>(k)), m(a.size()), s(a.size());
  std::vector<std::int32_t> sp(a.size());
  std::int32_t count = 0;
  for (auto _ : state) {
    count = 0;
    const core::TopKView v{a.data(), m.data(), s.data(), sp.data(), k, &count};
    for (std::size_t i = 0; i < stream.arr.size(); ++i) {
      core::topk_insert(v, stream.arr[i], stream.arr[i], 1.0f, stream.sp[i]);
    }
    benchmark::DoNotOptimize(a.data());
  }
  const auto items = static_cast<std::int64_t>(stream.arr.size());
  state.SetItemsProcessed(state.iterations() * items);
  // Per insert: one candidate record in (arr, mu, sig, sp = 16 B).
  state.SetBytesProcessed(state.iterations() * items * 16);
}
BENCHMARK(BM_TopKInsert_SortedList)->Arg(8)->Arg(32)->Arg(128);

// ---- Top-K merge: SoA vs AoS ------------------------------------------------

/// A synthetic level merge: `parents` source pins with full K-entry Top-K
/// lists stored level-contiguously in SoA planes (stride = K rounded up to
/// 8, exactly the engine's layout), grouped into destination pins of
/// `fanin` consecutive fanin arcs each. Tags are unique within a parent
/// (the invariant) and drawn from a pool of `tag_pool` values shared
/// across parents: a small pool models reconvergent logic where fanin
/// lists carry largely the same startpoints (the engine's common case —
/// most candidates resolve in the in-list tag scan), a pool of parents*K
/// makes every tag distinct and forces the sorted-insert path. `fanin`
/// sets the merge regime: small fanin rebuilds the destination list
/// often (fill-heavy, sorted-insert traffic dominates), large fanin is
/// the saturated steady state where the list filled on the first arcs
/// and nearly every later candidate stops at the threshold pre-filter.
struct MergeWorkload {
  std::int32_t k = 0;
  std::size_t stride = 0;
  std::int32_t parents = 0;
  std::int32_t fanin = 8;
  std::vector<float> mu, sig, arr;
  std::vector<std::int32_t> sp, cnt;
  std::vector<float> am, as2;  // per-arc delay mean / variance

  MergeWorkload(std::int32_t k_in, std::int32_t parents_in,
                std::int32_t tag_pool, std::int32_t fanin_in = 8)
      : k(k_in), parents(parents_in), fanin(fanin_in) {
    stride = (static_cast<std::size_t>(k) + 7) & ~std::size_t{7};
    const std::size_t plane = static_cast<std::size_t>(parents) * stride;
    mu.assign(plane, 0.0f);
    sig.assign(plane, 0.0f);
    arr.assign(plane, 0.0f);
    sp.assign(plane, -1);
    cnt.assign(static_cast<std::size_t>(parents), k);
    am.resize(static_cast<std::size_t>(parents));
    as2.resize(static_cast<std::size_t>(parents));
    std::mt19937 rng(123);
    std::uniform_real_distribution<float> base(0.0f, 1000.0f);
    std::uniform_real_distribution<float> d(5.0f, 50.0f);
    std::vector<float> vals(static_cast<std::size_t>(k));
    std::vector<std::int32_t> pool(
        static_cast<std::size_t>(std::max(tag_pool, k)));
    for (std::size_t t = 0; t < pool.size(); ++t) {
      pool[t] = static_cast<std::int32_t>(t);
    }
    for (std::int32_t p = 0; p < parents; ++p) {
      for (auto& v : vals) v = base(rng);
      std::sort(vals.begin(), vals.end(), std::greater<>());
      // K distinct tags per parent, sampled from the shared pool.
      for (std::int32_t j = 0; j < k; ++j) {
        const auto r = static_cast<std::size_t>(j) +
                       rng() % (pool.size() - static_cast<std::size_t>(j));
        std::swap(pool[static_cast<std::size_t>(j)], pool[r]);
      }
      const std::size_t b = static_cast<std::size_t>(p) * stride;
      for (std::int32_t j = 0; j < k; ++j) {
        const auto idx = b + static_cast<std::size_t>(j);
        arr[idx] = vals[static_cast<std::size_t>(j)];
        mu[idx] = vals[static_cast<std::size_t>(j)] - 3.0f;
        sig[idx] = 1.0f + 0.01f * static_cast<float>(j);
        sp[idx] = pool[static_cast<std::size_t>(j)];
      }
      am[static_cast<std::size_t>(p)] = d(rng);
      const float s = 0.1f * d(rng);
      as2[static_cast<std::size_t>(p)] = s * s;
    }
  }

  [[nodiscard]] core::TopKConstView parent(std::int32_t p) const {
    const std::size_t b = static_cast<std::size_t>(p) * stride;
    return {&arr[b], &mu[b], &sig[b], &sp[b], cnt[static_cast<std::size_t>(p)]};
  }

  [[nodiscard]] std::int64_t candidates() const {
    return static_cast<std::int64_t>(parents) * k;
  }
};

/// Runs the production merge kernel over the whole workload: one
/// destination list per `fanin` consecutive parents, arcs batched exactly
/// like Engine::merge_pin_values.
std::uint64_t run_merge_soa(const MergeWorkload& w,
                            const core::TopKView& dst) {
  core::MergeCounters mc;
  constexpr int kChunk = 16;
  core::MergeArc batch[kChunk];
  for (std::int32_t p0 = 0; p0 + w.fanin <= w.parents; p0 += w.fanin) {
    *dst.count = 0;
    int n = 0;
    for (std::int32_t f = 0; f < w.fanin; ++f) {
      const std::int32_t p = p0 + f;
      batch[n].par = w.parent(p);
      batch[n].am = w.am[static_cast<std::size_t>(p)];
      batch[n].as2 = w.as2[static_cast<std::size_t>(p)];
      if (++n == kChunk) {
        core::merge_arcs(dst, batch, n, 3.0f, false, mc);
        n = 0;
      }
    }
    if (n > 0) core::merge_arcs(dst, batch, n, 3.0f, false, mc);
  }
  return mc.merges;
}

/// Pure filter throughput: the destination list is pre-filled with
/// arrivals far above any candidate and never reset, so every candidate
/// is rejected by the full-list threshold pre-filter. This is the steady
/// state of a saturated pin deep in the timing graph — after the first
/// arcs fill the list, nearly all remaining candidates die at the
/// threshold — and it isolates the candidate math (mu/sigma transform +
/// compare). The survivor (insert) path is measured separately by the
/// fanin workloads above; it is serial small-list maintenance.
std::uint64_t run_merge_saturated(const MergeWorkload& w,
                                  const core::TopKView& dst) {
  core::MergeCounters mc;
  constexpr int kChunk = 16;
  core::MergeArc batch[kChunk];
  int n = 0;
  for (std::int32_t p = 0; p < w.parents; ++p) {
    batch[n].par = w.parent(p);
    batch[n].am = w.am[static_cast<std::size_t>(p)];
    batch[n].as2 = w.as2[static_cast<std::size_t>(p)];
    if (++n == kChunk) {
      core::merge_arcs(dst, batch, n, 3.0f, false, mc);
      n = 0;
    }
  }
  if (n > 0) core::merge_arcs(dst, batch, n, 3.0f, false, mc);
  return mc.prunes;
}

/// The pre-refactor baseline for BM_MergeSoAvsAoS: entries interleaved
/// per candidate (array-of-struct) and the seed engine's per-candidate
/// loop — compute arrival, check against the full-list minimum, insert.
struct AosEntry {
  float arr, mu, sig;
  std::int32_t sp;
};

struct AosWorkload {
  std::int32_t k;
  std::vector<AosEntry> entries;  // parent p's entries at [p*k, p*k + cnt)
  explicit AosWorkload(const MergeWorkload& w) : k(w.k) {
    entries.resize(static_cast<std::size_t>(w.parents) *
                   static_cast<std::size_t>(w.k));
    for (std::int32_t p = 0; p < w.parents; ++p) {
      const std::size_t b = static_cast<std::size_t>(p) * w.stride;
      for (std::int32_t j = 0; j < w.k; ++j) {
        auto& e = entries[static_cast<std::size_t>(p * w.k + j)];
        const auto idx = b + static_cast<std::size_t>(j);
        e.arr = w.arr[idx];
        e.mu = w.mu[idx];
        e.sig = w.sig[idx];
        e.sp = w.sp[idx];
      }
    }
  }
};

std::uint64_t run_merge_aos(const MergeWorkload& w, const AosWorkload& aos,
                            const core::TopKView& dst) {
  std::uint64_t merges = 0;
  for (std::int32_t p0 = 0; p0 + w.fanin <= w.parents; p0 += w.fanin) {
    *dst.count = 0;
    for (std::int32_t f = 0; f < w.fanin; ++f) {
      const std::int32_t p = p0 + f;
      const float a = w.am[static_cast<std::size_t>(p)];
      const float v = w.as2[static_cast<std::size_t>(p)];
      const std::int32_t n = w.cnt[static_cast<std::size_t>(p)];
      const AosEntry* es = &aos.entries[static_cast<std::size_t>(p * aos.k)];
      for (std::int32_t j = 0; j < n; ++j) {
        const float cmu = es[j].mu + a;
        const float csig = std::sqrt(es[j].sig * es[j].sig + v);
        const float carr = cmu + 3.0f * csig;
        ++merges;
        if (*dst.count == dst.k && carr <= dst.arr[*dst.count - 1]) continue;
        core::topk_insert(dst, carr, cmu, csig, es[j].sp);
      }
    }
  }
  return merges;
}

/// Scratch destination list sized for the workload's K.
struct DstScratch {
  std::vector<float> a, m, s;
  std::vector<std::int32_t> sp;
  std::int32_t count = 0;
  std::int32_t k;
  explicit DstScratch(std::int32_t k_in) : k(k_in) {
    a.resize(static_cast<std::size_t>(k));
    m.resize(a.size());
    s.resize(a.size());
    sp.resize(a.size());
  }
  core::TopKView view() {
    return {a.data(), m.data(), s.data(), sp.data(), k, &count};
  }
  /// Fills the list with arrivals far above any workload candidate (tags
  /// no candidate carries), for the saturated filter-throughput runs.
  void saturate() {
    std::fill(a.begin(), a.end(), 1e9f);
    std::fill(m.begin(), m.end(), 1e9f);
    std::fill(s.begin(), s.end(), 1.0f);
    for (std::int32_t j = 0; j < k; ++j) sp[static_cast<std::size_t>(j)] = -1000 - j;
    count = k;
  }
};

// Per merged candidate the kernel reads the parent's mu + sig plane slots
// (8 B); insert/compare traffic against the small resident dst list is not
// counted. This is the number the SoA layout is supposed to improve, so
// GB/s here is plane-read throughput.
constexpr std::int64_t kMergeBytesPerCand = 8;

void BM_MergeTopK(benchmark::State& state) {
  const auto k = static_cast<std::int32_t>(state.range(0));
  // Reconvergent tag pool (2K shared startpoints): the engine's common
  // case, where most candidates resolve in the in-list tag scan.
  const MergeWorkload w(k, 4096, 2 * k);
  DstScratch dst(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_merge_soa(w, dst.view()));
  }
  state.SetItemsProcessed(state.iterations() * w.candidates());
  state.SetBytesProcessed(state.iterations() * w.candidates() *
                          kMergeBytesPerCand);
}
BENCHMARK(BM_MergeTopK)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->ArgNames({"k"});

void BM_MergeSaturated(benchmark::State& state) {
  const auto k = static_cast<std::int32_t>(state.range(0));
  const MergeWorkload w(k, 4096, 2 * k);
  DstScratch dst(k);
  dst.saturate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_merge_saturated(w, dst.view()));
  }
  state.SetItemsProcessed(state.iterations() * w.candidates());
  state.SetBytesProcessed(state.iterations() * w.candidates() *
                          kMergeBytesPerCand);
}
BENCHMARK(BM_MergeSaturated)->Arg(16)->Arg(32)->ArgNames({"k"});

void BM_MergeSoAvsAoS(benchmark::State& state) {
  // layout: 0 = interleaved AoS entries + the seed per-candidate loop,
  //         1 = SoA planes + the batch merge kernel.
  const bool soa = state.range(0) != 0;
  static const MergeWorkload w(16, 4096, 32);
  static const AosWorkload aos(w);
  DstScratch dst(w.k);
  for (auto _ : state) {
    if (soa) {
      benchmark::DoNotOptimize(run_merge_soa(w, dst.view()));
    } else {
      benchmark::DoNotOptimize(run_merge_aos(w, aos, dst.view()));
    }
  }
  state.SetItemsProcessed(state.iterations() * w.candidates());
  state.SetBytesProcessed(state.iterations() * w.candidates() *
                          kMergeBytesPerCand);
  state.SetLabel(soa ? "soa" : "aos");
}
BENCHMARK(BM_MergeSoAvsAoS)->Arg(0)->Arg(1);

// ---- backward kernel --------------------------------------------------------

/// Synthetic backward phase 1: `slots` fanin slots gathering the top-1
/// entry of random parents out of a stride-padded SoA plane, exactly the
/// engine's backward_cand call shape.
struct BackwardWorkload {
  std::int32_t stride = 16;
  std::int32_t parents = 4096;
  std::int32_t slots = 65536;
  std::vector<float> tk_mu, tk_sig;
  std::vector<std::int32_t> tk_cnt, ci;
  std::vector<float> amu, asig;
  std::vector<float> out;

  BackwardWorkload() {
    const std::size_t plane =
        static_cast<std::size_t>(parents) * static_cast<std::size_t>(stride);
    tk_mu.resize(plane);
    tk_sig.resize(plane);
    tk_cnt.resize(static_cast<std::size_t>(parents));
    std::mt19937 rng(77);
    std::uniform_real_distribution<float> v(0.0f, 1000.0f);
    std::uniform_int_distribution<std::int32_t> pick(0, parents - 1);
    for (std::size_t i = 0; i < plane; ++i) {
      tk_mu[i] = v(rng);
      tk_sig[i] = 1.0f + 0.001f * v(rng);
    }
    for (std::int32_t p = 0; p < parents; ++p) {
      // ~3% empty parents exercise the -inf path.
      tk_cnt[static_cast<std::size_t>(p)] = (p % 32 == 0) ? 0 : 4;
    }
    ci.resize(static_cast<std::size_t>(slots));
    amu.resize(ci.size());
    asig.resize(ci.size());
    out.assign(ci.size(), 0.0f);
    for (auto& c : ci) c = pick(rng);
    for (auto& x : amu) x = 0.05f * v(rng);
    for (auto& x : asig) x = 0.001f * v(rng);
  }
};

void BM_BackwardCand(benchmark::State& state) {
  static BackwardWorkload w;
  for (auto _ : state) {
    core::backward_cand(w.tk_mu.data(), w.tk_sig.data(), w.tk_cnt.data(),
                        w.ci.data(), w.stride, w.amu.data(), w.asig.data(),
                        w.slots, 3.0f, w.out.data());
    benchmark::DoNotOptimize(w.out.data());
  }
  state.SetItemsProcessed(state.iterations() * w.slots);
  // Per slot: ci + gathered cnt/mu/sig + amu + asig reads, cand write
  // (7 * 4 B).
  state.SetBytesProcessed(state.iterations() * w.slots * 28);
}
BENCHMARK(BM_BackwardCand);

void BM_BackwardTns(benchmark::State& state) {
  bench::Bundle& b = shared_bundle();
  core::EngineOptions opt;
  opt.top_k = 16;
  core::Engine engine(*b.sta, opt);
  engine.run_forward();
  for (auto _ : state) {
    engine.run_backward(core::GradientMetric::kTns);
    benchmark::DoNotOptimize(engine.arc_gradients().data());
  }
}
BENCHMARK(BM_BackwardTns)->Unit(benchmark::kMillisecond);

void BM_BackwardTnsIncremental(benchmark::State& state) {
  // The ECO inner loop with gradients: annotate one cell's deltas, sparse
  // forward, then backward. After the first iteration the softmax weights
  // are warm and run_backward only recomputes the frontier pins touched by
  // the sparse forward (BackwardStats::weights_reused).
  bench::Bundle& b = shared_bundle();
  core::EngineOptions opt;
  opt.top_k = 16;
  core::Engine engine(*b.sta, opt);
  engine.run_forward();
  engine.run_backward(core::GradientMetric::kTns);
  util::Rng rng(4);
  const auto changes = gen::random_changelist(*b.gd.design, *b.graph, rng, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& ch = changes[i++ % changes.size()];
    const auto deltas = b.calc->estimate_eco(ch.cell, ch.new_libcell);
    engine.annotate(deltas);
    engine.run_forward_incremental();
    engine.run_backward(core::GradientMetric::kTns);
    benchmark::DoNotOptimize(engine.arc_gradients().data());
  }
  state.counters["weight_pins_reused"] = static_cast<double>(
      engine.last_backward_stats().weight_pins_reused);
  state.counters["weight_pins_recomputed"] = static_cast<double>(
      engine.last_backward_stats().weight_pins_recomputed);
}
BENCHMARK(BM_BackwardTnsIncremental)->Unit(benchmark::kMillisecond);

// ---- forward kernel: O(K^2 * L) sweep ---------------------------------------

void BM_ForwardTopK(benchmark::State& state) {
  bench::Bundle& b = shared_bundle();
  core::EngineOptions opt;
  opt.top_k = static_cast<int>(state.range(0));
  core::Engine engine(*b.sta, opt);
  for (auto _ : state) {
    engine.run_forward();
    benchmark::DoNotOptimize(engine.endpoint_slacks().data());
  }
  state.counters["levels"] =
      static_cast<double>(engine.num_levels());
  state.counters["pins"] = static_cast<double>(b.gd.design->num_pins());
}
BENCHMARK(BM_ForwardTopK)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_ForwardIncrementalEco(benchmark::State& state) {
  // A single-cell ECO re-annotation followed by a level-windowed forward:
  // the common inner-loop operation of the Fig. 7 evaluation flow.
  bench::Bundle& b = shared_bundle();
  core::EngineOptions opt;
  opt.top_k = 16;
  core::Engine engine(*b.sta, opt);
  engine.run_forward();
  util::Rng rng(4);
  const auto changes = gen::random_changelist(*b.gd.design, *b.graph, rng, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& ch = changes[i++ % changes.size()];
    const auto deltas = b.calc->estimate_eco(ch.cell, ch.new_libcell);
    engine.annotate(deltas);
    engine.run_forward_incremental();
    benchmark::DoNotOptimize(engine.endpoint_slacks().data());
  }
}
BENCHMARK(BM_ForwardIncrementalEco)->Unit(benchmark::kMillisecond);

void BM_ForwardGrainSweep(benchmark::State& state) {
  // Sweep of the parallel chunk grain of the per-level pin kernel (an
  // EngineOptions knob): too small pays ticket-dispatch overhead per tiny
  // chunk, too large starves workers on shallow levels.
  bench::Bundle& b = shared_bundle();
  core::EngineOptions opt;
  opt.top_k = 16;
  opt.parallel_grain = static_cast<int>(state.range(0));
  core::Engine engine(*b.sta, opt);
  for (auto _ : state) {
    engine.run_forward();
    benchmark::DoNotOptimize(engine.endpoint_slacks().data());
  }
  state.counters["grain"] = static_cast<double>(opt.parallel_grain);
}
BENCHMARK(BM_ForwardGrainSweep)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// ---- MCMM corners axis ------------------------------------------------------

void BM_ForwardCorners(benchmark::State& state) {
  // One C-corner engine propagating every corner per level sweep vs C
  // independent single-corner passes: the MCMM scaling claim. Items
  // processed are corner-endpoint evaluations, so items/s is directly the
  // per-corner throughput whatever C is.
  bench::Bundle& b = shared_bundle();
  const int c = static_cast<int>(state.range(0));
  core::EngineOptions opt;
  opt.top_k = 16;
  opt.corners = bench::mcmm_corners(c);
  core::Engine engine(*b.sta, opt);
  for (auto _ : state) {
    engine.run_forward();
    benchmark::DoNotOptimize(engine.endpoint_slacks().data());
  }
  const auto eps = static_cast<std::int64_t>(b.graph->endpoints().size());
  state.SetItemsProcessed(state.iterations() * c * eps);
  state.counters["corners"] = static_cast<double>(c);
}
BENCHMARK(BM_ForwardCorners)->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"corners"})->Unit(benchmark::kMillisecond);

void BM_ForwardIncrementalCorners(benchmark::State& state) {
  // The ECO inner loop on a C-corner engine: broadcast annotate + the
  // per-corner frontier-sparse passes.
  bench::Bundle& b = shared_bundle();
  const int c = static_cast<int>(state.range(0));
  core::EngineOptions opt;
  opt.top_k = 16;
  opt.corners = bench::mcmm_corners(c);
  core::Engine engine(*b.sta, opt);
  engine.run_forward();
  util::Rng rng(4);
  const auto changes = gen::random_changelist(*b.gd.design, *b.graph, rng, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& ch = changes[i++ % changes.size()];
    const auto deltas = b.calc->estimate_eco(ch.cell, ch.new_libcell);
    engine.annotate(deltas);
    engine.run_forward_incremental();
    benchmark::DoNotOptimize(engine.endpoint_slacks().data());
  }
  state.counters["corners"] = static_cast<double>(c);
}
BENCHMARK(BM_ForwardIncrementalCorners)->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"corners"})->Unit(benchmark::kMillisecond);

// ---- thread-pool dispatch ---------------------------------------------------

void BM_PoolLaunchOverhead(benchmark::State& state) {
  // Cost of one parallel_for_chunks launch with near-zero work per chunk:
  // measures the ticket-dispatch handshake (publish, wake, join, drain)
  // that is paid once per timing level.
  auto& pool = util::ThreadPool::global();
  const auto n = static_cast<std::size_t>(state.range(0));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    pool.parallel_for_chunks(
        std::size_t{0}, n,
        [&](std::size_t lo, std::size_t hi) {
          sink.fetch_add(hi - lo, std::memory_order_relaxed);
        },
        64);
  }
  benchmark::DoNotOptimize(sink.load());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PoolLaunchOverhead)->Arg(512)->Arg(4096)->Arg(65536);

// ---- reference-engine costs -------------------------------------------------

void BM_GoldenFullUpdate(benchmark::State& state) {
  bench::Bundle& b = shared_bundle();
  for (auto _ : state) {
    b.sta->update_full();
  }
}
BENCHMARK(BM_GoldenFullUpdate)->Unit(benchmark::kMillisecond);

void BM_GoldenIncrementalResize(benchmark::State& state) {
  bench::Bundle& b = shared_bundle();
  b.sta->update_full();
  util::Rng rng(99);
  const auto changes =
      gen::random_changelist(*b.gd.design, *b.graph, rng, 64);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& ch = changes[i++ % changes.size()];
    b.gd.design->resize_cell(ch.cell, ch.new_libcell);
    const auto ids = b.calc->update_for_resize(ch.cell, b.sta->mutable_delays());
    b.sta->update_incremental(ids);
  }
  state.counters["pins_touched"] =
      static_cast<double>(b.sta->last_update_pin_count());
}
BENCHMARK(BM_GoldenIncrementalResize)->Unit(benchmark::kMillisecond);

void BM_EngineInitialization(benchmark::State& state) {
  bench::Bundle& b = shared_bundle();
  b.sta->update_full();
  for (auto _ : state) {
    core::EngineOptions opt;
    opt.top_k = 16;
    core::Engine engine(*b.sta, opt);
    benchmark::DoNotOptimize(&engine);
  }
}
BENCHMARK(BM_EngineInitialization)->Unit(benchmark::kMillisecond);

// ---- BENCH_kernels.json -----------------------------------------------------

/// Median-of-reps timings of the hot kernels, written through BenchReport
/// so CI archives kernel throughput per commit. Returns false when the
/// MCMM bit-identity gate fails (a C-corner engine must reproduce C
/// independent single-corner engines byte for byte).
bool write_kernel_report() {
  bool ok = true;
  bench::BenchReport report("kernels");
  const int reps = 15;

  const auto add_merge = [&](const std::string& label, const auto& run,
                             std::int64_t candidates) {
    const auto cands = static_cast<double>(candidates);
    const bench::TimingStats ts = bench::time_repeated(
        reps, [&] { benchmark::DoNotOptimize(run()); });
    report.add_row(label,
                   {{"median_sec", ts.median_sec},
                    {"min_sec", ts.min_sec},
                    {"mcand_per_sec", cands / ts.median_sec / 1e6},
                    {"gbytes_per_sec", cands *
                                           static_cast<double>(
                                               kMergeBytesPerCand) /
                                           ts.median_sec / 1e9},
                    {"reps", static_cast<double>(ts.reps)}});
    return ts.median_sec;
  };

  // Headline rows: saturated filter throughput — a full list rejecting
  // every candidate at the threshold, the steady state of deep pins.
  // Measured per K on the production merge_arcs entry point.
  for (const std::int32_t k : {16, 32}) {
    const MergeWorkload w(k, 4096, 2 * k);
    DstScratch dst(k);
    dst.saturate();
    const double sec = add_merge(
        "merge_k" + std::to_string(k) + "_saturated",
        [&] { return run_merge_saturated(w, dst.view()); }, w.candidates());
    std::printf("merge k=%d saturated: %.3f ms\n", k, sec * 1e3);
  }

  // Mixed-regime rows: reconvergent tags (pool 2K) at K = 16 and the
  // engine-default K = 32, each at two fanins. fanin = 8 is fill-heavy
  // (the destination list is rebuilt often, so sorted-insert traffic —
  // serial small-list maintenance — dominates); fanin = 32 amortizes the
  // fill over more filtered arcs. At fanin = 8 the pre-refactor AoS
  // layout rides along, and a disjoint-tag variant tracks the
  // sorted-insert path.
  for (const std::int32_t k : {16, 32}) {
    for (const std::int32_t fanin : {8, 32}) {
      const MergeWorkload w(k, 4096, 2 * k, fanin);
      DstScratch dst(k);
      const std::string tag =
          "merge_k" + std::to_string(k) + "_f" + std::to_string(fanin);
      if (fanin == 8) {
        const AosWorkload aos(w);
        add_merge(
            tag + "_aos", [&] { return run_merge_aos(w, aos, dst.view()); },
            w.candidates());
      }
      const double sec = add_merge(
          tag, [&] { return run_merge_soa(w, dst.view()); }, w.candidates());
      std::printf("merge k=%d fanin=%d: %.3f ms\n", k, fanin, sec * 1e3);
    }
  }
  {
    const MergeWorkload w(16, 4096, 4096 * 16);
    DstScratch dst(w.k);
    add_merge(
        "merge_k16_disjoint", [&] { return run_merge_soa(w, dst.view()); },
        w.candidates());
  }

  {
    BackwardWorkload bw;
    const bench::TimingStats ts = bench::time_repeated(reps, [&] {
      core::backward_cand(bw.tk_mu.data(), bw.tk_sig.data(), bw.tk_cnt.data(),
                          bw.ci.data(), bw.stride, bw.amu.data(),
                          bw.asig.data(), bw.slots, 3.0f, bw.out.data());
      benchmark::DoNotOptimize(bw.out.data());
    });
    report.add_row("backward_cand",
                   {{"median_sec", ts.median_sec},
                    {"mslot_per_sec",
                     static_cast<double>(bw.slots) / ts.median_sec / 1e6},
                    {"reps", static_cast<double>(ts.reps)}});
  }

  // MCMM corners axis: one C-corner forward vs C times the C=1 cost. The
  // per_corner_sec column is the number the corner-major layout is supposed
  // to improve (shared level sweep, frontier bookkeeping and structure
  // reads amortized across corners), and each multi-corner engine is gated
  // bit-identical against independently built single-corner engines before
  // its timing is trusted.
  {
    bench::Bundle& b = shared_bundle();
    const int fwd_reps = 7;
    const auto eps = static_cast<double>(b.graph->endpoints().size());
    double c1_sec = 0.0;
    for (const int c : {1, 2, 4}) {
      core::EngineOptions opt;
      opt.top_k = 16;
      opt.corners = bench::mcmm_corners(c);
      core::Engine engine(*b.sta, opt);
      engine.run_forward();
      std::size_t bad = 0;
      for (int ci = 0; ci < c; ++ci) {
        core::EngineOptions sopt;
        sopt.top_k = 16;
        sopt.corners = {bench::mcmm_corners(c)[static_cast<std::size_t>(ci)]};
        core::Engine solo(*b.sta, sopt);
        solo.run_forward();
        bad += bench::count_corner_mismatches(engine, ci, solo);
      }
      if (bad != 0) {
        std::printf("ERROR: forward_corners c=%d: %zu endpoint slacks differ "
                    "from independent single-corner engines\n", c, bad);
        ok = false;
      }
      const bench::TimingStats ts = bench::time_repeated(fwd_reps, [&] {
        engine.run_forward();
        benchmark::DoNotOptimize(engine.endpoint_slacks().data());
      });
      if (c == 1) c1_sec = ts.median_sec;
      report.add_row("forward_corners_c" + std::to_string(c),
                     {{"median_sec", ts.median_sec},
                      {"corners", static_cast<double>(c)},
                      {"per_corner_sec", ts.median_sec / c},
                      {"corner_endpoints_per_sec",
                       c * eps / ts.median_sec},
                      {"ratio_vs_c1",
                       c1_sec > 0.0 ? ts.median_sec / c1_sec : 0.0},
                      {"bit_identical", bad == 0 ? 1.0 : 0.0},
                      {"reps", static_cast<double>(ts.reps)}});
      std::printf("forward corners c=%d: %.3f ms (%.3f ms/corner, %s)\n", c,
                  ts.median_sec * 1e3, ts.median_sec / c * 1e3,
                  bad == 0 ? "bit-identical" : "MISMATCH");
    }
  }

  report.write();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_kernel_report() ? 0 : 1;
}
