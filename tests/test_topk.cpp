#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "core/topk.hpp"
#include "util/rng.hpp"

namespace insta {
namespace {

/// A test harness around one Top-K store.
struct Store {
  std::vector<float> arr, mu, sig;
  std::vector<std::int32_t> sp;
  std::int32_t count = 0;
  std::int32_t k;

  explicit Store(std::int32_t k_in) : k(k_in) {
    arr.resize(static_cast<std::size_t>(k));
    mu.resize(static_cast<std::size_t>(k));
    sig.resize(static_cast<std::size_t>(k));
    sp.resize(static_cast<std::size_t>(k));
  }
  core::TopKView view() {
    return {arr.data(), mu.data(), sig.data(), sp.data(), k, &count};
  }
  void insert(float a, std::int32_t s) {
    core::topk_insert(view(), a, a - 1.0f, 1.0f, s);
  }
};

TEST(TopK, InsertIntoEmpty) {
  Store st(4);
  st.insert(10.0f, 7);
  EXPECT_EQ(st.count, 1);
  EXPECT_EQ(st.arr[0], 10.0f);
  EXPECT_EQ(st.sp[0], 7);
}

TEST(TopK, MaintainsDescendingOrder) {
  Store st(4);
  st.insert(5.0f, 1);
  st.insert(9.0f, 2);
  st.insert(7.0f, 3);
  ASSERT_EQ(st.count, 3);
  EXPECT_EQ(st.arr[0], 9.0f);
  EXPECT_EQ(st.arr[1], 7.0f);
  EXPECT_EQ(st.arr[2], 5.0f);
  EXPECT_EQ(st.sp[0], 2);
  EXPECT_EQ(st.sp[1], 3);
  EXPECT_EQ(st.sp[2], 1);
}

TEST(TopK, DuplicateStartpointKeepsMax) {
  Store st(4);
  st.insert(5.0f, 1);
  st.insert(9.0f, 1);  // same SP, larger: replaces and bubbles up
  st.insert(3.0f, 1);  // same SP, smaller: ignored
  EXPECT_EQ(st.count, 1);
  EXPECT_EQ(st.arr[0], 9.0f);
}

TEST(TopK, DuplicateStartpointBubblesUp) {
  Store st(4);
  st.insert(9.0f, 1);
  st.insert(5.0f, 2);
  st.insert(4.0f, 3);
  st.insert(12.0f, 3);  // SP 3 jumps to the front
  ASSERT_EQ(st.count, 3);
  EXPECT_EQ(st.sp[0], 3);
  EXPECT_EQ(st.arr[0], 12.0f);
  EXPECT_EQ(st.sp[1], 1);
  EXPECT_EQ(st.sp[2], 2);
}

TEST(TopK, FullListDropsSmallest) {
  Store st(2);
  st.insert(5.0f, 1);
  st.insert(9.0f, 2);
  st.insert(7.0f, 3);  // evicts 5.0 (SP 1)
  ASSERT_EQ(st.count, 2);
  EXPECT_EQ(st.arr[0], 9.0f);
  EXPECT_EQ(st.arr[1], 7.0f);
  st.insert(1.0f, 4);  // smaller than the smallest kept: rejected
  EXPECT_EQ(st.arr[1], 7.0f);
}

TEST(TopK, K1DegeneratesToMax) {
  Store st(1);
  for (const float v : {3.0f, 8.0f, 5.0f, 11.0f, 2.0f}) {
    st.insert(v, static_cast<std::int32_t>(v));
  }
  EXPECT_EQ(st.count, 1);
  EXPECT_EQ(st.arr[0], 11.0f);
}

/// Oracle: per startpoint keep the max arrival; then the Top-K list must be
/// exactly the K largest of those, in descending order.
class TopKOracle : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TopKOracle, MatchesMapOracle) {
  const auto [k, num_sps] = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    Store list(k);
    std::map<std::int32_t, float> oracle;
    for (int i = 0; i < 500; ++i) {
      const auto sp = static_cast<std::int32_t>(rng.uniform_int(0, num_sps - 1));
      const auto a = static_cast<float>(rng.uniform(0.0, 100.0));
      list.insert(a, sp);
      auto [it, inserted] = oracle.try_emplace(sp, a);
      if (!inserted && a > it->second) it->second = a;
    }

    std::vector<std::pair<float, std::int32_t>> expect;
    for (const auto& [sp, a] : oracle) expect.emplace_back(a, sp);
    std::sort(expect.begin(), expect.end(), std::greater<>());
    if (expect.size() > static_cast<std::size_t>(k)) {
      expect.resize(static_cast<std::size_t>(k));
    }

    ASSERT_EQ(list.count, static_cast<std::int32_t>(expect.size()));
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(list.arr[i], expect[i].first) << "seed " << seed << " i " << i;
      EXPECT_EQ(list.sp[i], expect[i].second);
    }
    // The auxiliary mu/sig payloads travel with their entry.
    for (std::int32_t i = 0; i < list.count; ++i) {
      EXPECT_EQ(list.mu[static_cast<std::size_t>(i)],
                list.arr[static_cast<std::size_t>(i)] - 1.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKOracle,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 32),
                       ::testing::Values(3, 16, 64)));

/// With K large enough to hold every startpoint, the list is exactly the
/// per-SP maxima (the property the K >= #startpoints engine tests rely on).
TEST(TopKOracle, ExactWhenKCoversAllStartpoints) {
  util::Rng rng(99);
  Store st(64);
  std::map<std::int32_t, float> oracle;
  for (int i = 0; i < 2000; ++i) {
    const auto sp = static_cast<std::int32_t>(rng.uniform_int(0, 49));
    const auto a = static_cast<float>(rng.uniform(0.0, 1000.0));
    st.insert(a, sp);
    auto [it, inserted] = oracle.try_emplace(sp, a);
    if (!inserted && a > it->second) it->second = a;
  }
  ASSERT_EQ(st.count, static_cast<std::int32_t>(oracle.size()));
  for (std::int32_t i = 0; i < st.count; ++i) {
    EXPECT_EQ(st.arr[static_cast<std::size_t>(i)],
              oracle.at(st.sp[static_cast<std::size_t>(i)]));
  }
}

/// merge_arcs against its definition: topk_insert of every candidate of
/// every arc in order. Parents have ragged counts (empty, partial and full
/// lists) in stride-padded SoA planes, and overlapping tags across arcs
/// exercise the in-list update path. The 8-candidate group pre-filter may
/// only reject candidates topk_insert would leave without effect, so the
/// lists must come out byte-identical and every candidate must be counted.
class MergeArcs : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(MergeArcs, MatchesPerCandidateInsert) {
  const std::int32_t k = GetParam();
  const std::size_t stride =
      (static_cast<std::size_t>(k) + 7) & ~std::size_t{7};
  const float nsigma = 3.0f;
  std::mt19937 rng(1234u + static_cast<unsigned>(k));
  std::uniform_real_distribution<float> val(-500.0f, 500.0f);
  std::uniform_real_distribution<float> dly(1.0f, 40.0f);

  for (int trial = 0; trial < 50; ++trial) {
    const int num_arcs = 1 + static_cast<int>(rng() % 12);
    const std::size_t plane = static_cast<std::size_t>(num_arcs) * stride;
    std::vector<float> parr(plane, 0.0f), pmu(plane, 0.0f), psig(plane, 0.0f);
    std::vector<std::int32_t> psp(plane, -1);
    std::vector<core::MergeArc> arcs(static_cast<std::size_t>(num_arcs));
    for (int a = 0; a < num_arcs; ++a) {
      const auto cnt = static_cast<std::int32_t>(rng() % (k + 1));
      std::vector<float> vs(static_cast<std::size_t>(cnt));
      for (auto& v : vs) v = val(rng);
      std::sort(vs.begin(), vs.end(), std::greater<>());
      const std::size_t b = static_cast<std::size_t>(a) * stride;
      for (std::int32_t j = 0; j < cnt; ++j) {
        const std::size_t i = b + static_cast<std::size_t>(j);
        parr[i] = vs[static_cast<std::size_t>(j)];
        pmu[i] = vs[static_cast<std::size_t>(j)] - 3.0f;
        psig[i] = 0.5f + 0.1f * dly(rng);
        psp[i] = static_cast<std::int32_t>(
            rng() % static_cast<unsigned>(2 * k + 1));
      }
      auto& arc = arcs[static_cast<std::size_t>(a)];
      arc.par = {&parr[b], &pmu[b], &psig[b], &psp[b], cnt};
      arc.am = dly(rng);
      const float s = 0.1f * dly(rng);
      arc.as2 = s * s;
    }

    for (const bool early : {false, true}) {
      Store got(k);
      Store want(k);
      core::MergeCounters mc;
      core::merge_arcs(got.view(), arcs.data(), num_arcs, nsigma, early, mc);
      std::uint64_t candidates = 0;
      std::uint64_t insert_prunes = 0;
      for (const auto& arc : arcs) {
        for (std::int32_t j = 0; j < arc.par.cnt; ++j) {
          const float mu = arc.par.mu[j] + arc.am;
          const float psig = arc.par.sig[j];
          const float sig = std::sqrt(psig * psig + arc.as2);
          const float arrival =
              early ? -(mu - nsigma * sig) : (mu + nsigma * sig);
          insert_prunes += static_cast<std::uint64_t>(
              core::topk_insert(want.view(), arrival, mu, sig, arc.par.sp[j]));
          ++candidates;
        }
      }
      ASSERT_EQ(got.count, want.count)
          << "trial " << trial << " early " << early;
      const auto fb = static_cast<std::size_t>(got.count) * sizeof(float);
      const auto ib =
          static_cast<std::size_t>(got.count) * sizeof(std::int32_t);
      EXPECT_EQ(std::memcmp(got.arr.data(), want.arr.data(), fb), 0)
          << "trial " << trial << " early " << early;
      EXPECT_EQ(std::memcmp(got.mu.data(), want.mu.data(), fb), 0);
      EXPECT_EQ(std::memcmp(got.sig.data(), want.sig.data(), fb), 0);
      EXPECT_EQ(std::memcmp(got.sp.data(), want.sp.data(), ib), 0);
      EXPECT_EQ(mc.merges, candidates);
      // Every candidate topk_insert prunes is pruned by merge_arcs too, by
      // the group pre-filter or by the same insert.
      EXPECT_GE(mc.prunes, insert_prunes);
      EXPECT_LE(mc.prunes, mc.merges);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, MergeArcs,
                         ::testing::Values(1, 2, 4, 8, 13, 16));

/// backward_cand against its formula: parent top-1 gathered through the
/// count index, -inf for a parent with an empty list.
TEST(BackwardCand, MatchesFormulaAndMapsEmptyParentsToNegInf) {
  const std::int32_t stride = 8;
  const std::int32_t parents = 257;
  const float nsigma = 3.0f;
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> val(-100.0f, 900.0f);
  std::vector<float> tk_mu(static_cast<std::size_t>(parents * stride));
  std::vector<float> tk_sig(tk_mu.size());
  std::vector<std::int32_t> tk_cnt(static_cast<std::size_t>(parents));
  for (auto& v : tk_mu) v = val(rng);
  for (auto& v : tk_sig) v = 0.5f + 0.001f * val(rng);
  for (std::size_t p = 0; p < tk_cnt.size(); ++p) {
    tk_cnt[p] = (p % 7 == 0) ? 0 : static_cast<std::int32_t>(1 + p % 4);
  }
  const std::int32_t slots = 1003;
  std::vector<std::int32_t> ci(static_cast<std::size_t>(slots));
  std::vector<float> amu(ci.size()), asig(ci.size());
  for (auto& c : ci) {
    c = static_cast<std::int32_t>(rng() % static_cast<unsigned>(parents));
  }
  for (auto& x : amu) x = 0.1f * val(rng);
  for (auto& x : asig) x = 0.001f * std::abs(val(rng));
  std::vector<float> out(ci.size(), 0.0f);
  core::backward_cand(tk_mu.data(), tk_sig.data(), tk_cnt.data(), ci.data(),
                      stride, amu.data(), asig.data(), slots, nsigma,
                      out.data());
  int empty = 0;
  for (std::size_t s = 0; s < out.size(); ++s) {
    const auto c = static_cast<std::size_t>(ci[s]);
    if (tk_cnt[c] == 0) {
      ++empty;
      EXPECT_EQ(out[s], -std::numeric_limits<float>::infinity())
          << "slot " << s;
      continue;
    }
    const std::size_t b = c * static_cast<std::size_t>(stride);
    const float want =
        tk_mu[b] + amu[s] +
        nsigma * std::sqrt(tk_sig[b] * tk_sig[b] + asig[s] * asig[s]);
    EXPECT_EQ(out[s], want) << "slot " << s;
  }
  EXPECT_GT(empty, 0);
}

}  // namespace
}  // namespace insta
