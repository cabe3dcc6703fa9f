#include "core/topk.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace insta::core {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// One group of up to 8 prepared candidates, staged for the insertion loop.
struct CandGroup {
  float arr[8];
  float mu[8];
  float sig[8];
};

/// The threshold of the group pre-filter: with a full list, a candidate
/// whose arrival does not beat the smallest kept entry cannot change the
/// list — every kept entry is >= that minimum, so neither the
/// startpoint-update path nor the insert path of topk_insert would fire.
inline float group_threshold(const TopKView& dst) {
  return (*dst.count == dst.k) ? dst.arr[dst.k - 1] : kNegInf;
}

/// Inserts the kept candidates of one group in ascending order (the
/// sequential candidate order, which is what keeps the result identical to
/// per-candidate topk_insert calls).
inline void insert_group(const TopKView& dst, const CandGroup& cg,
                         const std::int32_t* sp, unsigned keep,
                         MergeCounters& mc) {
  while (keep != 0) {
    const int l = __builtin_ctz(keep);
    keep &= keep - 1;
    mc.prunes += static_cast<std::uint64_t>(
        topk_insert(dst, cg.arr[l], cg.mu[l], cg.sig[l], sp[l]));
  }
}

}  // namespace

void merge_arcs(const TopKView& dst, const MergeArc* arcs, int n,
                float nsigma, bool early, MergeCounters& mc) {
  for (int a = 0; a < n; ++a) {
    const MergeArc& ma = arcs[a];
    if (a + 1 < n) {
      // The next arc's parent planes are the only hard-to-predict reads of
      // the merge (CSR-indirect); start pulling them in now.
      __builtin_prefetch(arcs[a + 1].par.mu);
      __builtin_prefetch(arcs[a + 1].par.sig);
    }
    const std::int32_t cnt = ma.par.cnt;
    mc.merges += static_cast<std::uint64_t>(cnt);
    for (std::int32_t kk = 0; kk < cnt; kk += 8) {
      const int g = static_cast<int>(std::min<std::int32_t>(8, cnt - kk));
      const float thr = group_threshold(dst);
      CandGroup cg;
      unsigned keep = 0;
      for (int l = 0; l < g; ++l) {
        const float pmu = ma.par.mu[kk + l];
        const float psig = ma.par.sig[kk + l];
        const float mu = pmu + ma.am;
        const float sig = std::sqrt(psig * psig + ma.as2);
        const float arrival =
            early ? -(mu - nsigma * sig) : (mu + nsigma * sig);
        cg.arr[l] = arrival;
        cg.mu[l] = mu;
        cg.sig[l] = sig;
        if (arrival > thr) keep |= 1u << static_cast<unsigned>(l);
      }
      mc.prunes +=
          static_cast<std::uint64_t>(g - __builtin_popcount(keep));
      insert_group(dst, cg, ma.par.sp + kk, keep, mc);
    }
  }
}

void backward_cand(const float* tk_mu, const float* tk_sig,
                   const std::int32_t* tk_cnt, const std::int32_t* ci,
                   std::int32_t stride, const float* amu, const float* asig,
                   std::int32_t n, float nsigma, float* out_cand) {
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t c = ci[i];
    if (tk_cnt[c] == 0) {
      out_cand[i] = kNegInf;
      continue;
    }
    const std::size_t base =
        static_cast<std::size_t>(c) * static_cast<std::size_t>(stride);
    const float as = asig[i];
    out_cand[i] = tk_mu[base] + amu[i] +
                  nsigma * std::sqrt(tk_sig[base] * tk_sig[base] + as * as);
  }
}

}  // namespace insta::core
