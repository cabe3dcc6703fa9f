#pragma once

// Kept only for perfbench's `kernel_flavor` run-record field, which still
// asks which Top-K kernel flavor runs. There is one flavor, the scalar
// kernels of core/topk.cpp, so the answer is always "scalar".

namespace insta::util::simd {

enum class SimdMode { kAuto };

/// True when a vector kernel flavor runs; there is none.
[[nodiscard]] constexpr bool resolve(SimdMode /*requested*/) { return false; }

}  // namespace insta::util::simd
