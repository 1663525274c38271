/// SIMD-vs-scalar equivalence for every dispatched primitive in
/// kernels/simd.hpp: the AVX2 variants must agree with the portable scalar
/// loops to within the ulp bounds the header documents, across every length
/// 1..67 (straddling all vector-width remainders), on unaligned spans and on
/// denormal / negative-zero inputs. Both dispatch levels are exercised via
/// ForcedLevel; when the host lacks AVX2 the comparison cases skip (the
/// scalar path is then the only variant and is covered by ops/quant tests).
/// The matrix form `gemv` is held to a stricter contract: at each level every
/// output float is bit-identical to `dot` over its row.

#include "kernels/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "kernels/ops.hpp"
#include "kernels/quant.hpp"
#include "kernels/tensor.hpp"
#include "util/rng.hpp"

namespace hybrimoe::kernels::simd {
namespace {

bool avx2_available() { return level_available(IsaLevel::Avx2); }

/// Map a float onto a monotonically ordered integer line so that adjacent
/// representable floats differ by exactly 1 (the classic ulp metric; +0 and
/// -0 coincide).
std::int64_t ordered(float f) {
  const auto bits = std::bit_cast<std::uint32_t>(f);
  return (bits & 0x8000'0000u) ? -static_cast<std::int64_t>(bits & 0x7FFF'FFFFu)
                               : static_cast<std::int64_t>(bits);
}

std::int64_t ulp_distance(float a, float b) {
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<std::int64_t>::max();
  return std::abs(ordered(a) - ordered(b));
}

/// The mixed equivalence criterion: within `max_ulp` ulp, or within an
/// absolute epsilon (needed where one variant flushes to a tiny value and the
/// other to zero — e.g. silu at large negative inputs, where the vector exp
/// clamps while libm overflows to inf).
void expect_close(float a, float b, std::int64_t max_ulp, double max_abs,
                  const char* what, std::size_t index) {
  EXPECT_TRUE(ulp_distance(a, b) <= max_ulp ||
              std::abs(static_cast<double>(a) - b) <= max_abs)
      << what << " diverges at index " << index << ": scalar=" << a
      << " simd=" << b << " (" << ulp_distance(a, b) << " ulp)";
}

/// Deterministic test vector with a mix of magnitudes and signs.
std::vector<float> make_values(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>(rng.gaussian(0.0, 1.0 + static_cast<double>(i % 5)));
  return v;
}

/// A gemv case whose rows cancel: x holds signed powers of two and each row
/// hides up to four pairs of huge products (+-2^30..2^60) that cancel
/// exactly, on top of unit-scale values. Any change in how a row's dot is
/// associated then moves the result by far more than a float ulp — with
/// unit-scale data alone it would hide in the low bits of the double.
struct CancellingCase {
  std::vector<float> w, x;
};

CancellingCase make_cancelling(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  CancellingCase c;
  c.x.resize(cols);
  for (float& v : c.x)
    v = std::ldexp(rng.bernoulli(0.5) ? 1.0f : -1.0f,
                   static_cast<int>(rng.uniform_index(7)) - 3);
  c.w.resize(rows * cols);
  for (float& v : c.w) v = static_cast<float>(rng.gaussian());
  std::vector<std::size_t> cols_order(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = c.w.data() + r * cols;
    std::iota(cols_order.begin(), cols_order.end(), std::size_t{0});
    for (std::size_t k = cols; k > 1; --k)
      std::swap(cols_order[k - 1], cols_order[rng.uniform_index(k)]);
    for (std::size_t p = 0; p + 1 < cols && p < 8; p += 2) {
      const std::size_t i = cols_order[p], j = cols_order[p + 1];
      const float mantissa = 1.0f + static_cast<float>(rng.uniform_index(256)) / 256.0f;
      const float product =
          std::ldexp(mantissa, 30 + static_cast<int>(rng.uniform_index(31)));
      row[i] = product / c.x[i];
      row[j] = -product / c.x[j];
    }
  }
  return c;
}

/// An unaligned view: one float past the vector's (typically 16/32-byte
/// aligned) base, so 256-bit loads cannot be aligned. All AVX2 paths must use
/// unaligned loads for this to pass under UBSan/ASan.
std::span<float> unaligned(std::vector<float>& storage, std::size_t n) {
  storage.assign(n + 1, 0.0f);
  return std::span<float>(storage).subspan(1);
}

/// Inputs that stress the edges of float: denormals, signed zeros, and
/// values around the vector-exp clamp range.
std::vector<float> edge_values() {
  return {0.0f,
          -0.0f,
          std::numeric_limits<float>::denorm_min(),
          -std::numeric_limits<float>::denorm_min(),
          1e-41f,
          -1e-41f,
          std::numeric_limits<float>::min(),
          -std::numeric_limits<float>::min(),
          1e-20f,
          -1e-20f,
          1.5f,
          -1.5f,
          30.0f,
          -30.0f,
          88.0f,
          -88.0f,
          100.0f,
          -100.0f};
}

// ---------------------------------------------------------------------------
// Dispatch plumbing

TEST(SimdDispatchTest, LevelNames) {
  EXPECT_STREQ(to_string(IsaLevel::Scalar), "scalar");
  EXPECT_STREQ(to_string(IsaLevel::Avx2), "avx2");
}

TEST(SimdDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_TRUE(level_available(IsaLevel::Scalar));
  EXPECT_LE(static_cast<int>(detected_level()),
            static_cast<int>(compiled_level()));
}

TEST(SimdDispatchTest, ForcedLevelPinsAndRestores) {
  const IsaLevel before = active_level();
  {
    ForcedLevel pin(IsaLevel::Scalar);
    EXPECT_EQ(active_level(), IsaLevel::Scalar);
  }
  EXPECT_EQ(active_level(), before);
  if (avx2_available()) {
    ForcedLevel pin(IsaLevel::Avx2);
    EXPECT_EQ(active_level(), IsaLevel::Avx2);
  }
}

TEST(SimdDispatchTest, ForcingUnavailableLevelThrows) {
  if (avx2_available()) GTEST_SKIP() << "AVX2 available; nothing to reject";
  EXPECT_THROW(force_level(IsaLevel::Avx2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Per-primitive sweeps over every length 1..67 (covers all 16/8/4-lane
// remainders on both sides of a full 64-wide body).

class SimdSweepTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!avx2_available())
      GTEST_SKIP() << "host has no AVX2; scalar is the only variant";
  }
};

TEST_P(SimdSweepTest, DotMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto a = make_values(n, 100 + n);
  const auto b = make_values(n, 200 + n);
  double scalar = 0.0, vectorized = 0.0;
  {
    ForcedLevel pin(IsaLevel::Scalar);
    scalar = dot(a, b);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    vectorized = dot(a, b);
  }
  // Both variants accumulate float products exactly in double; only the
  // association differs, so after rounding to float they agree to a few ulp.
  expect_close(static_cast<float>(scalar), static_cast<float>(vectorized), 4,
               1e-9, "dot", 0);
  EXPECT_NEAR(scalar, vectorized, 1e-10 * (1.0 + std::abs(scalar)));
}

TEST_P(SimdSweepTest, SiluMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto src = make_values(n, 300 + n);
  std::vector<float> scalar_out(src), simd_out(src);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    silu(scalar_out);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    silu(simd_out);
  }
  for (std::size_t i = 0; i < n; ++i)
    expect_close(scalar_out[i], simd_out[i], 64, 1e-7, "silu", i);
}

TEST_P(SimdSweepTest, SwigluMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto gate = make_values(n, 400 + n);
  const auto up = make_values(n, 500 + n);
  std::vector<float> scalar_out(n), simd_out(n);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    swiglu(gate, up, scalar_out);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    swiglu(gate, up, simd_out);
  }
  for (std::size_t i = 0; i < n; ++i)
    expect_close(scalar_out[i], simd_out[i], 64, 1e-6, "swiglu", i);
}

TEST_P(SimdSweepTest, RmsnormMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto src = make_values(n, 600 + n);
  std::vector<float> scalar_out(src), simd_out(src);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    rmsnorm(scalar_out, 1e-6f);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    rmsnorm(simd_out, 1e-6f);
  }
  // Sum of squares is double-accumulated in both variants; the normalisation
  // multiply differs by at most one rounding.
  for (std::size_t i = 0; i < n; ++i)
    expect_close(scalar_out[i], simd_out[i], 4, 1e-9, "rmsnorm", i);
}

TEST_P(SimdSweepTest, Q4DotMatchesScalarWithinUlps) {
  const std::size_t n = GetParam();
  const auto weights = make_values(n, 700 + n);
  const auto x = make_values(n, 800 + n);
  const auto blocks = q4_quantize_row(weights);
  double scalar = 0.0, vectorized = 0.0;
  {
    ForcedLevel pin(IsaLevel::Scalar);
    scalar = q4_dot(blocks, x);
  }
  {
    ForcedLevel pin(IsaLevel::Avx2);
    vectorized = q4_dot(blocks, x);
  }
  expect_close(static_cast<float>(scalar), static_cast<float>(vectorized), 4,
               1e-9, "q4_dot", 0);
  EXPECT_NEAR(scalar, vectorized, 1e-10 * (1.0 + std::abs(scalar)));
}

INSTANTIATE_TEST_SUITE_P(Lengths1To67, SimdSweepTest,
                         ::testing::Range(std::size_t{1}, std::size_t{68}));

// ---------------------------------------------------------------------------
// Unaligned spans: every vector load/store must be alignment-agnostic.

TEST(SimdUnalignedTest, AllPrimitivesAcceptMisalignedSpans) {
  if (!avx2_available()) GTEST_SKIP() << "host has no AVX2";
  const std::size_t n = 53;  // odd length on top of the odd base offset
  const auto values = make_values(n, 42);
  const auto other = make_values(n, 43);

  std::vector<float> storage_a, storage_b, storage_out;
  const auto a = unaligned(storage_a, n);
  const auto b = unaligned(storage_b, n);
  const auto out = unaligned(storage_out, n);
  std::copy(values.begin(), values.end(), a.begin());
  std::copy(other.begin(), other.end(), b.begin());

  ForcedLevel pin(IsaLevel::Avx2);
  const double d = dot(a, b);
  EXPECT_TRUE(std::isfinite(d));
  swiglu(a, b, out);
  silu(a);
  rmsnorm(b, 1e-6f);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(std::isfinite(a[i]));
    EXPECT_TRUE(std::isfinite(b[i]));
    EXPECT_TRUE(std::isfinite(out[i]));
  }

  // And the unaligned results equal the aligned ones (same math, different
  // addresses).
  std::vector<float> aligned_a(values), aligned_b(other), aligned_out(n);
  EXPECT_EQ(dot(aligned_a, aligned_b), d);
  swiglu(aligned_a, aligned_b, aligned_out);
  silu(aligned_a);
  rmsnorm(aligned_b, 1e-6f);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(aligned_a[i], a[i]) << "silu aligned/unaligned mismatch at " << i;
    EXPECT_EQ(aligned_b[i], b[i]) << "rmsnorm aligned/unaligned mismatch at " << i;
    EXPECT_EQ(aligned_out[i], out[i]) << "swiglu aligned/unaligned mismatch at " << i;
  }
}

// ---------------------------------------------------------------------------
// Denormals, signed zeros and clamp-range extremes.

TEST(SimdEdgeInputTest, DotHandlesDenormalsAndSignedZeros) {
  const auto edges = edge_values();
  std::vector<float> ones(edges.size(), 1.0f);
  double scalar = 0.0;
  {
    ForcedLevel pin(IsaLevel::Scalar);
    scalar = dot(edges, ones);
    EXPECT_TRUE(std::isfinite(scalar));
  }
  if (!avx2_available()) return;
  ForcedLevel pin(IsaLevel::Avx2);
  const double vectorized = dot(edges, ones);
  EXPECT_NEAR(scalar, vectorized, 1e-10 * (1.0 + std::abs(scalar)));
}

TEST(SimdEdgeInputTest, SiluHandlesDenormalsAndClampRange) {
  const auto edges = edge_values();
  std::vector<float> scalar_out(edges), simd_out(edges);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    silu(scalar_out);
  }
  for (std::size_t i = 0; i < edges.size(); ++i)
    EXPECT_TRUE(std::isfinite(scalar_out[i])) << "input " << edges[i];
  // silu(-0.0) = -0.0 / 2: the sign of zero must survive.
  EXPECT_TRUE(std::signbit(scalar_out[1]));
  if (!avx2_available()) return;
  {
    ForcedLevel pin(IsaLevel::Avx2);
    silu(simd_out);
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_TRUE(std::isfinite(simd_out[i])) << "input " << edges[i];
    // Large-|x| inputs hit the vector exp clamp, where one side flushes to
    // zero and the other to ~1e-37 — covered by the absolute term.
    expect_close(scalar_out[i], simd_out[i], 64, 1e-7, "silu-edge", i);
  }
}

TEST(SimdEdgeInputTest, RmsnormOfDenormalsStaysFinite) {
  // A vector of pure denormals: mean square underflows to ~0 and eps
  // dominates, so the result must stay finite (and tiny) at both levels.
  std::vector<float> scalar_vals(16, std::numeric_limits<float>::denorm_min());
  std::vector<float> simd_vals(scalar_vals);
  {
    ForcedLevel pin(IsaLevel::Scalar);
    rmsnorm(scalar_vals, 1e-6f);
  }
  for (const float v : scalar_vals) EXPECT_TRUE(std::isfinite(v));
  if (!avx2_available()) return;
  {
    ForcedLevel pin(IsaLevel::Avx2);
    rmsnorm(simd_vals, 1e-6f);
  }
  for (std::size_t i = 0; i < simd_vals.size(); ++i) {
    EXPECT_TRUE(std::isfinite(simd_vals[i]));
    expect_close(scalar_vals[i], simd_vals[i], 4, 1e-9, "rmsnorm-denormal", i);
  }
}

// ---------------------------------------------------------------------------
// gemv: bit-identical to a loop of dot over the rows, at every level.

/// Levels this host can run (Scalar always, Avx2 when detected).
std::vector<IsaLevel> host_levels() {
  std::vector<IsaLevel> levels{IsaLevel::Scalar};
  if (avx2_available()) levels.push_back(IsaLevel::Avx2);
  return levels;
}

/// The per-row reference: float(dot(row, x)) for every row at the active level.
std::vector<float> gemv_by_rows(std::span<const float> w, std::size_t rows,
                                std::span<const float> x) {
  std::vector<float> y(rows);
  for (std::size_t r = 0; r < rows; ++r)
    y[r] = static_cast<float>(dot(w.subspan(r * x.size(), x.size()), x));
  return y;
}

/// At every host level, gemv(w, x) must equal gemv_by_rows bit for bit.
void expect_gemv_bitwise(std::span<const float> w, std::size_t rows,
                         std::span<const float> x) {
  for (const IsaLevel level : host_levels()) {
    ForcedLevel pin(level);
    const auto expected = gemv_by_rows(w, rows, x);
    std::vector<float> got(rows, std::numeric_limits<float>::quiet_NaN());
    gemv(w, rows, x.size(), x, got);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), rows * sizeof(float)), 0)
        << rows << "x" << x.size() << " at level " << to_string(level);
  }
}

class SimdGemvColsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdGemvColsTest, RowsAreBitIdenticalToDot) {
  const std::size_t cols = GetParam();
  const auto x = make_values(cols, 900 + cols);
  for (const std::size_t rows : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                 std::size_t{128}, std::size_t{512}}) {
    expect_gemv_bitwise(make_values(rows * cols, 1000 + rows * 7 + cols), rows, x);
    const auto c = make_cancelling(rows, cols, 1050 + rows * 7 + cols);
    expect_gemv_bitwise(c.w, rows, c.x);
  }
}

INSTANTIATE_TEST_SUITE_P(Cols1To67AndWide, SimdGemvColsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                           14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
                                           25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
                                           36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46,
                                           47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57,
                                           58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 128,
                                           512, 1024));

TEST(SimdGemvTest, MatricesAroundThePrefetchDistance) {
  // The AVX2 variant prefetches 4 KiB (1024 floats) ahead and must stop at
  // the matrix end: below that size no prefetch is issued, at exactly that
  // size the first candidate address is one past the end, and 300-float rows
  // straddle the 1024-float mark (row 3 spans floats 900..1199).
  struct Shape {
    std::size_t rows, cols;
  };
  for (const Shape s : {Shape{4, 64}, Shape{8, 128}, Shape{1, 1024}, Shape{5, 300},
                        Shape{7, 1000}, Shape{3, 1040}}) {
    const auto c = make_cancelling(s.rows, s.cols, 1100 + s.rows + s.cols);
    expect_gemv_bitwise(c.w, s.rows, c.x);
  }
}

TEST(SimdGemvTest, UnalignedInputSubspan) {
  const std::size_t rows = 9, cols = 53;
  const auto c = make_cancelling(rows, cols, 44);
  const auto& values = c.x;
  const auto& w_values = c.w;
  std::vector<float> storage;
  const auto x = unaligned(storage, cols);
  std::copy(values.begin(), values.end(), x.begin());
  std::vector<float> w_storage;
  const auto w = unaligned(w_storage, rows * cols);
  std::copy(w_values.begin(), w_values.end(), w.begin());
  expect_gemv_bitwise(w, rows, x);
  // And the unaligned result equals the aligned one.
  for (const IsaLevel level : host_levels()) {
    ForcedLevel pin(level);
    std::vector<float> aligned_y(rows), unaligned_y(rows);
    gemv(w_values, rows, cols, values, aligned_y);
    gemv(w, rows, cols, x, unaligned_y);
    EXPECT_EQ(std::memcmp(aligned_y.data(), unaligned_y.data(), rows * sizeof(float)), 0)
        << "level " << to_string(level);
  }
}

TEST(SimdGemvTest, DenormalsAndSignedZeros) {
  const auto edges = edge_values();
  const std::size_t cols = edges.size();
  // Rows: the edge values themselves, their negation, all -0.0, and a mix
  // scaled into the denormal range — against x = edges and x = all ones.
  std::vector<float> w;
  for (const float v : edges) w.push_back(v);
  for (const float v : edges) w.push_back(-v);
  for (std::size_t i = 0; i < cols; ++i) w.push_back(-0.0f);
  for (std::size_t i = 0; i < cols; ++i)
    w.push_back(std::numeric_limits<float>::denorm_min() * static_cast<float>(i));
  const std::size_t rows = w.size() / cols;
  expect_gemv_bitwise(w, rows, edges);
  const std::vector<float> ones(cols, 1.0f);
  expect_gemv_bitwise(w, rows, ones);
  const std::vector<float> neg_zeros(cols, -0.0f);
  expect_gemv_bitwise(w, rows, neg_zeros);
}

TEST(SimdGemvTest, GemvIntoEqualsPerRowComposition) {
  for (const std::size_t cols : {std::size_t{32}, std::size_t{77}, std::size_t{512}}) {
    const auto c = make_cancelling(128, cols, 47 + cols);
    Tensor t(128, cols);
    std::copy(c.w.begin(), c.w.end(), t.flat().begin());
    const auto& x = c.x;
    for (const IsaLevel level : host_levels()) {
      ForcedLevel pin(level);
      std::vector<float> expected(t.rows());
      for (std::size_t r = 0; r < t.rows(); ++r)
        expected[r] = static_cast<float>(dot(t.row(r), x));
      std::vector<float> got(t.rows());
      gemv_into(t, x, got);
      EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size() * sizeof(float)), 0)
          << "cols " << cols << " at level " << to_string(level);
    }
  }
}

}  // namespace
}  // namespace hybrimoe::kernels::simd
