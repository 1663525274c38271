/// Quantized-math error bounds on the hot path: QuantizedMatrix::gemv — at
/// BOTH dispatch levels — must stay within a bound *derived from
/// q4_error_bound* of the dense ops::gemv over the original weights, and must
/// match the gemv over its own dequantized weights to float-roundoff
/// accuracy. Round-trip accuracy is pinned at the block-boundary widths
/// 31/32/33 where padding and tail handling change shape, and there the
/// matrix gemv must also be bit-identical to per-row q4_dot at each level.

#include "kernels/quant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/ops.hpp"
#include "kernels/simd.hpp"
#include "util/rng.hpp"

namespace hybrimoe::kernels {
namespace {

std::vector<float> random_vector(util::Rng& rng, std::size_t n, double sigma = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.gaussian(0.0, sigma));
  return v;
}

/// Worst-case |(W_q - W) x| for one row, summed block by block: each block's
/// per-value quantization error is bounded by q4_error_bound(block amax), so
/// the row's gemv error is bounded by sum_b bound_b * sum_{i in b} |x_i|.
double row_gemv_bound(std::span<const float> row, std::span<const float> x) {
  double bound = 0.0;
  for (std::size_t start = 0; start < row.size(); start += Q4Block::kValues) {
    const std::size_t end = std::min(row.size(), start + Q4Block::kValues);
    float amax = 0.0f;
    double abs_x = 0.0;
    for (std::size_t i = start; i < end; ++i) {
      amax = std::max(amax, std::abs(row[i]));
      abs_x += std::abs(x[i]);
    }
    bound += q4_error_bound(amax) * abs_x;
  }
  return bound;
}

void check_gemv_within_derived_bound(std::size_t rows, std::size_t cols,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  const Tensor dense = Tensor::randn(rng, rows, cols);
  const auto q = QuantizedMatrix::quantize(dense);
  const auto x = random_vector(rng, cols);
  const auto exact = gemv(dense, x);

  for (const auto level :
       {simd::IsaLevel::Scalar, simd::IsaLevel::Avx2}) {
    if (!simd::level_available(level)) continue;
    simd::ForcedLevel pin(level);
    const auto approx = q.gemv(x);
    ASSERT_EQ(approx.size(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const double bound = row_gemv_bound(dense.row(r), x) + 1e-5;
      EXPECT_LE(std::abs(approx[r] - exact[r]), bound)
          << "row " << r << " at level " << simd::to_string(level)
          << " for shape " << rows << "x" << cols;
    }
  }
}

TEST(QuantGemvBoundTest, WithinDerivedBoundOfDenseGemv) {
  check_gemv_within_derived_bound(16, 96, 21);
  check_gemv_within_derived_bound(8, 256, 22);
}

TEST(QuantGemvBoundTest, BlockBoundaryWidths) {
  // 31 (partial single block), 32 (exact block), 33 (one value spills into a
  // second block) — the widths where padding and tail handling change shape.
  check_gemv_within_derived_bound(8, 31, 31);
  check_gemv_within_derived_bound(8, 32, 32);
  check_gemv_within_derived_bound(8, 33, 33);
}

TEST(QuantGemvBoundTest, MatchesGemvOverOwnDequantizedWeights) {
  // Against its own dequantized weights the quantization error cancels:
  // only the accumulation differs (q4_dot decodes exactly the same values),
  // so both levels must agree with the dense gemv to float roundoff.
  util::Rng rng(23);
  const Tensor dense = Tensor::randn(rng, 12, 80);
  const auto q = QuantizedMatrix::quantize(dense);
  const auto x = random_vector(rng, 80);
  const auto via_dense = gemv(q.dequantize(), x);
  for (const auto level :
       {simd::IsaLevel::Scalar, simd::IsaLevel::Avx2}) {
    if (!simd::level_available(level)) continue;
    simd::ForcedLevel pin(level);
    const auto direct = q.gemv(x);
    ASSERT_EQ(direct.size(), via_dense.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
      EXPECT_NEAR(direct[i], via_dense[i], 2e-4)
          << "index " << i << " at level " << simd::to_string(level);
  }
}

TEST(QuantGemvBoundTest, GemvIntoEqualsGemv) {
  util::Rng rng(24);
  const auto q = QuantizedMatrix::quantize(Tensor::randn(rng, 6, 64));
  const auto x = random_vector(rng, 64);
  const auto allocated = q.gemv(x);
  std::vector<float> preallocated(6);
  q.gemv_into(x, preallocated);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(allocated[i], preallocated[i]) << "index " << i;
}

TEST(QuantGemvBoundTest, BitIdenticalToPerRowQ4DotAtBlockBoundaries) {
  // 300 rows of one or two 20-byte blocks stream past the 4 KiB prefetch
  // distance, so the prefetching AVX2 path is exercised up to the matrix end.
  for (const std::size_t cols : {std::size_t{31}, std::size_t{32}, std::size_t{33}}) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{7}, std::size_t{300}}) {
      util::Rng rng(50 + cols + rows);
      const auto q = QuantizedMatrix::quantize(Tensor::randn(rng, rows, cols));
      const auto x = random_vector(rng, cols);
      for (const auto level : {simd::IsaLevel::Scalar, simd::IsaLevel::Avx2}) {
        if (!simd::level_available(level)) continue;
        simd::ForcedLevel pin(level);
        std::vector<float> expected(rows);
        for (std::size_t r = 0; r < rows; ++r)
          expected[r] = static_cast<float>(simd::q4_dot(q.row_blocks(r), x));
        std::vector<float> got(rows);
        q.gemv_into(x, got);
        EXPECT_EQ(std::memcmp(got.data(), expected.data(), rows * sizeof(float)), 0)
            << rows << "x" << cols << " at level " << simd::to_string(level);
      }
    }
  }
}

TEST(QuantRoundTripBoundaryTest, Widths31And32And33) {
  for (const std::size_t width : {std::size_t{31}, std::size_t{32}, std::size_t{33}}) {
    util::Rng rng(40 + width);
    std::vector<float> values(width);
    float amax = 0.0f;
    for (float& v : values) {
      v = static_cast<float>(rng.gaussian(0.0, 2.0));
      amax = std::max(amax, std::abs(v));
    }
    const auto blocks = q4_quantize_row(values);
    EXPECT_EQ(blocks.size(), width <= 32 ? 1U : 2U);
    const auto back = q4_dequantize_row(blocks, width);
    ASSERT_EQ(back.size(), width);
    const double bound = q4_error_bound(amax);
    for (std::size_t i = 0; i < width; ++i)
      EXPECT_LE(std::abs(values[i] - back[i]), bound)
          << "width " << width << " index " << i;
    // Padding codes past the logical width must decode to exactly zero so
    // gemv over padded blocks never picks up phantom contributions.
    const auto padded = q4_dequantize_row(blocks, blocks.size() * Q4Block::kValues);
    for (std::size_t i = width; i < padded.size(); ++i)
      EXPECT_EQ(padded[i], 0.0f) << "padding index " << i;
  }
}

}  // namespace
}  // namespace hybrimoe::kernels
