#include "kernels/quant.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/simd.hpp"

namespace hybrimoe::kernels {

namespace {

/// Quantize exactly one block of up to kValues entries (missing tail = 0).
Q4Block quantize_block(std::span<const float> values) {
  Q4Block block;
  float amax = 0.0f;
  for (const float v : values) amax = std::max(amax, std::abs(v));
  // Q4_0 convention: codes in [0,15] represent q-8 in [-8,7] times scale.
  block.scale = amax / 8.0f;
  const float inv = block.scale > 0.0f ? 1.0f / block.scale : 0.0f;
  for (std::size_t i = 0; i < Q4Block::kValues; ++i) {
    const float v = i < values.size() ? values[i] : 0.0f;
    const int q = std::clamp(static_cast<int>(std::lround(v * inv)) + 8, 0, 15);
    const auto code = static_cast<std::uint8_t>(q);
    if (i % 2 == 0) {
      block.packed[i / 2] = code;
    } else {
      block.packed[i / 2] = static_cast<std::uint8_t>(block.packed[i / 2] | (code << 4));
    }
  }
  return block;
}

float decode(const Q4Block& block, std::size_t i) {
  const std::uint8_t byte = block.packed[i / 2];
  const int code = (i % 2 == 0) ? (byte & 0x0F) : (byte >> 4);
  return static_cast<float>(code - 8) * block.scale;
}

}  // namespace

std::vector<Q4Block> q4_quantize_row(std::span<const float> values) {
  const std::size_t blocks = (values.size() + Q4Block::kValues - 1) / Q4Block::kValues;
  std::vector<Q4Block> out;
  out.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * Q4Block::kValues;
    const std::size_t len = std::min(Q4Block::kValues, values.size() - begin);
    out.push_back(quantize_block(values.subspan(begin, len)));
  }
  return out;
}

std::vector<float> q4_dequantize_row(std::span<const Q4Block> blocks, std::size_t count) {
  HYBRIMOE_REQUIRE(blocks.size() * Q4Block::kValues >= count,
                   "q4_dequantize_row: not enough blocks");
  std::vector<float> out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = decode(blocks[i / Q4Block::kValues], i % Q4Block::kValues);
  return out;
}

QuantizedMatrix QuantizedMatrix::quantize(const Tensor& dense) {
  QuantizedMatrix q;
  q.rows_ = dense.rows();
  q.cols_ = dense.cols();
  q.blocks_per_row_ = (dense.cols() + Q4Block::kValues - 1) / Q4Block::kValues;
  q.blocks_.reserve(q.rows_ * q.blocks_per_row_);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    auto row_blocks = q4_quantize_row(dense.row(r));
    q.blocks_.insert(q.blocks_.end(), row_blocks.begin(), row_blocks.end());
  }
  return q;
}

Tensor QuantizedMatrix::dequantize() const {
  Tensor dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::span<const Q4Block> row_blocks{blocks_.data() + r * blocks_per_row_,
                                              blocks_per_row_};
    auto values = q4_dequantize_row(row_blocks, cols_);
    std::copy(values.begin(), values.end(), dense.row(r).begin());
  }
  return dense;
}

std::vector<float> QuantizedMatrix::gemv(std::span<const float> x) const {
  std::vector<float> y(rows_, 0.0f);
  gemv_into(x, y);
  return y;
}

void QuantizedMatrix::gemv_into(std::span<const float> x, std::span<float> y) const {
  HYBRIMOE_REQUIRE(x.size() == cols_, "quantized gemv dimension mismatch");
  HYBRIMOE_REQUIRE(y.size() == rows_, "quantized gemv output dimension mismatch");
  simd::q4_gemv(blocks_, rows_, blocks_per_row_, x, y);
}

}  // namespace hybrimoe::kernels
