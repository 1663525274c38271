#pragma once

/// \file simd.hpp
/// Runtime-dispatched SIMD primitives behind the hot `kernels::ops` paths and
/// the quantized GEMV. Every primitive has a portable scalar implementation
/// and (on x86-64 GCC/Clang builds) an AVX2+FMA variant compiled with
/// per-function target attributes, so one binary runs everywhere and picks
/// the fastest available path at runtime via cpuid. Dispatch is process-wide
/// and can be pinned for tests (`force_level`), which is how CI exercises
/// both paths on any host.
///
/// Numeric contract: the scalar and AVX2 variants of each primitive are
/// *equivalent within documented ulp bounds*, not bitwise identical — vector
/// accumulation reorders float/double sums and the vectorized exp uses a
/// polynomial instead of libm. Within one process the dispatched result is
/// deterministic (same level, same association every call), which is what
/// keeps execution digests bit-identical across execution modes and worker
/// counts. The bounds are pinned by tests/kernels/simd_equivalence_test.cpp:
///  * dot / rmsnorm / q4_dot: double accumulation in both variants, only the
///    association differs — a few ulp after the final rounding to float;
///  * silu / swiglu: the AVX2 exp polynomial is accurate to ~2 ulp over the
///    clamped range [-87.3, 88.7], so outputs agree to ~1e-6 relative.
///
/// Row contract: at either level, every output of gemv / q4_gemv is bit for
/// bit float(dot(row, x)) / float(q4_dot(row blocks, x)) at that same level —
/// the matrix forms only batch the rows (see their docs). Trace synthesis
/// routes on the gate gemv, so a one-ulp drift here would move every golden.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "kernels/quant.hpp"

namespace hybrimoe::kernels::simd {

/// Instruction-set level a dispatched primitive can run at.
enum class IsaLevel : std::uint8_t {
  Scalar,  ///< portable C++ loops (always available)
  Avx2,    ///< 256-bit AVX2 + FMA vector paths (x86-64 GCC/Clang builds)
};

/// Printable name of a level ("scalar" / "avx2").
[[nodiscard]] const char* to_string(IsaLevel level) noexcept;

/// Highest level this binary carries code for (compile-time property).
[[nodiscard]] IsaLevel compiled_level() noexcept;

/// Highest compiled level the running CPU also supports (cached cpuid
/// probe; always at least Scalar, never above compiled_level()).
[[nodiscard]] IsaLevel detected_level() noexcept;

/// True when `level` can execute on this build and host.
[[nodiscard]] bool level_available(IsaLevel level) noexcept;

/// Level the dispatched primitives below actually use right now: the forced
/// override when one is set, detected_level() otherwise.
[[nodiscard]] IsaLevel active_level() noexcept;

/// Test hook: pin dispatch to `level` process-wide (std::nullopt restores
/// auto-detection). Throws std::invalid_argument when the level is not
/// available on this build/host. Thread-safe, but intended for test setup —
/// flipping it concurrently with kernel calls changes which variant later
/// calls pick (never the safety of any call).
void force_level(std::optional<IsaLevel> level);

/// RAII dispatch pin: forces `level` on construction, restores
/// auto-detection on destruction. The unit-test idiom for covering both
/// variants on one host.
class ForcedLevel {
 public:
  /// Pins dispatch to `level` (throws std::invalid_argument if unavailable).
  explicit ForcedLevel(IsaLevel level) { force_level(level); }
  /// Restores auto-detected dispatch.
  ~ForcedLevel() { force_level(std::nullopt); }
  ForcedLevel(const ForcedLevel&) = delete;
  ForcedLevel& operator=(const ForcedLevel&) = delete;
};

/// Dot product of two equal-length spans, accumulated in double (the
/// reproducible-small-scale-math convention of ops::gemv). Dispatched.
[[nodiscard]] double dot(std::span<const float> a, std::span<const float> b);

/// y[r] = float(dot(row r of w, x)) for a row-major `rows` x `cols` fp32
/// matrix `w`; x has `cols` entries and y `rows`. Bit-identical per row to
/// dot() at the same level. The AVX2 variant widens x to double once per
/// call, into a per-thread buffer (float -> double is exact), walks the rows
/// with dot's accumulator layout and prefetches the weight stream a fixed
/// 4 KiB ahead, never past the end of `w`. The scalar variant is per-row
/// dot. Dispatched.
void gemv(std::span<const float> w, std::size_t rows, std::size_t cols,
          std::span<const float> x, std::span<float> y);

/// In-place SiLU: v <- v / (1 + exp(-v)). Dispatched.
void silu(std::span<float> values);

/// out[i] = silu(gate[i]) * up[i]; all spans must have equal length.
/// Dispatched.
void swiglu(std::span<const float> gate, std::span<const float> up,
            std::span<float> out);

/// In-place RMSNorm with unit gain: v <- v / sqrt(mean(v^2) + eps), with the
/// sum of squares accumulated in double. Dispatched.
void rmsnorm(std::span<float> values, float eps);

/// One quantized GEMV row: sum of code-decoded Q4 values times `x`, with
/// per-block double accumulation scaled by the block scale (the same
/// structure as the scalar QuantizedMatrix::gemv inner loop). `blocks` must
/// cover at least x.size() values; values past x.size() are ignored.
/// Dispatched.
[[nodiscard]] double q4_dot(std::span<const Q4Block> blocks,
                            std::span<const float> x);

/// y[r] = float(q4_dot(row r's blocks, x)) for a row-major Q4 matrix of
/// `rows` rows, each `blocks_per_row` blocks covering at least x.size()
/// values. Bit-identical per row to q4_dot() at the same level; the AVX2
/// variant widens x once per call into gemv's per-thread buffer and
/// prefetches the block stream 4 KiB ahead, never past its end. Dispatched.
void q4_gemv(std::span<const Q4Block> blocks, std::size_t rows,
             std::size_t blocks_per_row, std::span<const float> x,
             std::span<float> y);

}  // namespace hybrimoe::kernels::simd
