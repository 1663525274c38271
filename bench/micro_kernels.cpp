/// \file micro_kernels.cpp
/// The kernel performance gate: scalar-vs-SIMD timings of the dispatched
/// hot-path kernels (gemv, silu, swiglu, rmsnorm, Q4 gemv) on plain
/// std::chrono, with a self-enforcing speedup floor per kernel and a
/// cross-check that both dispatch levels agree numerically. Every row times
/// one hot, cache-resident input except `gemv_stream`, which cycles
/// expert-shaped matrices over a working set far larger than the LLC — the
/// memory-bound regime of a CPU expert forward. Always built —
/// no Google Benchmark required — so CI measures on every host; the legacy
/// google-benchmark suite (scheduler/cache/router micro-latencies) remains
/// available behind `--gbench` when the library was found at configure time.
///
///   bench_micro_kernels results/BENCH_kernels.json   # gate + artifact
///   bench_micro_kernels --meta meta.json             # metadata only (no
///                                                    # timings; byte-stable
///                                                    # for CI double runs)
///   bench_micro_kernels --min-speedup 1.5            # one floor for all rows
///   bench_micro_kernels --gbench [gbench flags]      # legacy suite
///
/// Each kernel row carries its own speedup floor (`floor_x` in the artifact)
/// and the gate fails when any row misses its floor. --min-speedup or
/// HYBRIMOE_KERNEL_MIN_SPEEDUP replaces every floor with one value; on hosts
/// without AVX2 the gate is skipped (there is nothing to compare). Exit
/// codes: 0 pass, 1 gate/equivalence failure, 2 usage error.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/ops.hpp"
#include "kernels/quant.hpp"
#include "kernels/simd.hpp"
#include "kernels/tensor.hpp"
#include "util/rng.hpp"

namespace {

using namespace hybrimoe;

/// Keep `p`'s pointee alive past the optimizer (no Google Benchmark needed).
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Noise-robust ns/iteration on a single-core host: calibrate the batch size
/// to ~1 ms, then take the best of 7 batches (minimum wall time — external
/// interference only ever adds time).
template <typename Fn>
double best_ns_per_iter(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::size_t iters = 1;
  double batch_s = 0.0;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    batch_s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (batch_s >= 1e-3 || iters >= (std::size_t{1} << 26)) break;
    iters *= 4;
  }
  double best = batch_s / static_cast<double>(iters);
  for (int rep = 0; rep < 6; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, s / static_cast<double>(iters));
  }
  return best * 1e9;
}

struct KernelResult {
  std::string name;
  std::size_t rows = 0;  ///< 0 for elementwise kernels
  std::size_t cols = 0;  ///< vector length for elementwise kernels
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  double speedup = 1.0;
  double floor = 0.0;         ///< the gate's minimum speedup for this row
  double max_abs_diff = 0.0;  ///< scalar-vs-SIMD output disagreement
};

std::vector<float> random_vector(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

/// Time `fn` at both dispatch levels (SIMD timing falls back to the scalar
/// number when AVX2 is unavailable) and cross-check the per-level outputs.
template <typename Fn, typename Out>
KernelResult measure(const std::string& name, std::size_t rows, std::size_t cols,
                     Fn&& fn, Out&& output) {
  KernelResult r;
  r.name = name;
  r.rows = rows;
  r.cols = cols;
  std::vector<float> scalar_out;
  {
    kernels::simd::ForcedLevel pin(kernels::simd::IsaLevel::Scalar);
    fn();
    scalar_out = output();
    r.scalar_ns = best_ns_per_iter(fn);
  }
  if (kernels::simd::level_available(kernels::simd::IsaLevel::Avx2)) {
    kernels::simd::ForcedLevel pin(kernels::simd::IsaLevel::Avx2);
    fn();
    r.max_abs_diff = kernels::max_abs_diff(scalar_out, output());
    r.simd_ns = best_ns_per_iter(fn);
  } else {
    r.simd_ns = r.scalar_ns;
  }
  r.speedup = r.scalar_ns / r.simd_ns;
  return r;
}

/// The measured kernel set; `timings` off emits shapes and floors only
/// (--meta mode). `min_speedup`, when set, replaces every row's floor.
std::vector<KernelResult> run_kernels(bool timings, std::optional<double> min_speedup) {
  util::Rng rng(bench::kBenchSeed);
  std::vector<KernelResult> results;

  // Large gemv: the gate's subject — long rows where vectorization pays.
  const auto w_large = kernels::Tensor::randn(rng, 256, 1024);
  const auto x_large = random_vector(rng, 1024);
  std::vector<float> y_large(256);
  // Hot-path-sized gemv: the executor's default expert projection shape.
  const auto w_small = kernels::Tensor::randn(rng, 64, 32);
  const auto x_small = random_vector(rng, 32);
  std::vector<float> y_small(64);
  // Streaming gemv: Mixtral-shaped expert projections (d_ff 128 x d_model
  // 512, 256 KiB each) cycled over a 128 MiB working set, so every call
  // reads its weights from DRAM. Copies of one matrix: the values do not
  // matter for timing, only that each copy is cold when its turn comes.
  const auto w_expert = kernels::Tensor::randn(rng, 128, 512);
  const std::vector<kernels::Tensor> w_stream(
      timings ? (std::size_t{128} << 20) / (w_expert.size() * sizeof(float)) : 1,
      w_expert);
  const auto x_stream = random_vector(rng, 512);
  std::vector<float> y_stream(128);
  std::size_t next_stream = 0;
  // Elementwise kernels at a mid-size activation length.
  const std::size_t n = 4096;
  const auto act_src = random_vector(rng, n);
  std::vector<float> act(n);
  const auto gate = random_vector(rng, n);
  const auto up = random_vector(rng, n);
  std::vector<float> combined(n);
  // Q4 gemv over the same large shape as the dense gate subject.
  const auto q_large = kernels::QuantizedMatrix::quantize(w_large);
  std::vector<float> yq_large(256);

  // Floors sit at no more than half the lowest speedup seen in five
  // repeats on a 4-vCPU AVX2 host, so noise cannot trip them but a kernel
  // falling back toward scalar speed does.
  struct Case {
    const char* name;
    std::size_t rows, cols;
    double floor;
    std::function<void()> run;
    std::function<std::vector<float>()> out;
  };
  const std::vector<Case> cases{
      {"gemv", 256, 1024, 1.95,
       [&] { kernels::gemv_into(w_large, x_large, y_large); keep(y_large.data()); },
       [&] { return y_large; }},
      {"gemv_small", 64, 32, 1.35,
       [&] { kernels::gemv_into(w_small, x_small, y_small); keep(y_small.data()); },
       [&] { return y_small; }},
      {"gemv_stream", 128, 512, 1.25,
       [&] {
         kernels::gemv_into(w_stream[next_stream], x_stream, y_stream);
         keep(y_stream.data());
         next_stream = (next_stream + 1) % w_stream.size();
       },
       [&] {
         kernels::gemv_into(w_stream.front(), x_stream, y_stream);
         return y_stream;
       }},
      {"silu", 0, n, 3.75,
       [&] {
         std::copy(act_src.begin(), act_src.end(), act.begin());
         kernels::silu_inplace(act);
         keep(act.data());
       },
       [&] { return act; }},
      {"swiglu", 0, n, 3.45,
       [&] { kernels::swiglu_combine(gate, up, combined); keep(combined.data()); },
       [&] { return combined; }},
      {"rmsnorm", 0, n, 1.2,
       [&] {
         std::copy(act_src.begin(), act_src.end(), act.begin());
         kernels::rmsnorm_inplace(act);
         keep(act.data());
       },
       [&] { return act; }},
      {"q4_gemv", 256, 1024, 2.4,
       [&] { q_large.gemv_into(x_large, yq_large); keep(yq_large.data()); },
       [&] { return yq_large; }},
  };

  for (const Case& c : cases) {
    KernelResult r;
    if (timings) {
      r = measure(c.name, c.rows, c.cols, c.run, c.out);
    } else {
      r.name = c.name;
      r.rows = c.rows;
      r.cols = c.cols;
    }
    r.floor = min_speedup.value_or(c.floor);
    results.push_back(r);
  }
  return results;
}

void write_artifact(std::ostream& os, const std::vector<KernelResult>& results,
                    bool gate_enforced, bool gate_passed, double gemv_speedup,
                    bool timings) {
  util::JsonWriter w(os);
  w.field("bench").string("micro_kernels");
  w.field("isa_compiled").string(kernels::simd::to_string(kernels::simd::compiled_level()));
  w.field("isa_detected").string(kernels::simd::to_string(kernels::simd::detected_level()));
  w.field("gate_enforced").boolean(gate_enforced);
  if (timings) {
    w.field("gate_passed").boolean(gate_passed);
    w.field("gemv_speedup_x").number(gemv_speedup);
  }
  w.field("kernels").begin_array();
  for (const KernelResult& r : results) {
    auto item = w.row();
    item.field("name").string(r.name);
    item.field("rows").number(static_cast<double>(r.rows));
    item.field("cols").number(static_cast<double>(r.cols));
    item.field("floor_x").number(r.floor);
    if (timings) {
      item.field("scalar_ns").number(r.scalar_ns);
      item.field("simd_ns").number(r.simd_ns);
      item.field("speedup_x").number(r.speedup);
      item.field("max_abs_diff").number(r.max_abs_diff);
    }
    item.close();
  }
  w.end_array();
  w.finish();
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_micro_kernels: " << message
            << "\nusage: bench_micro_kernels [out.json] [--meta PATH] "
               "[--min-speedup X] [--gbench ...]\n";
  std::exit(2);
}

}  // namespace

#ifdef HYBRIMOE_HAVE_GBENCH
int run_gbench_suite(int argc, char** argv);
#endif

int main(int argc, char** argv) {
  std::string out_path;
  std::string meta_path;
  std::optional<double> min_speedup;
  if (const char* env = std::getenv("HYBRIMOE_KERNEL_MIN_SPEEDUP"))
    min_speedup = std::atof(env);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gbench") {
#ifdef HYBRIMOE_HAVE_GBENCH
      // Hand the remaining argv to google-benchmark verbatim.
      std::vector<char*> rest;
      rest.push_back(argv[0]);
      for (int j = i + 1; j < argc; ++j) rest.push_back(argv[j]);
      return run_gbench_suite(static_cast<int>(rest.size()), rest.data());
#else
      std::cerr << "bench_micro_kernels: built without Google Benchmark — "
                   "the --gbench suite is unavailable (the chrono gate below "
                   "runs regardless)\n";
      return 2;
#endif
    } else if (arg == "--meta") {
      if (i + 1 >= argc) usage_error("--meta requires a path");
      meta_path = argv[++i];
    } else if (arg == "--min-speedup") {
      if (i + 1 >= argc) usage_error("--min-speedup requires a value");
      min_speedup = std::atof(argv[++i]);
    } else if (!arg.empty() && arg.front() == '-') {
      usage_error("unknown option '" + arg + "'");
    } else if (out_path.empty()) {
      out_path = arg;
    } else {
      usage_error("unexpected argument '" + arg + "'");
    }
  }

  // --meta: emit byte-stable metadata (no timings) and exit — what CI
  // byte-diffs across a double run to prove the artifact schema is
  // deterministic.
  if (!meta_path.empty()) {
    std::ofstream meta(meta_path);
    if (!meta) usage_error("cannot write '" + meta_path + "'");
    write_artifact(meta, run_kernels(/*timings=*/false, min_speedup),
                   /*gate_enforced=*/false, /*gate_passed=*/true,
                   /*gemv_speedup=*/0.0, /*timings=*/false);
    std::cout << "Wrote " << meta_path << "\n";
    return 0;
  }

  bench::print_header("micro-kernel gate: scalar vs SIMD hot paths",
                      "the §V claim that kernel-level execution, not Python "
                      "orchestration, should set the pace");
  std::cout << "isa: compiled=" << kernels::simd::to_string(kernels::simd::compiled_level())
            << " detected=" << kernels::simd::to_string(kernels::simd::detected_level())
            << "\n\n";

  const auto results = run_kernels(/*timings=*/true, min_speedup);

  util::TextTable table("kernel timings (best of 7)");
  table.set_headers(
      {"kernel", "shape", "scalar ns", "simd ns", "speedup", "floor", "max |diff|"});
  for (const KernelResult& r : results) {
    const std::string shape = r.rows > 0
                                  ? std::to_string(r.rows) + "x" + std::to_string(r.cols)
                                  : "n=" + std::to_string(r.cols);
    table.begin_row()
        .add_cell(r.name)
        .add_cell(shape)
        .add_cell(util::format_double(r.scalar_ns, 0))
        .add_cell(util::format_double(r.simd_ns, 0))
        .add_cell(util::format_double(r.speedup, 2) + "x")
        .add_cell(util::format_double(r.floor, 2) + "x")
        .add_cell(util::format_double(r.max_abs_diff, 7));
  }
  table.print(std::cout);

  // Equivalence cross-check: both dispatch levels must agree to well under
  // any tolerance the functional tests use (the dedicated ulp-level suite
  // lives in tests/kernels/simd_equivalence_test.cpp).
  bool ok = true;
  for (const KernelResult& r : results) {
    if (r.max_abs_diff > 1e-4) {
      std::cerr << "\nFAIL: " << r.name << " scalar/SIMD outputs diverge by "
                << r.max_abs_diff << " (> 1e-4)\n";
      ok = false;
    }
  }

  // The gate: every kernel's SIMD speedup must clear its own floor. Skipped
  // without AVX2 — there is no second path to race.
  const bool gate_enforced =
      kernels::simd::level_available(kernels::simd::IsaLevel::Avx2);
  const auto gemv = std::find_if(results.begin(), results.end(),
                                 [](const KernelResult& r) { return r.name == "gemv"; });
  const double gemv_speedup = gemv != results.end() ? gemv->speedup : 0.0;
  bool gate_passed = true;
  if (gate_enforced) {
    std::cout << "\n";
    for (const KernelResult& r : results) {
      const bool passed = r.speedup >= r.floor;
      std::cout << "gate: " << r.name << " speedup " << util::format_double(r.speedup, 2)
                << "x vs floor " << util::format_double(r.floor, 2) << "x — "
                << (passed ? "PASS" : "FAIL") << "\n";
      gate_passed = gate_passed && passed;
    }
    if (!gate_passed) ok = false;
  } else {
    std::cout << "\ngate: skipped (no AVX2 on this host)\n";
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) usage_error("cannot write '" + out_path + "'");
    write_artifact(out, results, gate_enforced, gate_passed, gemv_speedup,
                   /*timings=*/true);
    std::cout << "Wrote " << out_path << "\n";
  }
  return ok ? 0 : 1;
}

#ifdef HYBRIMOE_HAVE_GBENCH

#include <benchmark/benchmark.h>

#include <memory>

#include "cache/expert_cache.hpp"
#include "cache/mrs_policy.hpp"
#include "kernels/expert.hpp"
#include "moe/router.hpp"
#include "sched/simulator.hpp"
#include "workload/generator.hpp"

namespace {

std::vector<sched::ExpertDemand> random_demands(util::Rng& rng, std::size_t count,
                                                std::uint32_t max_load,
                                                double cached_fraction) {
  std::vector<sched::ExpertDemand> demands;
  demands.reserve(count);
  for (std::size_t e = 0; e < count; ++e) {
    demands.push_back({static_cast<std::uint16_t>(e),
                       static_cast<std::uint32_t>(rng.uniform_index(max_load) + 1),
                       rng.bernoulli(cached_fraction)});
  }
  return demands;
}

void BM_HybridScheduleDecode(benchmark::State& state) {
  const auto model = moe::ModelConfig::deepseek();
  const hw::CostModel costs(hw::MachineProfile::a6000_xeon10(), model);
  util::Rng rng(1);
  const auto demands = random_demands(rng, static_cast<std::size_t>(state.range(0)), 1, 0.5);
  for (auto _ : state) {
    auto plan = sched::simulate_layer(0, sched::Stage::Decode, demands, costs);
    benchmark::DoNotOptimize(plan.makespan);
  }
}
BENCHMARK(BM_HybridScheduleDecode)->Arg(6)->Arg(8)->Arg(16);

void BM_HybridSchedulePrefill(benchmark::State& state) {
  const auto model = moe::ModelConfig::qwen2();
  const hw::CostModel costs(hw::MachineProfile::a6000_xeon10(), model);
  util::Rng rng(2);
  const auto demands =
      random_demands(rng, static_cast<std::size_t>(state.range(0)), 32, 0.25);
  for (auto _ : state) {
    auto plan = sched::simulate_layer(0, sched::Stage::Prefill, demands, costs);
    benchmark::DoNotOptimize(plan.makespan);
  }
}
BENCHMARK(BM_HybridSchedulePrefill)->Arg(16)->Arg(32)->Arg(64);

void BM_CacheLookupInsert(benchmark::State& state) {
  const auto model = moe::ModelConfig::deepseek();
  cache::ExpertCache cache(cache::ExpertCache::capacity_for_ratio(model, 0.25),
                           std::make_unique<cache::MrsPolicy>());
  util::Rng rng(3);
  for (auto _ : state) {
    const moe::ExpertId id{
        static_cast<std::uint16_t>(rng.uniform_index(model.num_layers)),
        static_cast<std::uint16_t>(rng.uniform_index(model.num_routed_experts))};
    if (!cache.lookup(id)) benchmark::DoNotOptimize(cache.insert(id));
  }
}
BENCHMARK(BM_CacheLookupInsert);

void BM_MrsScoreUpdate(benchmark::State& state) {
  cache::MrsPolicy policy;
  util::Rng rng(4);
  std::vector<float> scores(64);
  for (float& s : scores) s = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    policy.on_scores(0, scores, 6);
    benchmark::DoNotOptimize(policy.score({0, 0}));
  }
}
BENCHMARK(BM_MrsScoreUpdate);

void BM_RouterBatch(benchmark::State& state) {
  const auto tokens = static_cast<std::size_t>(state.range(0));
  moe::Router router(64, 6);
  util::Rng rng(5);
  std::vector<float> logits(tokens * 64);
  for (float& v : logits) v = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    auto routing = router.route_batch(logits, tokens);
    benchmark::DoNotOptimize(routing.loads.data());
  }
}
BENCHMARK(BM_RouterBatch)->Arg(1)->Arg(32)->Arg(128);

void BM_Q4ExpertForward(benchmark::State& state) {
  util::Rng rng(6);
  const auto dense = kernels::ExpertWeights::random(rng, 128, 256);
  const kernels::QuantizedExpert expert(dense);
  std::vector<float> x(128);
  for (float& v : x) v = static_cast<float>(rng.gaussian());
  for (auto _ : state) {
    auto y = expert.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Q4ExpertForward);

void BM_TraceGenerationDecodeStep(benchmark::State& state) {
  const auto model = moe::ModelConfig::deepseek();
  workload::TraceGenParams params;
  params.seed = 7;
  workload::TraceGenerator gen(model, params);
  for (auto _ : state) {
    auto trace = gen.generate_decode(1);
    benchmark::DoNotOptimize(trace.steps.front().layers.front().loads.data());
  }
}
BENCHMARK(BM_TraceGenerationDecodeStep);

}  // namespace

int run_gbench_suite(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#endif  // HYBRIMOE_HAVE_GBENCH
