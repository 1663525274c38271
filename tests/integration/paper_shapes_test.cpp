#include <gtest/gtest.h>

#include <memory>

#include "cache/classic_policies.hpp"
#include "cache/mrs_policy.hpp"
#include "runtime/session.hpp"
#include "workload/request_stream.hpp"

/// The paper-shape regression suite: the qualitative results of the
/// evaluation section, asserted end-to-end with reduced step counts. If one
/// of these fails after a change, the reproduction no longer tells the
/// paper's story.

namespace hybrimoe::runtime {
namespace {

ExperimentSpec spec_for(const moe::ModelConfig& model, double ratio) {
  ExperimentSpec spec;
  spec.model = model;
  spec.machine = hw::Topology::a6000_xeon10();
  spec.cache_ratio = ratio;
  spec.trace.seed = 20250408;
  spec.warmup_steps = 32;
  return spec;
}

double replay_hit_rate(const workload::DecodeTrace& trace, const moe::ModelConfig& model,
                       cache::ExpertCache& cache, bool feed_scores) {
  for (const auto& step : trace.steps) {
    for (std::size_t l = 0; l < step.layers.size(); ++l) {
      const auto layer = static_cast<std::uint16_t>(l);
      if (feed_scores) cache.update_scores(layer, step.layers[l].scores, model.top_k);
      for (const auto e : step.layers[l].activated()) {
        const moe::ExpertId id{layer, static_cast<std::uint16_t>(e)};
        if (!cache.lookup(id)) (void)cache.insert(id);
      }
    }
  }
  return cache.stats().hit_rate();
}

// --- Fig. 7 / Fig. 8 headline orderings ----------------------------------

TEST(PaperShapesTest, HybriMoEWinsDecodeOnEveryModelAt25) {
  for (const auto& model : moe::paper_models()) {
    ExperimentHarness harness(spec_for(model, 0.25));
    const double ktrans =
        harness.run_decode(preset_spec(Framework::KTransformers), 24).tbt_mean();
    const double hybrimoe =
        harness.run_decode(preset_spec(Framework::HybriMoE), 24).tbt_mean();
    EXPECT_GT(ktrans / hybrimoe, 1.15) << model.name;  // paper: ~1.5-1.9
  }
}

TEST(PaperShapesTest, HybriMoEWinsPrefillOnEveryModelAt25) {
  for (const auto& model : moe::paper_models()) {
    ExperimentHarness harness(spec_for(model, 0.25));
    const double ktrans =
        harness.run_prefill(preset_spec(Framework::KTransformers), 128).ttft();
    const double hybrimoe =
        harness.run_prefill(preset_spec(Framework::HybriMoE), 128).ttft();
    EXPECT_GT(ktrans / hybrimoe, 1.05) << model.name;  // paper avg: 1.33
  }
}

TEST(PaperShapesTest, LlamaCppTerribleAtPrefillDecentAtDecode) {
  // "llama.cpp exhibits significantly higher prefill latency ... [but]
  // demonstrates relatively strong performance in [decode]" (§VI-B).
  ExperimentHarness qwen(spec_for(moe::ModelConfig::qwen2(), 0.5));
  const double llama_prefill =
      qwen.run_prefill(preset_spec(Framework::LlamaCpp), 128).ttft();
  const double ktrans_prefill =
      qwen.run_prefill(preset_spec(Framework::KTransformers), 128).ttft();
  EXPECT_GT(llama_prefill, 2.5 * ktrans_prefill);

  ExperimentHarness deepseek(spec_for(moe::ModelConfig::deepseek(), 0.5));
  const double llama_decode =
      deepseek.run_decode(preset_spec(Framework::LlamaCpp), 16).tbt_mean();
  const double ktrans_decode =
      deepseek.run_decode(preset_spec(Framework::KTransformers), 16).tbt_mean();
  EXPECT_LT(llama_decode, 2.0 * ktrans_decode);  // competitive, not 3x+ off
}

TEST(PaperShapesTest, AdapMoESuffersInDecodeAtLowCache) {
  // GPU-centric on-demand loading stalls on PCIe when the cache is small.
  ExperimentHarness harness(spec_for(moe::ModelConfig::mixtral(), 0.25));
  const double adap = harness.run_decode(preset_spec(Framework::AdapMoE), 16).tbt_mean();
  const double hybrimoe =
      harness.run_decode(preset_spec(Framework::HybriMoE), 16).tbt_mean();
  EXPECT_GT(adap, 1.5 * hybrimoe);
}

TEST(PaperShapesTest, SpeedupShrinksAsCacheGrows) {
  // Fig. 8: the HybriMoE advantage is largest at small cache ratios.
  const auto model = moe::ModelConfig::deepseek();
  auto speedup_at = [&](double ratio) {
    ExperimentHarness harness(spec_for(model, ratio));
    const double ktrans =
        harness.run_decode(preset_spec(Framework::KTransformers), 24).tbt_mean();
    const double hybrimoe =
        harness.run_decode(preset_spec(Framework::HybriMoE), 24).tbt_mean();
    return ktrans / hybrimoe;
  };
  EXPECT_GT(speedup_at(0.25), speedup_at(0.75) - 0.05);
}

// --- Table III ablation orderings -----------------------------------------

TEST(PaperShapesTest, AblationOrderingDecode) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::qwen2(), 0.25));
  auto decode = [&harness](const core::HybriMoeConfig& config) {
    return harness.run_decode(ablation_spec(config), 16).total_latency;
  };
  const double base = decode(core::HybriMoeConfig::baseline());
  const double sched = decode(core::HybriMoeConfig::scheduling_only());
  const double pref = decode(core::HybriMoeConfig::prefetching_only());
  const double cach = decode(core::HybriMoeConfig::caching_only());
  const double all = decode(core::HybriMoeConfig::full());

  // Every technique helps; scheduling is the largest single win; the full
  // system is fastest (paper Table III).
  EXPECT_LT(sched, base);
  EXPECT_LT(pref, base);
  EXPECT_LT(cach, base);
  EXPECT_LT(sched, pref);
  EXPECT_LT(sched, cach);
  EXPECT_LE(all, sched * 1.02);
}

TEST(PaperShapesTest, AblationOrderingPrefill) {
  ExperimentHarness harness(spec_for(moe::ModelConfig::qwen2(), 0.25));
  auto prefill = [&harness](const core::HybriMoeConfig& config) {
    return harness.run_prefill(ablation_spec(config), 128).total_latency;
  };
  const double base = prefill(core::HybriMoeConfig::baseline());
  const double sched = prefill(core::HybriMoeConfig::scheduling_only());
  const double all = prefill(core::HybriMoeConfig::full());
  EXPECT_LT(sched, base);
  EXPECT_LE(all, base);
}

// --- Fig. 9 cache shapes ---------------------------------------------------

TEST(PaperShapesTest, MrsBeatsLruEverywhereGapNarrowsWithCapacity) {
  for (const auto& model : moe::paper_models()) {
    workload::TraceGenParams params;
    params.seed = 20250408;
    workload::TraceGenerator gen(model, params);
    const auto trace = gen.generate_decode(160);

    auto hit_rate = [&](double ratio, bool mrs) {
      const std::size_t capacity = cache::ExpertCache::capacity_for_ratio(model, ratio);
      std::unique_ptr<cache::CachePolicy> policy;
      if (mrs) {
        policy = std::make_unique<cache::MrsPolicy>();
      } else {
        policy = std::make_unique<cache::LruPolicy>();
      }
      cache::ExpertCache cache(capacity, std::move(policy));
      return replay_hit_rate(trace, model, cache, mrs);
    };

    const double gap_low = hit_rate(0.25, true) - hit_rate(0.25, false);
    const double gap_high = hit_rate(0.75, true) - hit_rate(0.75, false);
    EXPECT_GT(gap_low, 0.0) << model.name;
    EXPECT_GT(gap_high, -0.01) << model.name;
    EXPECT_GT(gap_low, gap_high - 0.01) << model.name;  // narrowing gap
  }
}

TEST(PaperShapesTest, HitRatesInPaperBand) {
  // Paper Fig. 9 at 25% capacity: LRU 30-48%, MRS 36-53%. Allow generous
  // bands — the shape, not the digit, is the target.
  const auto model = moe::ModelConfig::deepseek();
  workload::TraceGenParams params;
  params.seed = 20250408;
  workload::TraceGenerator gen(model, params);
  const auto trace = gen.generate_decode(160);
  const std::size_t capacity = cache::ExpertCache::capacity_for_ratio(model, 0.25);
  cache::ExpertCache lru(capacity, std::make_unique<cache::LruPolicy>());
  const double lru_rate = replay_hit_rate(trace, model, lru, false);
  EXPECT_GT(lru_rate, 0.30);
  EXPECT_LT(lru_rate, 0.60);
}

// --- Fig. 3 motivation shapes ----------------------------------------------

TEST(PaperShapesTest, NoSingleBaselineWinsEverywhere) {
  // Fig. 3(d): the best existing framework depends on the scenario.
  std::set<Framework> winners;
  struct Scenario {
    moe::ModelConfig model;
    bool prefill;
  };
  const Scenario scenarios[] = {
      {moe::ModelConfig::qwen2(), true},
      {moe::ModelConfig::mixtral(), false},
      {moe::ModelConfig::deepseek(), false},
  };
  for (const auto& sc : scenarios) {
    ExperimentHarness harness(spec_for(sc.model, 0.5));
    double best = 1e300;
    Framework winner = Framework::LlamaCpp;
    for (const auto fw : {Framework::LlamaCpp, Framework::AdapMoE,
                          Framework::KTransformers}) {
      const double latency = sc.prefill
                                 ? harness.run_prefill(preset_spec(fw), 64).ttft()
                                 : harness.run_decode(preset_spec(fw), 12).tbt_mean();
      if (latency < best) {
        best = latency;
        winner = fw;
      }
    }
    winners.insert(winner);
  }
  EXPECT_GE(winners.size(), 2U);  // at least two distinct winners
}

// --- Serving under load ----------------------------------------------------

TEST(PaperShapesTest, HybriMoEStepMakespanNeverExceedsOnDemandUnderLoad) {
  // The Fig. 1(a) on-demand baseline as a serving floor: on the same
  // request stream, HybriMoE's mean composed-step makespan must never
  // exceed OnDemand's at any arrival rate.
  ExperimentSpec spec;
  spec.model = moe::ModelConfig::deepseek();
  spec.machine = hw::Topology::a6000_xeon10();
  spec.cache_ratio = 0.25;
  spec.trace.seed = 20250408;
  ExperimentHarness harness(spec);

  workload::RequestStreamParams stream;
  stream.num_requests = 12;
  stream.prompt_tokens_min = 16;
  stream.prompt_tokens_max = 48;
  stream.decode_tokens_min = 6;
  stream.decode_tokens_max = 12;
  stream.seed = 20250408;
  for (const double rate : {0.5, 1.0, 2.0}) {
    stream.arrival_rate = rate;
    // Traces derive from (seed, request id): every stack serves the same
    // traffic.
    const auto specs = workload::generate_request_stream(stream);
    const auto mean_step_makespan = [&](Framework framework) {
      const ServeMetrics m = harness.serve_stream(preset_spec(framework), specs);
      return m.steps.total_latency / static_cast<double>(m.steps.per_forward.size());
    };
    EXPECT_LE(mean_step_makespan(Framework::HybriMoE),
              mean_step_makespan(Framework::OnDemand))
        << rate << " req/s";
  }
}

}  // namespace
}  // namespace hybrimoe::runtime
