#include "cache/mrs_policy.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace hybrimoe::cache {

void MrsPolicy::Params::validate() const {
  HYBRIMOE_REQUIRE(alpha > 0.0 && alpha <= 1.0, "MRS alpha must be in (0,1]");
  HYBRIMOE_REQUIRE(top_p_factor >= 1, "MRS top_p_factor must be >= 1");
}

MrsPolicy::MrsPolicy() : MrsPolicy(Params{}) {}

MrsPolicy::MrsPolicy(Params params)
    : MrsPolicy(params, std::make_shared<ScoreTable>()) {}

MrsPolicy::MrsPolicy(Params params, std::shared_ptr<ScoreTable> table)
    : params_(params), scores_(std::move(table)) {
  params_.validate();
}

std::unique_ptr<MrsPolicy> MrsPolicy::share_table() const {
  return std::unique_ptr<MrsPolicy>(new MrsPolicy(params_, scores_));
}

void MrsPolicy::on_scores(std::uint16_t layer, std::span<const float> scores,
                          std::size_t top_k) {
  HYBRIMOE_REQUIRE(top_k > 0, "on_scores requires top_k > 0");
  const std::size_t p = std::min(scores.size(), params_.top_p_factor * top_k);

  // Threshold of the iteration's top-p scores (TopP of Eq. 3).
  std::vector<float> sorted(scores.begin(), scores.end());
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(p - 1), sorted.end(),
                   std::greater<>());
  const float threshold = sorted[p - 1];

  // Entries strictly above the threshold are always in; ties at the
  // threshold are admitted in index order until exactly p entries are kept.
  const auto above = static_cast<std::size_t>(
      std::count_if(scores.begin(), scores.end(),
                    [threshold](float s) { return s > threshold; }));
  std::size_t tie_budget = p - above;
  const std::span<double> table = scores_->row(layer, scores.size());
  for (std::size_t e = 0; e < scores.size(); ++e) {
    bool in_top_p = scores[e] > threshold;
    if (!in_top_p && scores[e] == threshold && tie_budget > 0) {
      in_top_p = true;
      --tie_budget;
    }
    const double contribution = in_top_p ? static_cast<double>(scores[e]) : 0.0;
    table[e] = params_.alpha * contribution + (1.0 - params_.alpha) * table[e];
  }
}

moe::ExpertId MrsPolicy::choose_victim(std::span<const moe::ExpertId> candidates) {
  HYBRIMOE_REQUIRE(!candidates.empty(), "choose_victim with no candidates");
  moe::ExpertId best = candidates.front();
  double best_score = score(best);
  for (const auto& id : candidates.subspan(1)) {
    const double s = score(id);
    if (s < best_score) {
      best_score = s;
      best = id;
    }
  }
  return best;
}

double MrsPolicy::score(moe::ExpertId id) const { return scores_->get(id); }

}  // namespace hybrimoe::cache
