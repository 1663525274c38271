/// \file hybrimoe_compare.cpp
/// Regression comparator over run artifacts: aligns two traces (from
/// `hybrimoe_run --trace`) or two bench/CLI JSON files by metric name and
/// judges every delta against a thresholds file — the CI gate that turns
/// "the numbers moved" into a failing build.
///
///   hybrimoe_compare baseline.trace candidate.trace
///   hybrimoe_compare old.json new.json --thresholds tools/compare_thresholds.json
///
/// With no thresholds file every metric must match exactly (the right gate
/// for fixed-seed simulated runs). A thresholds file grants named metrics
/// slack: |delta| <= abs + rel * max(|baseline|, |candidate|), keyed by leaf
/// name (`tbt_p99_s` covers every `points[i].tbt_p99_s`). Exit codes:
/// 0 within thresholds, 1 violations or misaligned metrics, 2 usage or
/// malformed input. Comparing traces of different schema versions aborts —
/// cross-version deltas would be fabricated.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "trace/compare.hpp"

namespace {

constexpr const char* kUsage =
    R"(usage: hybrimoe_compare BASELINE CANDIDATE [--thresholds FILE]

  BASELINE, CANDIDATE   run artifacts: JSONL traces (hybrimoe_run --trace)
                        or bench/CLI JSON files (hybrimoe_run --json,
                        bench_* --json). Both sides must be comparable runs
                        (same tool, same configuration).
  --thresholds FILE     per-metric tolerance table:
                        {"default": {"abs": A, "rel": R},
                         "metrics": {"name": {"abs": A, "rel": R}, ...}}
                        (default: exact equality for every metric)

exit: 0 all metrics within thresholds; 1 violations; 2 usage/malformed input
)";

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "hybrimoe_compare: " << message << "\n" << kUsage;
  std::exit(2);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, candidate_path, thresholds_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--thresholds") {
      if (i + 1 >= argc) usage_error("--thresholds requires an argument");
      thresholds_path = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      usage_error("unknown option '" + arg + "'");
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      usage_error("unexpected argument '" + arg + "'");
    }
  }
  if (candidate_path.empty())
    usage_error("expected BASELINE and CANDIDATE artifacts");

  using hybrimoe::trace::Artifact;
  try {
    hybrimoe::trace::Thresholds thresholds;
    if (!thresholds_path.empty())
      thresholds = hybrimoe::trace::parse_thresholds(slurp(thresholds_path));
    const Artifact baseline =
        hybrimoe::trace::parse_artifact(slurp(baseline_path), "baseline");
    const Artifact candidate =
        hybrimoe::trace::parse_artifact(slurp(candidate_path), "candidate");

    const auto report = hybrimoe::trace::compare(baseline, candidate, thresholds);
    for (const auto& d : report.deltas) {
      if (!d.violated) continue;
      std::cout << "VIOLATION " << d.name << ": baseline " << d.baseline
                << " candidate " << d.candidate << " (delta " << d.delta
                << ", limit " << d.limit << ")\n";
    }
    for (const auto& name : report.missing)
      std::cout << "MISALIGNED " << name << "\n";
    std::cout << report.deltas.size() << " metrics compared, "
              << report.violations << " violation(s), " << report.missing.size()
              << " misaligned\n";
    return report.ok() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "hybrimoe_compare: " << e.what() << "\n";
    return 2;
  }
}
