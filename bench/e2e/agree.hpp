#pragma once

/// \file agree.hpp
/// The agreement check behind `run.sh --agree A/ B/`: two directories of
/// merged run artifacts (each file one `run.sh` run over the workloads),
/// compared per (workload, end-to-end metric) against the workloads and
/// bounds in BENCHMARK.json.

#include <ostream>
#include <string>

namespace hybrimoe::e2e {

/// Print one row per (workload in BENCHMARK.json, end-to-end metric) with
/// both sides' quartiles and a verdict: "incorrect" when any run of that
/// workload on either side failed its output check, "unresolved" when a
/// side has fewer than five runs of the workload or either side's spread
/// (interquartile range over median) exceeds the metric's bound, else
/// "agree" when the medians differ by at most the bound, else "disagree".
/// Reads BENCHMARK.json from the working directory. Returns 0 when every
/// row agrees, 1 otherwise; throws std::invalid_argument on unreadable or
/// malformed input.
int agree_runs(const std::string& dir_a, const std::string& dir_b, std::ostream& os);

}  // namespace hybrimoe::e2e
