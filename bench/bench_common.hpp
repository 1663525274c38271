#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the figure/table reproduction harnesses: canonical
/// experiment specs (fixed seeds — tables must be identical run-to-run),
/// small formatting helpers, and the shared stack-selection CLI: every bench
/// that loops over frameworks accepts `--stacks` (a ';'-separated list of
/// preset names, inline JSON specs or @files) and `--list-stacks` (print the
/// registered presets and component families, then exit), so any point of
/// the scheduler x cache x prefetcher cross-product can be benchmarked
/// without recompiling.
///
/// Bench JSON artifacts are written through util::JsonWriter (re-exported
/// here) — one escaping/formatting path shared with `hybrimoe_run --json`
/// and the trace subsystem, so hybrimoe_compare can align any of them.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/session.hpp"
#include "runtime/stack_registry.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/datasets.hpp"

namespace hybrimoe::bench {

/// The evaluation's fixed seed; all harnesses derive their streams from it.
inline constexpr std::uint64_t kBenchSeed = 20250408;  // arXiv date of the paper

/// Canonical spec for one (model, cache-ratio) cell of the evaluation grid.
inline runtime::ExperimentSpec make_spec(const moe::ModelConfig& model,
                                         double cache_ratio,
                                         std::uint64_t seed = kBenchSeed) {
  runtime::ExperimentSpec spec;
  spec.model = model;
  spec.machine = hw::Topology::a6000_xeon10();
  spec.cache_ratio = cache_ratio;
  spec.trace.seed = seed;
  return spec;
}

/// The paper's cache-ratio grid (Figs. 7/8).
inline constexpr std::array<double, 3> kCacheRatios{0.25, 0.50, 0.75};

/// Decode steps used for TBT measurements.
inline constexpr std::size_t kDecodeSteps = 64;

inline std::string pct(double ratio) {
  return util::format_double(ratio * 100.0, 0) + "%";
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=====================================================================\n"
            << title << "\n(reproduces " << paper_ref << ")\n"
            << "=====================================================================\n";
}

// ---------------------------------------------------------------------------
// Shared stack-selection CLI (--stacks / --list-stacks). Argument resolution
// (preset name | inline JSON | @file) and the catalogue live in the library:
// runtime::resolve_stack / runtime::print_stack_catalog.
// ---------------------------------------------------------------------------

/// Split a --stacks list on ';' separators that sit *outside* JSON string
/// and object context, so inline specs may contain ';' in names.
inline std::vector<std::string> split_stack_list(const std::string& list) {
  std::vector<std::string> items;
  std::string current;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : list) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
    } else if (c == ';' && depth == 0) {
      if (!current.empty()) items.push_back(std::move(current));
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  if (!current.empty()) items.push_back(std::move(current));
  return items;
}

/// Parsed shared bench flags.
struct StackArgs {
  std::vector<runtime::StackSpec> stacks;  ///< selected (or default) stacks
  std::vector<std::string> positional;     ///< non-flag arguments (e.g. JSON path)
};

/// Parse argv: `--stacks a;b;c` (repeatable, also `--stacks=a;b;c`) selects
/// stacks, `--list-stacks` prints the catalogue and exits(0); any other
/// `--flag` is rejected (exit 2 — a typo must not silently run the default
/// sweep); everything else stays positional. With no --stacks, `defaults`
/// is used. Malformed specs print their did-you-mean error and exit(2).
inline StackArgs parse_stack_args(int argc, char** argv,
                                  std::span<const runtime::Framework> defaults) {
  StackArgs args;
  std::vector<std::string> stack_items;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-stacks") {
      runtime::print_stack_catalog(std::cout);
      std::cout << "Join several with ';' or repeat --stacks.\n";
      std::exit(0);
    }
    std::string list;
    if (arg == "--stacks") {
      if (i + 1 >= argc) {
        std::cerr << "--stacks requires an argument (see --list-stacks)\n";
        std::exit(2);
      }
      list = argv[++i];
    } else if (arg.rfind("--stacks=", 0) == 0) {
      list = arg.substr(std::string("--stacks=").size());
    } else if (arg.rfind("-", 0) == 0 && arg != "-") {
      std::cerr << "unknown flag '" << arg
                << "' (this bench takes --stacks, --list-stacks and positional "
                   "arguments)\n";
      std::exit(2);
    } else {
      args.positional.push_back(arg);
      continue;
    }
    for (auto& item : split_stack_list(list)) stack_items.push_back(std::move(item));
  }

  try {
    for (const auto& item : stack_items) {
      runtime::StackSpec spec = runtime::resolve_stack(item);
      spec.validate();
      args.stacks.push_back(std::move(spec));
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "invalid --stacks argument: " << e.what() << "\n";
    std::exit(2);
  }
  if (args.stacks.empty())
    for (const runtime::Framework f : defaults)
      args.stacks.push_back(runtime::preset_spec(f));
  return args;
}

}  // namespace hybrimoe::bench
