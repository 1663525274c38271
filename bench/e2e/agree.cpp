#include "agree.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <vector>

#include "util/json.hpp"

namespace hybrimoe::e2e {

namespace {

namespace json = util::json;

constexpr std::size_t kMinRuns = 5;
constexpr const char* kBenchmarkJson = "BENCHMARK.json";

json::Value parse_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path.string() + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return json::Parser(text.str(), "run artifact").parse_document();
}

const json::Value& get(const json::Value& object, const std::string& key) {
  if (!object.is_object()) json::error_at(object, "expected an object holding '" + key + "'");
  for (const auto& [k, v] : std::get<json::Object>(object.value))
    if (k == key) return v;
  json::error_at(object, "missing key '" + key + "'");
}

struct Bound {
  std::string name;
  std::string unit;
  double bound = 0.0;
};

struct Benchmark {
  std::vector<std::string> workloads;
  std::vector<Bound> bounds;
};

Benchmark read_benchmark() {
  const json::Value doc = parse_file(kBenchmarkJson);
  Benchmark out;
  for (const json::Value& w : json::as_array(get(doc, "workloads"), "workloads"))
    out.workloads.push_back(json::as_string(get(w, "name"), "name"));
  for (const json::Value& m : json::as_array(get(doc, "end_to_end"), "end_to_end"))
    out.bounds.push_back({json::as_string(get(m, "name"), "name"),
                          json::as_string(get(m, "unit"), "unit"),
                          json::as_number(get(m, "bound"), "bound")});
  return out;
}

/// One side's artifacts.
struct Runs {
  std::size_t files = 0;
  /// values[workload][metric], one entry per run that passed its checks.
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  /// Runs per workload whose output check failed (`correct: false`).
  std::map<std::string, std::size_t> incorrect;
};

Runs read_runs(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  Runs runs;
  runs.files = files.size();
  for (const auto& file : files) {
    const json::Value doc = parse_file(file);
    for (const json::Value& w : json::as_array(get(doc, "workloads"), "workloads")) {
      const std::string& name = json::as_string(get(w, "workload"), "workload");
      if (!json::as_bool(get(w, "correct"), "correct")) {
        ++runs.incorrect[name];
        continue;
      }
      for (const auto& [metric, reading] :
           std::get<json::Object>(get(w, "metrics").value))
        runs.values[name][metric].push_back(
            json::as_number(get(reading, "value"), metric));
    }
  }
  return runs;
}

/// The values of one (workload, metric) on one side; empty when absent.
std::vector<double> values_of(const Runs& runs, const std::string& workload,
                              const std::string& metric) {
  const auto w = runs.values.find(workload);
  if (w == runs.values.end()) return {};
  const auto m = w->second.find(metric);
  return m == w->second.end() ? std::vector<double>{} : m->second;
}

std::size_t incorrect_of(const Runs& runs, const std::string& workload) {
  const auto it = runs.incorrect.find(workload);
  return it == runs.incorrect.end() ? 0 : it->second;
}

/// Python's statistics.quantiles(values, n=4) (the default 'exclusive'
/// method), so numbers here match a quick check in Python.
std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
    const long delta = i * (n + 1) - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

double share(double part, double whole) {
  return whole != 0.0 ? part / std::abs(whole) : (part == 0.0 ? 0.0 : INFINITY);
}

}  // namespace

int agree_runs(const std::string& dir_a, const std::string& dir_b, std::ostream& os) {
  const Benchmark benchmark = read_benchmark();
  const Runs a = read_runs(dir_a);
  const Runs b = read_runs(dir_b);

  os << std::setprecision(6);
  os << "workload metric unit bound | A q1 median q3 | B q1 median q3 | "
        "median delta | verdict\n";
  std::size_t rows = 0;
  std::size_t agreeing = 0;
  for (const std::string& workload : benchmark.workloads) {
    const std::size_t incorrect = incorrect_of(a, workload) + incorrect_of(b, workload);
    for (const Bound& bound : benchmark.bounds) {
      const std::vector<double> va = values_of(a, workload, bound.name);
      const std::vector<double> vb = values_of(b, workload, bound.name);
      ++rows;
      os << workload << " " << bound.name << " " << bound.unit << " " << bound.bound;
      if (incorrect > 0) {
        os << " | " << incorrect_of(a, workload) << " vs " << incorrect_of(b, workload)
           << " runs failed their output check | incorrect\n";
        continue;
      }
      if (va.size() < kMinRuns || vb.size() < kMinRuns) {
        os << " | missing runs (" << va.size() << " vs " << vb.size()
           << ") | unresolved\n";
        continue;
      }
      const auto qa = quartiles(va);
      const auto qb = quartiles(vb);
      const double spread = std::max(share(qa[2] - qa[0], qa[1]),
                                     share(qb[2] - qb[0], qb[1]));
      const double delta = share(qb[1] - qa[1], qa[1]);
      const char* verdict = spread > bound.bound              ? "unresolved"
                            : std::abs(delta) <= bound.bound ? "agree"
                                                              : "disagree";
      agreeing += std::string(verdict) == "agree" ? 1 : 0;
      os << " | " << qa[0] << " " << qa[1] << " " << qa[2] << " | " << qb[0] << " "
         << qb[1] << " " << qb[2] << " | " << std::showpos << delta * 100.0
         << std::noshowpos << "% | " << verdict << "\n";
    }
  }
  os << agreeing << " of " << rows << " rows agree (" << a.files << " vs " << b.files
     << " runs)\n";
  return rows > 0 && agreeing == rows ? 0 : 1;
}

}  // namespace hybrimoe::e2e
