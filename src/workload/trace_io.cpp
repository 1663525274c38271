#include "workload/trace_io.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/assert.hpp"

namespace hybrimoe::workload {

namespace {

void write_routing(std::ostream& os, const moe::LayerRouting& routing) {
  os << "routing tokens=" << routing.total_tokens << " experts="
     << routing.loads.size() << "\nloads";
  for (const auto l : routing.loads) os << ' ' << l;
  os << "\nscores" << std::setprecision(9);
  for (const auto s : routing.scores) os << ' ' << s;
  os << '\n';
}

void write_forward(std::ostream& os, const ForwardTrace& forward) {
  os << "forward tokens=" << forward.tokens << " layers=" << forward.num_layers()
     << '\n';
  for (std::size_t l = 0; l < forward.num_layers(); ++l) {
    os << "layer " << l << '\n';
    write_routing(os, forward.layers[l]);
    os << "predictions " << forward.predictions[l].size() << '\n';
    for (const auto& pred : forward.predictions[l]) write_routing(os, pred);
  }
}

[[noreturn]] void malformed(const std::string& what) {
  throw std::invalid_argument("malformed trace: " + what);
}

std::string expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  if (!(is >> token)) malformed("unexpected end of input, wanted '" + expected + "'");
  if (!expected.empty() && token != expected)
    malformed("expected '" + expected + "', got '" + token + "'");
  return token;
}

/// A count: decimal digits only — no sign, which would otherwise wrap to a
/// huge unsigned value — and in range of T.
template <typename T = std::size_t>
T parse_count(const std::string& text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end)
    malformed("bad " + what + " '" + text + "'");
  return value;
}

template <typename T = std::size_t>
T read_count(std::istream& is, const std::string& what) {
  std::string token;
  if (!(is >> token)) malformed("unexpected end of input, wanted " + what);
  return parse_count<T>(token, what);
}

std::size_t expect_kv(std::istream& is, const std::string& key) {
  std::string token;
  if (!(is >> token)) malformed("unexpected end of input, wanted " + key);
  const auto eq = token.find('=');
  if (eq == std::string::npos || token.substr(0, eq) != key)
    malformed("expected " + key + "=<n>, got '" + token + "'");
  return parse_count(token.substr(eq + 1), key);
}

// Counts read from the input are never used to size a vector up front: a
// corrupted count would turn into a huge allocation. Vectors grow as their
// records parse, and a count larger than the data ends in "unexpected end
// of input".

moe::LayerRouting read_routing(std::istream& is) {
  expect_token(is, "routing");
  moe::LayerRouting routing;
  routing.total_tokens = expect_kv(is, "tokens");
  const std::size_t experts = expect_kv(is, "experts");
  expect_token(is, "loads");
  for (std::size_t e = 0; e < experts; ++e)
    routing.loads.push_back(read_count<std::uint32_t>(is, "load"));
  expect_token(is, "scores");
  for (std::size_t e = 0; e < experts; ++e) {
    float score = 0.0F;
    if (!(is >> score)) malformed("truncated scores");
    routing.scores.push_back(score);
  }
  return routing;
}

ForwardTrace read_forward(std::istream& is) {
  expect_token(is, "forward");
  ForwardTrace forward;
  forward.tokens = expect_kv(is, "tokens");
  const std::size_t layers = expect_kv(is, "layers");
  for (std::size_t l = 0; l < layers; ++l) {
    expect_token(is, "layer");
    if (read_count(is, "layer index") != l) malformed("layer index mismatch");
    forward.layers.push_back(read_routing(is));
    expect_token(is, "predictions");
    const std::size_t count = read_count(is, "prediction count");
    auto& predictions = forward.predictions.emplace_back();
    for (std::size_t d = 0; d < count; ++d) predictions.push_back(read_routing(is));
  }
  return forward;
}

void write_header(std::ostream& os, const char* kind) {
  os << "HYBRIMOE-TRACE v" << kTraceFormatVersion << ' ' << kind << '\n';
}

void read_header(std::istream& is, const std::string& kind) {
  expect_token(is, "HYBRIMOE-TRACE");
  const std::string version = expect_token(is, "");
  if (version != "v" + std::to_string(kTraceFormatVersion))
    malformed("unsupported version '" + version + "'");
  expect_token(is, kind);
}

}  // namespace

void write_trace(std::ostream& os, const DecodeTrace& trace) {
  write_header(os, "decode");
  os << "steps " << trace.num_steps() << '\n';
  for (const auto& step : trace.steps) write_forward(os, step);
}

void write_trace(std::ostream& os, const PrefillTrace& trace) {
  write_header(os, "prefill");
  os << "prompt " << trace.prompt_tokens << '\n';
  write_forward(os, trace.forward);
}

DecodeTrace read_decode_trace(std::istream& is) {
  read_header(is, "decode");
  expect_token(is, "steps");
  const std::size_t steps = read_count(is, "step count");
  DecodeTrace trace;
  for (std::size_t s = 0; s < steps; ++s) trace.steps.push_back(read_forward(is));
  return trace;
}

PrefillTrace read_prefill_trace(std::istream& is) {
  read_header(is, "prefill");
  expect_token(is, "prompt");
  PrefillTrace trace;
  trace.prompt_tokens = read_count(is, "prompt length");
  trace.forward = read_forward(is);
  return trace;
}

std::string to_string(const DecodeTrace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

std::string to_string(const PrefillTrace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

DecodeTrace decode_trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_decode_trace(is);
}

PrefillTrace prefill_trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_prefill_trace(is);
}

namespace {

template <typename Trace>
void save_impl(const std::string& path, const Trace& trace) {
  std::ofstream os(path);
  HYBRIMOE_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  write_trace(os, trace);
  HYBRIMOE_REQUIRE(os.good(), "write to '" + path + "' failed");
}

}  // namespace

void save_trace(const std::string& path, const DecodeTrace& trace) {
  save_impl(path, trace);
}

void save_trace(const std::string& path, const PrefillTrace& trace) {
  save_impl(path, trace);
}

DecodeTrace load_decode_trace(const std::string& path) {
  std::ifstream is(path);
  HYBRIMOE_REQUIRE(is.good(), "cannot open '" + path + "' for reading");
  return read_decode_trace(is);
}

PrefillTrace load_prefill_trace(const std::string& path) {
  std::ifstream is(path);
  HYBRIMOE_REQUIRE(is.good(), "cannot open '" + path + "' for reading");
  return read_prefill_trace(is);
}

}  // namespace hybrimoe::workload
