#!/usr/bin/env sh
# Documentation gate (CI job), two checks in one:
#
# 1. Doc-comment coverage. Every public declaration at namespace scope in the
#    checked headers — classes, structs, enums, free functions, and public
#    member functions / constructors inside `public:` sections — must be
#    immediately preceded by a Doxygen `///` comment line (or share a line
#    with one). Checked: the prefetcher interface (src/core/prefetcher.hpp —
#    bench/e2e overrides it, so its contract is pinned), src/exec/*.hpp (the most concurrency-dense code in
#    the repository; undocumented thread-safety assumptions are how it would
#    rot), the fault-injection headers (src/scenario/*.hpp — scenario specs
#    are user-facing configuration; an undocumented knob is an unusable one),
#    the discrete-event serving core (src/serve_sim/*.hpp — its event
#    ordering and KV-accounting invariants are the bit-identity contract the
#    serving goldens pin down), the trace subsystem (src/trace/*.hpp — its
#    schema and comparator semantics are the regression-gate contract) plus
#    the device-topology headers (src/hw/topology.hpp, src/sched/device.hpp —
#    the vocabulary every layer of the stack now speaks), the warmup phase
#    (src/hw/calibration.hpp, src/core/warmup.hpp — the measurements and
#    statistics every scheduling decision starts from), the engine-facing
#    API (src/hw/cost_model.hpp, src/sched/plan.hpp, src/runtime/engine.hpp,
#    src/runtime/session.hpp, src/runtime/serve_engine.hpp,
#    src/runtime/request.hpp — the cost queries, plan shape, engine,
#    experiment runners and serving options every bench, example and tool is
#    written against),
#    the scheduler core (src/sched/simulator.hpp, src/sched/schedulers.hpp —
#    the §IV-B simulation and the policies built from its option tables),
#    and the SIMD dispatch header (src/kernels/simd.hpp — its
#    ulp-equivalence and dispatch-determinism contract is what keeps
#    digests stable).
#
# 2. Relative links. Every `[text](path)` link in docs/*.md, README.md and
#    bench/README.md that is not an absolute URL or a pure fragment must
#    resolve to an existing file, relative to the linking document.
#
# Usage: tools/check_docs.sh        (from the repository root)
# Exits non-zero listing undocumented declarations / broken links.

set -eu

fail=0

# ---------------------------------------------------------------------------
# 1. Doc-comment coverage.
# ---------------------------------------------------------------------------
doc_headers="src/core/prefetcher.hpp src/exec/*.hpp src/scenario/*.hpp src/serve_sim/*.hpp src/trace/*.hpp src/hw/topology.hpp src/hw/cost_model.hpp src/hw/calibration.hpp src/core/warmup.hpp src/sched/device.hpp src/sched/plan.hpp src/sched/simulator.hpp src/sched/schedulers.hpp src/runtime/engine.hpp src/runtime/session.hpp src/runtime/serve_engine.hpp src/runtime/request.hpp src/kernels/simd.hpp"
for header in $doc_headers; do
  out=$(awk '
    # Track public sections inside class bodies (structs default public).
    /^ *public:/    { access = "public" }
    /^ *private:/   { access = "private" }
    /^ *protected:/ { access = "private" }
    /^(class|struct) /       { access = "public" }
    # A declaration line: class/struct/enum at col 0, or a function-ish line
    # (ends in "(" args..., contains "(") at col 0 or 2, that is not a macro,
    # comment, control keyword, or continuation.
    {
      line = $0
      is_decl = 0
      if (line ~ /^(class|struct|enum class|template) [A-Za-z_]/) is_decl = 1
      else if (line ~ /^ ? ?(\[\[nodiscard\]\] |inline |constexpr |static |explicit |virtual |friend )*[A-Za-z_:<>,&* ]*[A-Za-z_]+ *\(/ \
               && line !~ /^ *(if|for|while|switch|return)[ (]/ \
               && line !~ /^ *\/\// && line !~ /^#/ && line !~ /^   / \
               && line !~ /^ *}/ && line !~ /^ *:/ && line !~ /=.*;$/) is_decl = 2
      if (is_decl == 2 && access == "private") is_decl = 0
      # Deleted/defaulted special members and operators need no docs.
      if (line ~ /= *(delete|default) *;/) is_decl = 0
      if (line ~ /operator/) is_decl = 0
      if (is_decl && prev !~ /^ *\/\/\// && line !~ /\/\/\//)
        printf "%s:%d: undocumented public declaration: %s\n", FILENAME, FNR, line
      if (line !~ /^ *$/) prev = line
    }
  ' "$header")
  if [ -n "$out" ]; then
    echo "$out"
    fail=1
  fi
done

# ---------------------------------------------------------------------------
# 2. Relative links in the docs.
# ---------------------------------------------------------------------------
for doc in docs/*.md README.md bench/README.md; do
  [ -f "$doc" ] || continue
  dir=$(dirname "$doc")
  # Extract (path) of every [text](path); strip #fragments; skip URLs.
  links=$(grep -o '\[[^]]*\]([^)]*)' "$doc" 2>/dev/null |
          sed 's/.*](\([^)]*\))/\1/' | sed 's/#.*$//' |
          grep -v '^[a-z][a-z0-9+.-]*:' | grep -v '^$' || true)
  for link in $links; do
    if [ ! -e "$dir/$link" ]; then
      echo "$doc: broken relative link: $link"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo 'FAIL: undocumented public declarations or broken doc links (see above).'
  exit 1
fi
echo "OK: public declarations documented ($doc_headers) and doc links resolve."
