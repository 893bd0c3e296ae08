#!/usr/bin/env bash
# CI entry point: build (Release and sanitized), test, lint, and run the
# verifier over every example program and its adaptation.
#
#   scripts/ci.sh [jobs]
#
# Exits non-zero on the first failure.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc 2>/dev/null || echo 1)}"
cd "$ROOT"

echo "== Release build + tests =="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "== clang-tidy (no-op when not installed) =="
cmake --build build-ci --target lint

# Optional: tool-stage timing report (BENCH_tool.json). Off by default —
# timings are only meaningful on quiet machines. Enable with SSP_CI_BENCH=1.
if [[ "${SSP_CI_BENCH:-0}" != 0 ]]; then
  echo "== bench-tool (tool-stage timings) =="
  cmake --build build-ci --target bench-tool
fi

echo "== ssp-verify over examples/ =="
for f in examples/*.ssp; do
  echo "-- $f"
  # The source program must be clean, and the adapted binary must verify
  # against it (ssp-adapt exits non-zero on verification errors itself;
  # the standalone pass re-checks the emitted text end to end).
  ./build-ci/tools/ssp-verify "$f"
  ./build-ci/tools/ssp-adapt "$f" --emit >"build-ci/$(basename "$f").out"
  sed -n '/^function /,$p' "build-ci/$(basename "$f").out" \
    >"build-ci/$(basename "$f").adapted"
  ./build-ci/tools/ssp-verify "build-ci/$(basename "$f").adapted"
done

echo "== Observability artifacts (trace + metrics JSON) =="
# The obs layer is off by default; this stage exercises the opt-in paths
# and validates the emitted JSON with the stdlib checker (no new deps).
./build-ci/tools/ssp-sim examples/listsum.ssp --report=attrib \
  --trace build-ci/listsum.trace.json >/dev/null
python3 -m json.tool build-ci/listsum.trace.json >/dev/null
python3 scripts/check_obs_json.py trace build-ci/listsum.trace.json
./build-ci/tools/ssp-adapt examples/listsum.ssp \
  --metrics build-ci/listsum.metrics.json >/dev/null
python3 -m json.tool build-ci/listsum.metrics.json >/dev/null
python3 scripts/check_obs_json.py metrics build-ci/listsum.metrics.json

echo "== Sampled simulation (bench-smoke + error-bound check) =="
# bench-smoke emits one tier per workload with the sampled-vs-exact
# extrapolation error under that tier's pinned SamplingPlan. The error
# values are deterministic, so the stdlib checker enforces them as hard
# bounds even on loaded CI hosts; speedups are reported but not gated
# here (enable with SSP_CI_SPEEDUP=minX on a quiet machine).
cmake --build build-ci --target bench-smoke
if [[ -n "${SSP_CI_SPEEDUP:-}" ]]; then
  python3 scripts/check_sample_error.py build-ci/BENCH_smoke.json \
    --min-stress-speedup "$SSP_CI_SPEEDUP"
else
  python3 scripts/check_sample_error.py build-ci/BENCH_smoke.json
fi

echo "== Speculation-aware dependence pruning (bench-ablation) =="
# The slicing ablation runs the paper suite with --spec-deps on and off.
# The stdlib checker enforces the feature's acceptance bar: slices get
# shorter on >= 2 workloads, the spec-on arm never regresses a speedup,
# every shrink is backed by dropped edges, and the speculation.* verify
# pass reports zero errors. All values are deterministic (simulated
# cycles, not wall time), so the bounds hold on loaded hosts too.
cmake --build build-ci --target bench-ablation
python3 scripts/check_ablation_json.py build-ci/BENCH_ablation.json

echo "== Stream descriptors on the indirect suite (bench-streams) =="
# Full p-slice replay vs descriptor execution (--streams) on hashjoin,
# pagerank and oahash. The stdlib checker enforces the feature's
# acceptance bar: >= 2 classified workloads beat their full-p-slice
# binary, none regress, every classified workload activates its stream
# and spawns zero speculative contexts, checksums stay intact, and the
# stream.* verify pass reports zero errors. Simulated cycles are
# deterministic, so the bounds hold on loaded hosts too.
cmake --build build-ci --target bench-streams
python3 scripts/check_streams_json.py build-ci/BENCH_streams.json

echo "== Closed-loop feedback re-adaptation (bench-feedback) =="
# One-shot vs adapt->simulate->re-adapt fixpoint on the paper suite. The
# stdlib checker enforces the feature's acceptance bar: the fixpoint
# improves >= 2 workloads, regresses none (monotonic accept), converges
# within the round bound, and keeps checksums and the feedback.* verify
# pass clean. Simulated cycles are deterministic, so the bounds hold on
# loaded hosts too.
cmake --build build-ci --target bench-feedback
python3 scripts/check_feedback_json.py build-ci/BENCH_feedback.json

echo "== Serving layer (ssp-adaptd pipe + bench-serve) =="
# Daemon smoke: frame two identical requests (miss, then a hit across a
# flush boundary) through a real ssp-adaptd pipe; both must come back ok.
./build-ci/tools/ssp-adapt examples/listsum.ssp \
  --emit-profile build-ci/listsum.sspprof >/dev/null
serve_request() { # id program profile
  printf 'request %s\n' "$1"
  printf 'program %s\n' "$(wc -c <"$2")"; cat "$2"
  printf 'profile %s\n' "$(wc -c <"$3")"; cat "$3"
  printf 'end\n'
}
{
  serve_request r1 examples/listsum.ssp build-ci/listsum.sspprof
  printf 'flush\n'
  serve_request r2 examples/listsum.ssp build-ci/listsum.sspprof
} | ./build-ci/tools/ssp-adaptd >build-ci/served.txt
grep -q '^response r1 ok$' build-ci/served.txt
grep -q '^response r2 ok$' build-ci/served.txt
# Negative smokes: the CLIs reject the values and spellings the request
# parser rejects, exiting non-zero with their usage text.
expect_usage() { # command...
  if "$@" >/dev/null 2>build-ci/usage.txt; then
    echo "expected a usage error from: $*" >&2
    exit 1
  fi
  grep -q '^usage:' build-ci/usage.txt
}
expect_usage ./build-ci/tools/ssp-adapt examples/listsum.ssp --feedback=+1
expect_usage ./build-ci/tools/ssp-adapt examples/listsum.ssp '--feedback= 2'
expect_usage ./build-ci/bench/bench_fig8_speedup --jobs=4
expect_usage ./build-ci/bench/bench_fig8_speedup --job 4
# The load generator re-checks every response byte-for-byte against the
# one-shot tool output and reports cold/warm throughput + latency. The
# warm-over-cold speedup is only gated on quiet machines (SSP_CI_SPEEDUP,
# same switch as the sampling-speedup gate).
cmake --build build-ci --target bench-serve
if [[ -n "${SSP_CI_SPEEDUP:-}" ]]; then
  python3 scripts/check_serve_json.py build-ci/BENCH_serve.json \
    --min-warm-over-cold 10
else
  python3 scripts/check_serve_json.py build-ci/BENCH_serve.json
fi

echo "== Repository benchmark correctness gate (perfbench) =="
# perfbench/ is a project of its own (see perfbench/README.md). Its ctest
# covers the benchmark's statistics; a short run of each workload re-checks
# every op and the determinism of the recorded counts. `pipeline` checks
# the checksum of every simulation; `adapt-scale` fails on any verify
# error in an adapted binary; `serve` fails on any response that is not
# byte-identical to the one-shot library path. The run's last stdout line
# is one JSON object, and a change that breaks a check reports
# "correct": false there.
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench -j "$JOBS"
ctest --test-dir build-perfbench --output-on-failure
for workload in pipeline adapt-scale serve; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 \
    --trace 0 >"build-ci/perfbench-$workload.txt"
  tail -n 1 "build-ci/perfbench-$workload.txt" | python3 -c '
import json, sys
if json.loads(sys.stdin.read()).get("correct") is not True:
    sys.exit("perfbench: the %s run is not correct" % sys.argv[1])' \
    "$workload"
done

echo "== Sanitized build (ASan+UBSan) + tests =="
cmake -B build-asan -S . -DSSP_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

# Optional third matrix entry: ThreadSanitizer over the concurrent paths
# (the parallel simulation harness, the tool's parallel candidate
# generation, and the daemon's batched request execution). Enable with SSP_CI_TSAN=1; off by default because TSan
# roughly doubles CI wall time on top of the ASan pass.
if [[ "${SSP_CI_TSAN:-0}" != 0 ]]; then
  echo "== Sanitized build (TSan) + concurrency tests =="
  cmake -B build-tsan -S . -DSSP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target tool_parallel_test parallel_test serve_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'ToolParallelDeterminism|Parallel|Serve'
fi

echo "CI OK"
