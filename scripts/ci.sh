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

echo "== ssp-adapt --run against its golden output =="
# The in-order baseline --run prints comes from the profile's timing pass,
# or from a fresh run under --throttle; both must print what the fresh
# simulations printed.
{
  ./build-ci/tools/ssp-adapt examples/listsum.ssp --run
  ./build-ci/tools/ssp-adapt examples/listsum.ssp --run --throttle
} | diff tests/golden/ssp_adapt_run_listsum.txt -

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

echo "== End-to-end smoke (bench_smoke) =="
# One small workload through the full pipeline plus the sampled tiers; the
# report goes to stdout and the exit code is 1 on any checksum mismatch.
# The tiers' sampling-error bounds are pinned by sample_test in ctest.
./build-ci/bench/bench_smoke --jobs 2

echo "== Gating benches (slicing ablation, streams, feedback) =="
# Each bench exits 1 when its feature's acceptance bar fails (see each
# file's header): spec-deps shortens slices on >= 2 workloads without
# regressing a speedup; stream descriptors beat full p-slice replay on
# >= 2 workloads and replace every spawned context; the feedback loop
# improves >= 2 workloads and reaches its fixpoint within the round
# bound. All bars rest on simulated cycles, so they hold on loaded hosts.
./build-ci/bench/bench_ablation_slicing --jobs 2
./build-ci/bench/bench_streams --jobs 2
./build-ci/bench/bench_feedback --jobs 2

echo "== Serving layer (ssp-adaptd pipe) =="
# Daemon smoke: frame two identical requests (miss, then a hit across a
# flush boundary) through a real ssp-adaptd pipe; both must come back ok.
./build-ci/tools/ssp-adapt examples/listsum.ssp \
  --emit-profile build-ci/listsum.sspprof >/dev/null
serve_request() { # id program profile [key=value...]
  printf 'request %s\n' "$1"
  printf 'program %s\n' "$(wc -c <"$2")"; cat "$2"
  printf 'profile %s\n' "$(wc -c <"$3")"; cat "$3"
  shift 3
  for opt in "$@"; do printf 'option %s\n' "$opt"; done
  printf 'end\n'
}
{
  serve_request r1 examples/listsum.ssp build-ci/listsum.sspprof
  printf 'flush\n'
  serve_request r2 examples/listsum.ssp build-ci/listsum.sspprof
} | ./build-ci/tools/ssp-adaptd >build-ci/served.txt
grep -q '^response r1 ok$' build-ci/served.txt
grep -q '^response r2 ok$' build-ci/served.txt
# The hit shares the miss's cached result: after the id line, r2's
# response is byte-identical to r1's.
test "$(head -n 1 build-ci/served.txt)" = 'response r1 ok'
r2_at=$(grep -n '^response r2 ok$' build-ci/served.txt | cut -d: -f1)
sed -n "2,$((r2_at - 1))p" build-ci/served.txt >build-ci/served-r1.txt
sed -n "$((r2_at + 1)),\$p" build-ci/served.txt >build-ci/served-r2.txt
cmp build-ci/served-r1.txt build-ci/served-r2.txt
# A framing error after a payload is located by counting the payload's
# lines as stdin is read: r1 spans lines 1-178 (136 program and 38
# profile lines), the bad request's program ends on line 316, and its
# stray `bogus` line is line 317.
{
  serve_request r1 examples/listsum.ssp build-ci/listsum.sspprof
  printf 'request bad\n'
  printf 'program %s\n' "$(wc -c <examples/listsum.ssp)"
  cat examples/listsum.ssp
  printf 'bogus\nend\n'
} | ./build-ci/tools/ssp-adaptd >build-ci/served-framing.txt
grep -q '^response r1 ok$' build-ci/served-framing.txt
grep -q '^response bad error$' build-ci/served-framing.txt
grep -qx "line 317: expected 'program', 'profile', 'option', or 'end', got 'bogus'" \
  build-ci/served-framing.txt
# A profile whose icall record names no function (inserted before the
# first load record, where the parser accepts it): ssp-adapt rejects it
# with a `profile:` message and exit 1, and the daemon fails only that
# request of its batch.
awk '/^load / && !done { print "icall 0 1 0 9 1"; done = 1 } { print }' \
  build-ci/listsum.sspprof >build-ci/listsum-bad.sspprof
rc=0
./build-ci/tools/ssp-adapt examples/listsum.ssp \
  --profile build-ci/listsum-bad.sspprof >/dev/null 2>build-ci/badprof.txt ||
  rc=$?
test "$rc" -eq 1
grep -q 'profile: icall record' build-ci/badprof.txt
{
  serve_request bad examples/listsum.ssp build-ci/listsum-bad.sspprof
  serve_request good examples/listsum.ssp build-ci/listsum.sspprof
} | ./build-ci/tools/ssp-adaptd >build-ci/served-bad.txt
grep -q '^response bad error$' build-ci/served-bad.txt
grep -q '^response good ok$' build-ci/served-bad.txt
# Two more bad profiles in the same style: a `load` record naming a movi
# (id 2), which slicing used to abort on, and a `load` record whose id
# 4294967295 used to wrap a table size and crash.
sed 's/^load 0 3 /load 0 2 /' build-ci/listsum.sspprof \
  >build-ci/listsum-nonload.sspprof
awk '/^load / && !done { print "load 0 4294967295 1 0 0 0 1 0 0 0 0 230"
                         done = 1 } { print }' \
  build-ci/listsum.sspprof >build-ci/listsum-hugeid.sspprof
for bad in nonload:'profile: load record fn0 @2 names' \
  hugeid:'instruction id 4294967295 out of range'; do
  name="${bad%%:*}" msg="${bad#*:}"
  rc=0
  ./build-ci/tools/ssp-adapt examples/listsum.ssp \
    --profile "build-ci/listsum-$name.sspprof" >/dev/null \
    2>"build-ci/$name.txt" || rc=$?
  test "$rc" -eq 1
  grep -q "$msg" "build-ci/$name.txt"
  {
    serve_request bad examples/listsum.ssp "build-ci/listsum-$name.sspprof"
    serve_request good examples/listsum.ssp build-ci/listsum.sspprof
  } | ./build-ci/tools/ssp-adaptd --jobs 2 >"build-ci/served-$name.txt"
  grep -q '^response bad error$' "build-ci/served-$name.txt"
  grep -q '^response good ok$' "build-ci/served-$name.txt"
done
# A program immediate past int64_t, which the parser used to clamp to
# INT64_MAX and run: ssp-sim and ssp-adapt exit 1 with the located parse
# error, and the daemon fails only that request of its batch.
sed 's/movi r1 = 1048576/movi r1 = 99999999999999999999999/' \
  examples/listsum.ssp >build-ci/listsum-hugeimm.ssp
hugeimm_msg='line 16: integer 99999999999999999999999 out of range'
for tool in ssp-sim ssp-adapt; do
  rc=0
  "./build-ci/tools/$tool" build-ci/listsum-hugeimm.ssp >/dev/null \
    2>"build-ci/hugeimm-$tool.txt" || rc=$?
  test "$rc" -eq 1
  grep -q "$hugeimm_msg" "build-ci/hugeimm-$tool.txt"
done
{
  serve_request bad build-ci/listsum-hugeimm.ssp build-ci/listsum.sspprof
  serve_request good examples/listsum.ssp build-ci/listsum.sspprof
} | ./build-ci/tools/ssp-adaptd --jobs 2 >build-ci/served-hugeimm.txt
grep -q '^response bad error$' build-ci/served-hugeimm.txt
grep -q "$hugeimm_msg" build-ci/served-hugeimm.txt
grep -q '^response good ok$' build-ci/served-hugeimm.txt
# A LIB slot past the 16-slot live-in buffer, which used to abort the
# simulator: ssp-sim and ssp-adapt exit 1 with the located parse error.
# The daemon, whose feedback round used to run the program under a
# profile that matches it and abort, fails only that request of its batch.
sed '/^    movi r2 = 0 /i\    lib.st lib[99] = r1' examples/listsum.ssp \
  >build-ci/listsum-libslot.ssp
printf 'sspprof v1\nbaseline 10\nfuncs 1\nblockcounts 0 1: 1\n' \
  >build-ci/libslot.sspprof
libslot_msg='line 17: LIB slot 99 out of range (16 slots)'
for tool in ssp-sim ssp-adapt; do
  rc=0
  "./build-ci/tools/$tool" build-ci/listsum-libslot.ssp >/dev/null \
    2>"build-ci/libslot-$tool.txt" || rc=$?
  test "$rc" -eq 1
  grep -q "$libslot_msg" "build-ci/libslot-$tool.txt"
done
{
  serve_request bad build-ci/listsum-libslot.ssp build-ci/libslot.sspprof \
    feedback-rounds=1
  serve_request good examples/listsum.ssp build-ci/listsum.sspprof \
    feedback-rounds=1
} | ./build-ci/tools/ssp-adaptd --jobs 2 >build-ci/served-libslot.txt
grep -q '^response bad error$' build-ci/served-libslot.txt
grep -q "$libslot_msg" build-ci/served-libslot.txt
grep -q '^response good ok$' build-ci/served-libslot.txt
# Two counts that used to size an allocation before anything they count
# was read, each run under a 3 GB `ulimit -v` set in a subshell so it binds
# only that process: a `funcs 4294967295` profile (exit 1 from ssp-adapt,
# an error for its request), and a frame header announcing 2^62 payload
# bytes followed by end of input. The batch-mate still gets `ok`.
limited() { (ulimit -v 3145728; "$@"); }
sed 's/^funcs .*/funcs 4294967295/' build-ci/listsum.sspprof \
  >build-ci/listsum-hugefuncs.sspprof
rc=0
limited ./build-ci/tools/ssp-adapt examples/listsum.ssp \
  --profile build-ci/listsum-hugefuncs.sspprof >/dev/null \
  2>build-ci/hugefuncs.txt || rc=$?
test "$rc" -eq 1
grep -q "'funcs' claims 4294967295 functions" build-ci/hugefuncs.txt
{
  serve_request bad examples/listsum.ssp build-ci/listsum-hugefuncs.sspprof
  serve_request good examples/listsum.ssp build-ci/listsum.sspprof
} | limited ./build-ci/tools/ssp-adaptd --jobs 2 >build-ci/served-hugefuncs.txt
grep -q '^response bad error$' build-ci/served-hugefuncs.txt
grep -q '^response good ok$' build-ci/served-hugefuncs.txt
{
  serve_request good examples/listsum.ssp build-ci/listsum.sspprof
  printf 'request bad\nprogram 4611686018427387904\n'
} | limited ./build-ci/tools/ssp-adaptd >build-ci/served-hugeframe.txt
grep -q '^response bad error$' build-ci/served-hugeframe.txt
grep -q '^response good ok$' build-ci/served-hugeframe.txt
# An instruction id that used to size a table: 600 functions with one
# `instcount` at the top id each (8 MiB per function when rows were dense).
# The parse stays small, and the function-count check rejects the profile.
{
  printf 'sspprof v1\nfuncs 600\n'
  for f in $(seq 0 599); do echo "blockcounts $f 0:"; done
  echo 'depevidence 1'
  for f in $(seq 0 599); do echo "instcount $f 1048575 1"; done
} >build-ci/manyfuncs-instcount.sspprof
rc=0
limited ./build-ci/tools/ssp-adapt examples/listsum.ssp \
  --profile build-ci/manyfuncs-instcount.sspprof >/dev/null \
  2>build-ci/instcount.txt || rc=$?
test "$rc" -eq 1
grep -q 'function count 600 does not match program' build-ci/instcount.txt
{
  serve_request bad examples/listsum.ssp build-ci/manyfuncs-instcount.sspprof
  serve_request good examples/listsum.ssp build-ci/listsum.sspprof
} | limited ./build-ci/tools/ssp-adaptd --jobs 2 >build-ci/served-instcount.txt
grep -q '^response bad error$' build-ci/served-instcount.txt
grep -q '^response good ok$' build-ci/served-instcount.txt
# The same for `load` ids: 200 functions with one `load` at the top id each
# (4 MiB per function when load rows were dense), under a 512 MB limit the
# dense rows overran.
limited512() { (ulimit -v 524288; "$@"); }
{
  printf 'sspprof v1\nfuncs 200\n'
  for f in $(seq 0 199); do echo "blockcounts $f 0:"; done
  for f in $(seq 0 199); do echo "load $f 1048575 1 0 0 0 1 0 0 0 0 230"; done
} >build-ci/manyfuncs-load.sspprof
rc=0
limited512 ./build-ci/tools/ssp-adapt examples/listsum.ssp \
  --profile build-ci/manyfuncs-load.sspprof >/dev/null \
  2>build-ci/load.txt || rc=$?
test "$rc" -eq 1
grep -q 'function count 200 does not match program' build-ci/load.txt
{
  serve_request bad examples/listsum.ssp build-ci/manyfuncs-load.sspprof
  serve_request good examples/listsum.ssp build-ci/listsum.sspprof
} | limited512 ./build-ci/tools/ssp-adaptd --jobs 2 >build-ci/served-load.txt
grep -q '^response bad error$' build-ci/served-load.txt
grep -q '^response good ok$' build-ci/served-load.txt
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
expect_usage ./build-ci/tools/ssp-adapt examples/listsum.ssp --throttle
expect_usage ./build-ci/tools/ssp-adapt examples/listsum.ssp --sample
expect_usage ./build-ci/bench/bench_fig8_speedup --jobs=4
expect_usage ./build-ci/bench/bench_fig8_speedup --job 4
expect_usage ./build-ci/bench/bench_streams --out x.json
expect_usage ./build-ci/bench/bench_smoke --out x.json

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

echo "== Simulator A/B harness (A/A against HEAD) =="
# Keeps scripts/sim_ab building: HEAD against the working tree, one
# repetition in each namespace assignment. The harness exits 1 unless
# every simulation's SimStats digest and checksum agree between the two
# sides and the two binaries. The profile smoke runs the base in-order
# simulations once under the sampler and must name a simulator frame.
SIM_AB_JOBS="$JOBS" scripts/sim_ab/sim_ab.sh HEAD --reps 1
SIM_AB_JOBS="$JOBS" scripts/sim_ab/sim_ab.sh HEAD --profile 0 --reps 1 \
  >build-ci/sim_ab_profile.txt
grep -q 'Simulator::' build-ci/sim_ab_profile.txt

echo "== Sanitized build (ASan+UBSan) + tests =="
cmake -B build-asan -S . -DSSP_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

# Third matrix entry: ThreadSanitizer over the concurrent paths (the
# parallel simulation harness, the tool's parallel candidate generation
# over shared, lazily filled state — per-function reaching defs, control
# dependences and callee summaries built once on first use, the call-cost
# and region-height memos — and the daemon's batched request execution).
# The runner's shared caches are covered twice: runAll driving run() jobs
# that fan out on the same pool, and the pipeline differential on a pool.
# It adds about 80 s of build and 3 min of tests on 4 vCPUs, most of it
# the differential's no-skip runs.
echo "== Sanitized build (TSan) + concurrency tests =="
cmake -B build-tsan -S . -DSSP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target tool_parallel_test parallel_test pipeline_test serve_test \
  lazy_analyses_test
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ToolParallelDeterminism|Parallel|SuiteRunnerPool|SuiteRunnerDifferential|Serve|LazyAnalyses'

echo "CI OK"
