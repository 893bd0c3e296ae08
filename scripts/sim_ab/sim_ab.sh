#!/usr/bin/env bash
# In-process A/B timing of the simulator: the working tree against a
# committed revision, both linked into one binary.
#
#   scripts/sim_ab/sim_ab.sh BASE [--reps N]
#
# BASE is any commit (HEAD gives an A/A run of uncommitted changes). Its
# tree is exported with `git archive` under .bench_build/sim_ab/ and built
# with -Dssp=sspBase, which moves every symbol of that revision into
# namespace sspBase; the working tree builds normally, and Side.cpp is
# compiled against each. The binary runs each (program, kind) of
# perfbench's `pipeline` set -- base/SSP x in-order/OOO simulations, a
# memory image and a profile -- on both sides in alternating order, and
# prints per kind the min of N (default 3) runs of each side with their
# ratio work/base, and the paired ratio (the median over repetitions of
# each back-to-back pair's ratio). It exits 1 if any run stores a wrong
# checksum or its SimStats digest or checksum differs.
#
# Use it to size a simulator change: host drift moves both sides of a
# pair alike. perfbench (perfbench/run.py) stays the end-to-end judge.
# SIM_AB_JOBS sets the build parallelism (default: nproc).
set -euo pipefail

usage() {
  echo "usage: $0 BASE [--reps N]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
BASE="$1"
shift
REPS=3
while [ $# -gt 0 ]; do
  case "$1" in
  --reps)
    [ $# -ge 2 ] || usage
    REPS="$2"
    shift 2
    ;;
  *) usage ;;
  esac
done

HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
JOBS="${SIM_AB_JOBS:-$(nproc 2>/dev/null || echo 1)}"
OUT="$ROOT/.bench_build/sim_ab"
SHA="$(git -C "$ROOT" rev-parse --verify "$BASE^{commit}")"
BASE_SRC="$OUT/src-$SHA"
BASE_BUILD="$OUT/build-base-$SHA"
WORK_BUILD="$OUT/build-work"
mkdir -p "$OUT"

if [ ! -d "$BASE_SRC" ]; then
  rm -rf "$BASE_SRC.tmp"
  mkdir -p "$BASE_SRC.tmp"
  git -C "$ROOT" archive "$SHA" | tar -x -C "$BASE_SRC.tmp"
  mv "$BASE_SRC.tmp" "$BASE_SRC"
fi

echo "sim_ab: building base ${SHA:0:12}" >&2
cmake -S "$HERE" -B "$BASE_BUILD" -DSSP_ROOT="$BASE_SRC" \
  -DSIM_AB_SIDE=base -DCMAKE_CXX_FLAGS=-Dssp=sspBase >/dev/null
cmake --build "$BASE_BUILD" --target sim_ab_side -j "$JOBS" >/dev/null

BASE_LIBS="$(find "$BASE_BUILD" -name '*.a' | sort | paste -sd ';' -)"
echo "sim_ab: building the working tree" >&2
cmake -S "$HERE" -B "$WORK_BUILD" -DSSP_ROOT="$ROOT" \
  -DSIM_AB_SIDE=work "-DSIM_AB_BASE_LIBS=$BASE_LIBS" >/dev/null
cmake --build "$WORK_BUILD" --target sim_ab -j "$JOBS" >/dev/null

echo "sim_ab: base = ${SHA:0:12}, work = $ROOT" >&2
exec "$WORK_BUILD/sim_ab" --reps "$REPS"
