#!/usr/bin/env bash
# In-process A/B timing of the simulator: the working tree against a
# committed revision, both linked into one binary.
#
#   scripts/sim_ab/sim_ab.sh BASE [--reps N] [--profile KIND]
#
# BASE is any commit (HEAD gives an A/A run of uncommitted changes). Its
# tree is exported with `git archive` under .bench_build/sim_ab/. Two
# binaries are built, one per namespace assignment: in the first the base
# revision is built with -Dssp=sspBase (every symbol moves into namespace
# sspBase) and the working tree normally; in the second the roles swap.
# Side.cpp is compiled against each revision. Each binary runs each
# (program, kind) of perfbench's `pipeline` set -- base/SSP x
# in-order/OOO simulations, a memory image and a profile -- on both sides
# in alternating order. The report prints per kind the min of N (default
# 3) runs of each side, the ratio work/base of the minima, and the paired
# ratio (the median over repetitions of each back-to-back pair's ratio),
# each as the geometric mean over the two binaries: a side that runs
# faster only because of where the linker put it is favoured in one
# binary and penalised in the other, so the mean cancels that bias. The
# script exits 1 if any run stores a wrong checksum or a SimStats digest
# or checksum differs between the sides or the binaries.
#
# With --profile KIND (0 base in-order, 1 SSP in-order, 2 base OOO,
# 3 SSP OOO, 4 memory image, 5 profile) only the working tree's side of
# that kind runs, N times over every program, under an ITIMER_PROF
# program-counter sampler; the samples are symbolized with binutils
# `addr2line -f -i -C` and the top functions and source lines printed.
#
# Use it to size a simulator change: host drift moves both sides of a
# pair alike. perfbench (perfbench/run.py) stays the end-to-end judge.
# SIM_AB_JOBS sets the build parallelism (default: nproc).
set -euo pipefail

usage() {
  echo "usage: $0 BASE [--reps N] [--profile KIND]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
BASE="$1"
shift
REPS=3
PROFILE=
while [ $# -gt 0 ]; do
  case "$1" in
  --reps | --profile)
    [ $# -ge 2 ] || usage
    if [ "$1" = --reps ]; then REPS="$2"; else PROFILE="$2"; fi
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
mkdir -p "$OUT"

if [ ! -d "$BASE_SRC" ]; then
  rm -rf "$BASE_SRC.tmp"
  mkdir -p "$BASE_SRC.tmp"
  git -C "$ROOT" archive "$SHA" | tar -x -C "$BASE_SRC.tmp"
  mv "$BASE_SRC.tmp" "$BASE_SRC"
fi

# build_renamed SRC DIR: SRC's libraries with namespace ssp -> sspBase.
build_renamed() {
  echo "sim_ab: building $2 (renamed)" >&2
  cmake -S "$HERE" -B "$OUT/$2" -DSSP_ROOT="$1" -DSIM_AB_SIDE=renamed \
    -DCMAKE_CXX_FLAGS=-Dssp=sspBase >/dev/null
  cmake --build "$OUT/$2" --target sim_ab_side -j "$JOBS" >/dev/null
}
# build_plain SRC DIR RENAMED_DIR: SRC in namespace ssp plus the binary.
build_plain() {
  echo "sim_ab: building $2" >&2
  local libs
  libs="$(find "$OUT/$3" -name '*.a' | sort | paste -sd ';' -)"
  cmake -S "$HERE" -B "$OUT/$2" -DSSP_ROOT="$1" -DSIM_AB_SIDE=plain \
    "-DSIM_AB_RENAMED_LIBS=$libs" >/dev/null
  cmake --build "$OUT/$2" --target sim_ab -j "$JOBS" >/dev/null
}

build_renamed "$BASE_SRC" "build-base-renamed-$SHA"
build_plain "$ROOT" build-work "build-base-renamed-$SHA"
echo "sim_ab: base = ${SHA:0:12}, work = $ROOT" >&2

if [ -n "$PROFILE" ]; then
  exec "$OUT/build-work/sim_ab" --renamed base --reps "$REPS" \
    --profile "$PROFILE"
fi

build_renamed "$ROOT" build-work-renamed
build_plain "$BASE_SRC" "build-base-$SHA" build-work-renamed

RAW_A="$OUT/work-plain.raw"
RAW_B="$OUT/work-renamed.raw"
"$OUT/build-work/sim_ab" --renamed base --reps "$REPS" --raw "$RAW_A"
"$OUT/build-base-$SHA/sim_ab" --renamed work --reps "$REPS" --raw "$RAW_B"
exec "$OUT/build-work/sim_ab" --combine "$RAW_A" "$RAW_B"
