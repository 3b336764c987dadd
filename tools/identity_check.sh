#!/usr/bin/env bash
# Bit-identity check between two builds of this repository on both kernel
# tiers: runs the same workloads with BUILD_A and BUILD_B under
# SPCA_KERNEL_ISA=scalar and SPCA_KERNEL_ISA=avx2, masks wall-clock fields
# and prints one row per output:
#
#   identical                equal on both tiers
#   differs only under avx2  equal under scalar, different under avx2
#   differs                  different under scalar
#
# The outputs:
#   - spca_cli --save-model files, their .meta sidecars and stdout for all
#     seven --algorithm values on tweets/Spark and biotext/MapReduce at
#     3000 x 400, d = 10;
#   - spca_cli stdout of a --replay-rows/--replay-faults run, and the
#     simulated-cluster spans (tid 2) of its --trace-out file;
#   - the bench_sketch JSON;
#   - SPCA_BENCH_SCALE=0.1 bench_fig4, bench_fig5 and bench_table3 stdout;
#   - spca_stream spools and checkpoint pairs (minibatch and oja).
#
# Usage: tools/identity_check.sh BUILD_A BUILD_B [WORK_DIR]
#   BUILD_* are CMake build directories (tools/ and bench/ built). Outputs
#   land in WORK_DIR/{a,b}/{scalar,avx2}; without WORK_DIR a temporary
#   directory is used and removed when every row is identical.
# Exit status: 0 all identical, 1 any output differs, 2 usage error or a
# failed run.
set -Eeuo pipefail

usage() {
  echo "usage: $0 BUILD_A BUILD_B [WORK_DIR]" >&2
  exit 2
}
[[ $# -ge 2 && $# -le 3 ]] || usage
for build in "$1" "$2"; do
  for bin in tools/spca_cli tools/spca_stream bench/bench_sketch \
      bench/bench_fig4_accuracy_biotext bench/bench_fig5_accuracy_tweets \
      bench/bench_table3_optimizations; do
    if [[ ! -x "$build/$bin" ]]; then
      echo "error: $build/$bin not built" >&2
      usage
    fi
  done
done
build_a=$(cd "$1" && pwd)
build_b=$(cd "$2" && pwd)
if [[ $# -eq 3 ]]; then
  mkdir -p "$3"
  work=$(cd "$3" && pwd)
  keep_work=1
else
  work=$(mktemp -d "${TMPDIR:-/tmp}/identity_check.XXXXXX")
  keep_work=0
fi

# Runs write their stderr to files; fd 3 keeps the terminal's.
exec 3>&2
trap 'echo "error: a run failed (line $LINENO); see $work/*.stderr" >&3
      exit 2' ERR

legs=(scalar avx2)
algorithms=(spca spca_sparse mllib mahout lanczos bidiag rand_svd)
datasets=(tweets:spark biotext:mapreduce)
benches=(bench_fig4_accuracy_biotext bench_fig5_accuracy_tweets
         bench_table3_optimizations)
stream_solvers=(minibatch oja)

# Writes every output of build $1 into directory $2 (the working
# directory, so printed paths are the same relative names on both sides)
# under the caller's SPCA_KERNEL_ISA.
run_outputs() {
  local build=$1 out=$2 spec data platform algo bench solver
  rm -rf "$out"
  mkdir -p "$out"
  cd "$out"
  for spec in "${datasets[@]}"; do
    data=${spec%%:*}
    platform=${spec##*:}
    for algo in "${algorithms[@]}"; do
      "$build/tools/spca_cli" --generate="$data" --platform="$platform" \
          --rows=3000 --cols=400 --components=10 --algorithm="$algo" \
          --save-model="${data}_${algo}.spcm" > "${data}_${algo}.stdout"
    done
  done
  "$build/tools/spca_cli" --generate=biotext --rows=2000 --cols=300 \
      --components=8 --iterations=3 --target=2.0 --fault-rate=0.1 \
      --fault-seed=3 --replay-rows=1e6,1e9 --replay-faults \
      --trace-out=trace.json > replay.stdout
  grep '"tid":2' trace.json > trace.sim_spans
  rm trace.json
  "$build/bench/bench_sketch" --rows 1500 --cols 200 --components 6 \
      --out bench_sketch.json > /dev/null
  for bench in "${benches[@]}"; do
    SPCA_BENCH_SCALE=0.1 "$build/bench/$bench" > "$bench.stdout"
  done
  for solver in "${stream_solvers[@]}"; do
    "$build/tools/spca_stream" --solver "$solver" --dim 128 --rank 6 \
        --components 6 --batch-rows 192 --batches 24 --publish-every 6 \
        --drift-every 10 --serve-concurrency 0 \
        --spool "stream_$solver.spcm" --checkpoint-every-batches 6 \
        --checkpoint-path "stream_${solver}_checkpoint.spcm" > /dev/null
  done
  # Wall-clock fields of the printed reports.
  sed -i -E 's/wall=[0-9.]+s/wall=<wall>/g' ./*.stdout
  cd - > /dev/null
}

for leg in "${legs[@]}"; do
  for side in a b; do
    build=$build_a
    [[ $side == b ]] && build=$build_b
    SPCA_KERNEL_ISA=$leg run_outputs "$build" "$work/$side/$leg" 2> \
        "$work/$side.$leg.stderr"
  done
done

# "same" or "differs" for output $2 on leg $1; "-" when neither side
# wrote it.
compare() {
  local a="$work/a/$1/$2" b="$work/b/$1/$2"
  if [[ ! -e $a && ! -e $b ]]; then
    echo "-"
  elif [[ -e $a && -e $b ]] && cmp -s "$a" "$b"; then
    echo "same"
  else
    echo "differs"
  fi
}

failures=0
printf '%-44s %-8s %-8s %s\n' output scalar avx2 verdict
while read -r name; do
  scalar=$(compare scalar "$name")
  avx2=$(compare avx2 "$name")
  if [[ $scalar == "-" && $avx2 == "-" ]]; then
    continue
  elif [[ $scalar != differs && $avx2 != differs ]]; then
    verdict=identical
  elif [[ $scalar != differs ]]; then
    verdict="differs only under avx2"
    failures=$((failures + 1))
  else
    verdict=differs
    failures=$((failures + 1))
  fi
  printf '%-44s %-8s %-8s %s\n' "$name" "$scalar" "$avx2" "$verdict"
done < <(cd "$work" && find a b -mindepth 2 -type f -printf '%P\n' |
             sed 's|^[^/]*/||' | sort -u)

if [[ $failures -gt 0 ]]; then
  echo "$failures output(s) differ; outputs kept in $work" >&2
  exit 1
fi
echo "all outputs identical on both kernel tiers"
[[ $keep_work -eq 1 ]] || rm -rf "$work"
