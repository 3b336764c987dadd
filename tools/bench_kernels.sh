#!/usr/bin/env bash
# Kernel-layer perf regression gate. Runs the naive-vs-kernel micro
# benchmark pairs in bench_micro_linalg twice — once under the runtime
# dispatcher's native ISA pick and once forced to the scalar kernels via
# SPCA_KERNEL_ISA=scalar — and emits BENCH_kernels.json (schema
# spca.bench_kernels.v2) recording the dispatched ISA, per-ISA ns/op for
# every pair and the speedups. End-to-end fit time is measured by the
# repository benchmark (perfbench, workload fit_tweets), not here.
#
# The headline gate scales with the dispatched ISA:
#   - SIMD dispatch (avx2/neon): the d=50 sparse row product, the d=50
#     XtX rank-1 update, and the dense row-GEMM must hold >= 4x over the
#     pre-kernel naive loops, and the small-d (d=10) rank-1 update must
#     hold >= 1.5x (it is store-bound, not FMA-bound, at that size).
#   - Scalar dispatch (SPCA_SIMD=OFF builds or scalar-only hosts): the
#     original 2x gate on the two original headline shapes.
#
# Timing on shared CI runners is noisy, so a failed gate re-measures up to
# BENCH_KERNELS_ATTEMPTS times (default 2) before failing the job.
#
# Usage: tools/bench_kernels.sh [build_dir] [output_json]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_kernels.json}"
ATTEMPTS="${BENCH_KERNELS_ATTEMPTS:-2}"
cd "$(dirname "$0")/.."

if [[ ! -x "$BUILD_DIR/bench/bench_micro_linalg" ]]; then
  echo "bench_micro_linalg not built in $BUILD_DIR; configure with" >&2
  echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

MICRO_JSON="$(mktemp)"
SCALAR_JSON="$(mktemp)"
trap 'rm -f "$MICRO_JSON" "$SCALAR_JSON"' EXIT

measure_and_gate() {
  # Native dispatch: naive references plus dispatched kernels. The bench
  # binary records the resolved ISA as spca_kernel_isa in the JSON
  # context block.
  "$BUILD_DIR/bench/bench_micro_linalg" \
    --benchmark_filter='Naive|Kernel' \
    --benchmark_min_time=0.2 \
    --benchmark_format=json >"$MICRO_JSON"

  # Forced-scalar leg: kernel side only (the naive loops don't dispatch),
  # giving the per-ISA ns/op columns even on SIMD hosts.
  SPCA_KERNEL_ISA=scalar "$BUILD_DIR/bench/bench_micro_linalg" \
    --benchmark_filter='Kernel' \
    --benchmark_min_time=0.2 \
    --benchmark_format=json >"$SCALAR_JSON"

  python3 - "$MICRO_JSON" "$SCALAR_JSON" "$OUT" <<'EOF'
import json
import sys

micro_path, scalar_path, out_path = sys.argv[1:4]


def bench_times(path):
    doc = json.load(open(path))
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        times[b["name"]] = b["real_time"]  # already ns (time_unit default)
    return doc, times


micro, bench_ns = bench_times(micro_path)
_, scalar_ns = bench_times(scalar_path)

isa = micro.get("context", {}).get("spca_kernel_isa", "unknown")

pairs = {}
for name, ns in sorted(bench_ns.items()):
    if not name.startswith("BM_Naive"):
        continue
    kernel_name = name.replace("BM_Naive", "BM_Kernel", 1)
    if kernel_name not in bench_ns:
        continue
    shape = name.removeprefix("BM_Naive")
    per_isa = {isa: round(bench_ns[kernel_name], 2)}
    if kernel_name in scalar_ns and isa != "scalar":
        per_isa["scalar"] = round(scalar_ns[kernel_name], 2)
    pairs[shape] = {
        "naive_ns_per_op": round(ns, 2),
        "kernel_ns_per_op": per_isa,
        "speedup": round(ns / bench_ns[kernel_name], 3),
    }

# Headline gates (see header comment): 4x on the hot d=50 shapes under
# SIMD dispatch with a 1.5x floor on the store-bound small-d rank-1
# update; the original 2x gate when dispatch resolved to scalar.
if isa == "scalar":
    gates = {"SparseRowDense/100": 2.0, "Rank1Update/50": 2.0}
else:
    gates = {
        "SparseRowDense/100": 4.0,
        "Rank1Update/50": 4.0,
        "DenseRowGemm/2000": 4.0,
        "Rank1Update/10": 1.5,
    }

headline = {k: pairs[k]["speedup"] for k in gates if k in pairs}

result = {
    "schema": "spca.bench_kernels.v2",
    "dispatched_isa": isa,
    "workload": {
        "micro": "bench_micro_linalg --benchmark_filter=Naive|Kernel"
                 " (plus a SPCA_KERNEL_ISA=scalar kernel-only pass)",
    },
    "kernel_pairs": pairs,
    "headline_speedups": headline,
    "headline_gates": gates,
}

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(f"wrote {out_path} (dispatched ISA: {isa})")
for k, v in pairs.items():
    per_isa = "  ".join(f"{i} {ns:>9.1f} ns" for i, ns in
                        v["kernel_ns_per_op"].items())
    print(f"  {k:28s} naive {v['naive_ns_per_op']:>10.1f} ns  "
          f"{per_isa}  {v['speedup']:.2f}x")
missing = [k for k in gates if k not in pairs]
low = {k: (headline[k], gates[k]) for k in headline if headline[k] < gates[k]}
if missing:
    print(f"GATE FAILED: headline shapes missing from bench run: {missing}")
    sys.exit(1)
if low:
    print("GATE FAILED: headline kernels below threshold: " +
          ", ".join(f"{k} {s:.2f}x < {g}x" for k, (s, g) in low.items()))
    sys.exit(1)
EOF
}

for attempt in $(seq 1 "$ATTEMPTS"); do
  if measure_and_gate; then
    exit 0
  fi
  if [[ "$attempt" -lt "$ATTEMPTS" ]]; then
    echo "headline gate failed (attempt $attempt/$ATTEMPTS); re-measuring..." >&2
  fi
done
echo "headline kernel speedups stayed below the gate after $ATTEMPTS attempts" >&2
exit 1
