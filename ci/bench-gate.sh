#!/usr/bin/env bash
# Exact-metric regression gate: run the benchmark's quick pass at a base
# commit and at HEAD and compare what does not depend on the runner's
# speed. Fails when a `model_*` metric differs at all, when
# `allocs_per_fault` or `peak_heap_mb` is worse than the base by more than
# its BENCHMARK.json bound, or when an operation fails; a gated count
# that improves past its bound reads `better`. Host-time metrics
# (`setup_s`, `pass_ms`, `host_us_per_fault`) are printed, never gated: a
# shared runner has no noise floor to gate them on.
#
#   ci/bench-gate.sh [BASE]     BASE defaults to merge-base(HEAD, origin/main)
set -euo pipefail

cd "$(dirname "$0")/.."
base="${1:-$(git merge-base HEAD origin/main)}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The base is measured with the base's own benchmark sources; a change may
# not edit benchmark/, so both sides run the same harness.
mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"

quick() { # quick <checkout> <target-dir> <report>
    (
        cd "$1"
        CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
            --manifest-path benchmark/Cargo.toml
        "$2/release/benchmark" --quick --out "$3" > /dev/null
    )
}
quick "$work/base" "$work/target-base" "$work/base.json"
quick "$PWD" "${CARGO_TARGET_DIR:-$PWD/benchmark/target}" "$work/head.json"

python3 - BENCHMARK.json "$work/base.json" "$work/head.json" <<'PY'
import json, sys

manifest, base, head = (json.load(open(p)) for p in sys.argv[1:4])
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
gated = ("allocs_per_fault", "peak_heap_mb")
bad = []
print(f"{'workload':<18} {'metric':<18} {'base':>14} {'head':>14}  verdict")
for name, b in base["workloads"].items():
    h = head["workloads"][name]
    if h["failed"] or h["traced"]["failed"]:
        bad.append(f"{name}: operations failed")
    for metric, bv in b["end_to_end"].items():
        bv, hv = bv["value"], h["end_to_end"][metric]["value"]
        if metric.startswith("model_"):
            ok, rule = hv == bv, "exact"
        elif metric in gated:
            ok, rule = hv <= bv * (1 + bounds[metric]), f"<= +{bounds[metric]:.0%}"
        else:
            ok, rule = True, "report only"
        better = metric in gated and hv < bv * (1 - bounds[metric])
        verdict = "better" if better else "ok" if ok else "WORSE"
        print(f"{name:<18} {metric:<18} {bv:>14.6f} {hv:>14.6f}  {verdict} ({rule})")
        if not ok:
            bad.append(f"{name}.{metric}: {bv} -> {hv} ({rule})")
if bad:
    sys.exit("benchmark gate failed:\n  " + "\n  ".join(bad))
print("benchmark gate: ok")
PY
