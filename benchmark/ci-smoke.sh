#!/usr/bin/env bash
# Smoke test for the benchmark: build, run `--quick`, check that the report
# is valid JSON marked quick and that no operation failed. Takes well under
# a minute; meant to be wired into .github/workflows/ci.yml by a later PR.
# Run from the repo root or from benchmark/.
set -euo pipefail

cd "$(dirname "$0")/.."
report="benchmark/out/ci-smoke.json"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

mkdir -p benchmark/out
"$bin" --quick --out "$report" > /dev/null

python3 - "$report" <<'PY'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["tool"] == "cor-benchmark" and doc["quick"] is True, "not a quick report"
names = ["paper_matrix", "fleet_storm", "fault_service", "fault_service_hot", "degraded_wire"]
assert list(doc["workloads"]) == names, list(doc["workloads"])
for name, w in doc["workloads"].items():
    share = w["end_to_end"]["failed_share"]["value"]
    assert share == 0, f"{name}: failed_share {share}"
    assert w["failed"] == 0 and w["traced"]["failed"] == 0, name
    assert w["traced"]["image_mismatches"] == 0, name
print("benchmark smoke: ok,", sum(w["attempted"] for w in doc["workloads"].values()), "operations, 0 failed")
PY
