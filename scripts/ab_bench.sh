#!/bin/bash
# Alternating A/B runs of the repo benchmark on two already-built
# binaries — the protocol a performance claim has to pass (at least ten
# pairs, who runs first swapped every pair, head must win nine tenths of
# them and the medians must differ by more than the spread of the
# parent's own runs).
#
# Usage: scripts/ab_bench.sh PARENT_BIN HEAD_BIN WORKLOAD|all [PAIRS=10] [extra benchmark flags…]
#
# `all` runs every workload BENCHMARK.json names, in its order, one
# table each — "no worse on the other four" is one command — and exits 1
# if any of them did.
#
# Each run is `BIN --workload WORKLOAD --seed 42 --trace 0 [extra…]` (an
# extra `--seed N` overrides the 42, `--quick` shrinks the run). Build
# the two binaries first, each from its own checkout into its own target
# directory, e.g.
#   CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline --manifest-path benchmark/Cargo.toml
# and pass the paths of the two `release/benchmark` files. Prints, per
# end-to-end metric of BENCHMARK.json, each side's median and quartiles,
# the pairs each side won, and whether the medians are further apart
# than the parent's inter-quartile distance; under that table, from the
# `detail` line of every run of both sides, whether each made the same
# partitions as the parent's first run (`partitions: identical (N runs ×
# M ops …)`, or the first run that differs by fingerprint or cost, its
# first differing op, how many ops differ and the exact cost per op of
# both runs). Each workload ends with one `--trace 1` run per side;
# every per-layer row whose unit is `count`, `bytes`, `MB` or `cost`
# (the deterministic figures: counters, wire bytes, residency, gains)
# and whose value differs between the two is printed, or
# `per-layer counters: identical`. Exits 1 only if a run failed or
# reported an incorrect op; the verdict itself is for reading.
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 PARENT_BIN HEAD_BIN WORKLOAD|all [PAIRS=10] [extra benchmark flags…]" >&2
  exit 2
fi
PARENT=$1
HEAD=$2
WORKLOAD=$3
shift 3
ROOT=$(cd "$(dirname "$0")/.." && pwd)
if [ "$WORKLOAD" = all ]; then
  status=0
  for workload in $(python3 -c 'import json, sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$ROOT/BENCHMARK.json"); do
    "$0" "$PARENT" "$HEAD" "$workload" "$@" || status=1
    echo
  done
  exit $status
fi
PAIRS=10
if [ $# -gt 0 ] && [[ $1 =~ ^[0-9]+$ ]]; then
  PAIRS=$1
  shift
fi
RUNS=$(mktemp)
TRACED=$(mktemp)
trap 'rm -f "$RUNS" "$TRACED"' EXIT

# One run: the benchmark's last stdout line is its result JSON, the
# `detail` line before it lists every op's fingerprint and cost.
run() {
  local side=$1 bin=$2 output
  shift 2
  # (errexit: a run that exits non-zero ends the script.)
  output=$("$bin" --workload "$WORKLOAD" --seed 42 --trace 0 "$@")
  tail -n 2 <<<"$output" | sed "s/^/$side /" >> "$RUNS"
}

for pair in $(seq 1 "$PAIRS"); do
  if ((pair % 2)); then
    run parent "$PARENT" "$@"
    run head "$HEAD" "$@"
  else
    run head "$HEAD" "$@"
    run parent "$PARENT" "$@"
  fi
  echo "pair $pair/$PAIRS done" >&2
done
# One traced run per side: its result line carries the per-layer rows.
for side in parent head; do
  if [ "$side" = parent ]; then bin=$PARENT; else bin=$HEAD; fi
  output=$("$bin" --workload "$WORKLOAD" --seed 42 --trace 1 "$@")
  tail -n 1 <<<"$output" | sed "s/^/$side /" >> "$TRACED"
done

python3 - "$RUNS" "$ROOT/BENCHMARK.json" "$WORKLOAD" "$TRACED" <<'EOF'
import json
import sys

runs_path, contract_path, workload, traced_path = sys.argv[1:5]
sides = {"parent": [], "head": []}
details = {"parent": [], "head": []}
for line in open(runs_path):
    side, result = line.split(" ", 1)
    if result.startswith("detail "):
        details[side].append(json.loads(result.split(" ", 1)[1]))
    else:
        sides[side].append(json.loads(result))
pairs = len(sides["parent"])
bad = [(s, i + 1) for s, runs in sides.items() for i, r in enumerate(runs) if not r["correct"]]


def quartiles(values):
    """q1, median, q3 by linear interpolation between order statistics."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


print(f"{workload}: {pairs} alternating pairs (parent first on odd pairs)")
header = ("metric", "better", "parent q1 / median / q3", "head q1 / median / q3",
          "head won", "parent won", "median shift", "> parent IQR")
rows = [header]
for metric in json.load(open(contract_path))["end_to_end"]:
    name, better = metric["name"], metric["better"]
    parent = [r["metrics"][name]["value"] for r in sides["parent"]]
    head = [r["metrics"][name]["value"] for r in sides["head"]]
    sign = -1.0 if better == "lower" else 1.0
    head_won = sum(sign * h > sign * p for p, h in zip(parent, head))
    parent_won = sum(sign * p > sign * h for p, h in zip(parent, head))
    (pq1, pmed, pq3), (hq1, hmed, hq3) = quartiles(parent), quartiles(head)
    shift = f"{(hmed - pmed) / pmed:+.1%}" if pmed else "n/a"
    rows.append((
        name, better,
        f"{pq1:.6g} / {pmed:.6g} / {pq3:.6g}",
        f"{hq1:.6g} / {hmed:.6g} / {hq3:.6g}",
        f"{head_won}/{pairs}", f"{parent_won}/{pairs}", shift,
        "yes" if abs(hmed - pmed) > pq3 - pq1 else "no",
    ))
widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
for r in rows:
    print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
print("a gain is claimed only where head won >= 9/10 of the pairs and the last column says yes")


def ops(detail):
    """What each op of a run produced: (fingerprint, cost) by op id."""
    return dict(zip(detail["op_ids"], zip(detail["fingerprints"], detail["costs"])))


# Every run of both sides against the parent's first: a difference
# between two runs of one binary (an order leak) shows as well as one
# between the binaries.
reference = ops(details["parent"][0])
runs = [(side, i + 1, ops(d)) for side in ("parent", "head") for i, d in enumerate(details[side])]
for side, run, got in runs:
    order = list(reference) + [op for op in got if op not in reference]
    differing = [op for op in order if reference.get(op) != got.get(op)]
    if differing:
        before, after = (sum(cost for _, cost in o.values()) / len(o) for o in (reference, got))
        print(f"partitions: {side} run {run} differs from parent run 1 at op {differing[0]} "
              f"({len(differing)} of {len(reference)} ops differ); "
              f"cost per op {before:.2f} -> {after:.2f} ({(after - before) / before:+.3%})")
        break
else:
    print(f"partitions: identical ({len(runs)} runs × {len(reference)} ops, fingerprints and costs)")

# The traced runs' exact rows, parent against head.
traced = {}
for line in open(traced_path):
    side, result = line.split(" ", 1)
    traced[side] = json.loads(result)["metrics"]
exact_units = ("count", "bytes", "MB", "cost")
rows = [(name, m["unit"], m["value"], traced["head"][name]["value"])
        for name, m in traced["parent"].items() if m["unit"] in exact_units]
differing = [row for row in rows if row[2] != row[3]]
for name, unit, before, after in differing:
    print(f"per-layer {name} ({unit}): parent {before:.6g}, head {after:.6g}")
if not differing:
    print(f"per-layer counters: identical ({len(rows)} rows in {', '.join(exact_units)})")
for side, pair in bad:
    print(f"INCORRECT: {side} run of pair {pair} reported failed ops")
sys.exit(1 if bad else 0)
EOF
