#!/bin/bash
# Regenerates Table 1 and Figures 2-8 into results/.
# Usage: scripts/run_all_figures.sh [TRIALS] [EPOCHS]
# Stops at the first step that fails (a figure's stderr is in
# results/figureN.log).
set -euo pipefail
cd "$(dirname "$0")/.."
TRIALS=${1:-2}
EPOCHS=${2:-3}
cargo build --release -p dlb-bench
BIN=target/release/figures
mkdir -p results
for fig in 2 3 4 5 6; do
  echo "=== figure $fig start $(date +%T) ==="
  $BIN --fig $fig --trials "$TRIALS" --epochs "$EPOCHS" \
    > results/figure$fig.txt 2> results/figure$fig.log
  echo "=== figure $fig done $(date +%T) ==="
done
for fig in 7 8; do
  echo "=== figure $fig start $(date +%T) ==="
  $BIN --fig $fig --trials "$TRIALS" --epochs 2 --ranks 4 \
    > results/figure$fig.txt 2> results/figure$fig.log
  echo "=== figure $fig done $(date +%T) ==="
done
target/release/table1 --scale 0.01 > results/table1.txt 2>&1
echo ALL-FIGURES-DONE
