#!/usr/bin/env bash
# Execution-strategy equivalence check: campaign reports with the
# prefix-fork cache on vs off, and with block translation on vs off
# (--no-block-cache), must be identical once the engine-counter and
# wall-clock lines are stripped. The check is deterministic, so tier1.sh
# runs it as a gating step. Performance itself is measured by perfbench/.
#
# Exit codes: 0 ok, 1 reports diverge, 2 harness failure.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/swifi
if [[ ! -x "$BIN" ]]; then
  cargo build --release -p swifi-cli
fi
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
filter() { grep -v -e '^throughput:' -e '^icache:' -e '^prefix-fork:' -e '^blocks:' -e '^phases:'; }
# TARGET:INPUTS:SEED. C.team10 runs almost entirely inside translated
# blocks; SOR is multi-core, so many of its instructions run
# per-instruction at quantum tails. At seed 7 both JB programs have hang
# runs whose trigger PC sits inside the hot loop, so the trigger steps of
# translated blocks run millions of times. Together they cover every
# dispatch site of the cached executor.
for spec in JB.team11:4:2024 JB.team6:4:2024 C.team10:2:2024 SOR:4:2024 JB.team6:4:7 JB.team11:4:7; do
  IFS=: read -r t n seed <<< "$spec"
  "$BIN" campaign "$t" --inputs "$n" --seed "$seed" | filter > "$TMP/on.txt" || exit 2
  for flag in --no-prefix-fork --no-block-cache; do
    "$BIN" campaign "$t" --inputs "$n" --seed "$seed" "$flag" | filter > "$TMP/off.txt" || exit 2
    if ! diff -u "$TMP/on.txt" "$TMP/off.txt"; then
      echo "perf_smoke: $t (seed $seed) report differs between default and $flag" >&2
      exit 1
    fi
  done
done
echo "perf_smoke: prefix-fork and block-cache on/off reports identical - ok"
