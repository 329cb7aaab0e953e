#!/usr/bin/env bash
# Multi-process localhost testbed for the real-socket deployment mode.
#
# Plans an overlay with ddptestbed, launches one ddpnode process per peer
# on 127.0.0.1, waits for the run to finish, then folds the per-node JSONL
# traces into a detection-latency / cut-correctness report.
#
# Usage:
#   scripts/testbed.sh [peers] [attackers] [extra ddptestbed-plan args...]
#
# Examples:
#   scripts/testbed.sh                 # 100 peers, 3 attackers (default)
#   scripts/testbed.sh 300 5
#   scripts/testbed.sh 50 2 minute_seconds=0.25 duration_min=4
#
# Environment:
#   BUILD_DIR   build tree holding examples/ (default: repo root, in-tree)
#   OUT_DIR     run artefacts directory (default: results/testbed)
#   STRICT      1 = exit nonzero unless all attackers cut and no honest
#               peer cut (default 1)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root}"
out_dir="${OUT_DIR:-$repo_root/results/testbed}"
strict="${STRICT:-1}"

peers="${1:-100}"
attackers="${2:-3}"
shift $(( $# > 2 ? 2 : $# )) || true

ddpnode="$build_dir/examples/ddpnode"
ddptestbed="$build_dir/examples/ddptestbed"
for bin in "$ddpnode" "$ddptestbed"; do
  [[ -x "$bin" ]] || { echo "testbed.sh: missing $bin (build first)"; exit 2; }
done

mkdir -p "$out_dir"
rm -f "$out_dir"/node*.jsonl "$out_dir"/plan.txt

# A wedged node from an aborted run holds its listen port and silently
# shrinks the next overlay; clear survivors of THIS build's binary only.
pkill -f "$ddpnode" 2>/dev/null || true
sleep 0.2

# Default cadence: compressed minutes so a 6-protocol-minute run takes ~3 s
# of wall clock per minute_seconds=0.5. Callers can override via extra args.
"$ddptestbed" plan \
  "peers=$peers" "attackers=$attackers" \
  minute_seconds=0.5 duration_min=6 \
  warning=200 ct=5 q=20 attack_rate=600 attack_start=1 \
  collect_s=12 suppression_s=3 \
  "$@" out="$out_dir/plan.txt"

# Parse metadata back out of the plan (extra args may have changed it).
attack_start="$(sed -n 's/.* attack_start=\([0-9.]*\).*/\1/p' "$out_dir/plan.txt" | head -1)"
duration_min="$(sed -n 's/.* duration_min=\([0-9.]*\).*/\1/p' "$out_dir/plan.txt" | head -1)"
minute_seconds="$(sed -n 's/.* minute_seconds=\([0-9.]*\).*/\1/p' "$out_dir/plan.txt" | head -1)"

pids=()
cleanup() {
  [[ ${#pids[@]} -gt 0 ]] && kill "${pids[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT INT TERM

launched=0
while IFS= read -r line; do
  [[ "$line" == \#* || -z "$line" ]] && continue
  idx="${line#index=}"; idx="${idx%% *}"
  # shellcheck disable=SC2086  # the plan line IS the argument vector
  "$ddpnode" $line trace="$out_dir/node$idx.jsonl" &
  pids+=($!)
  launched=$((launched + 1))
done < "$out_dir/plan.txt"
echo "testbed: launched $launched ddpnode processes" \
     "(duration ${duration_min} protocol minutes @ ${minute_seconds}s/min)"

# Nodes stop themselves at duration_min; the watchdog is a backstop.
watchdog=$(awk "BEGIN{print int($duration_min * $minute_seconds + 30)}")
deadline=$(( $(date +%s) + watchdog ))
for pid in "${pids[@]}"; do
  while kill -0 "$pid" 2>/dev/null; do
    if (( $(date +%s) >= deadline )); then
      echo "testbed: watchdog expired, terminating stragglers"
      cleanup
      break 2
    fi
    sleep 0.2
  done
done
pids=()

echo "testbed: run complete, aggregating $out_dir"
"$ddptestbed" report dir="$out_dir" "attack_start=${attack_start:-1}" \
  csv="$out_dir/testbed_report.csv" "strict=$strict"
