#!/usr/bin/env sh
# Regenerate tests/golden/sha256sums.txt from the current build.
#
# Run this ONLY when a change is *supposed* to shift simulation results
# (new physics, calibration change, output-format change) — and say so in
# the PR. A pure refactor must keep the existing manifest green in
# scripts/check.sh without regeneration.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

env -u DDP_FULL -u DDP_SEED ./build/bench/bench_fig5_capacity \
    --out-dir "$tmp" > /dev/null
env -u DDP_FULL -u DDP_SEED DDP_TRIALS=1 ./build/bench/bench_fig11_success \
    --out-dir "$tmp" > /dev/null
env -u DDP_FULL -u DDP_SEED DDP_TRIALS=1 ./build/bench/bench_attack_rate \
    --out-dir "$tmp" > /dev/null
env -u DDP_FULL -u DDP_SEED DDP_TRIALS=1 ./build/bench/bench_fig13_errors \
    --out-dir "$tmp" > /dev/null
./build/examples/ddpsim peers=300 agents=20 minutes=8 seed=7 \
    trace="$tmp/ddpsim_short.jsonl" csv="$tmp/ddpsim_short.csv" > /dev/null
# The control run on a corrupting channel, and its clean twin (corrupt=0).
for run in ddpsim_control:0.02 ddpsim_control_clean:0; do
  name="${run%%:*}"
  ./build/examples/ddpsim peers=300 agents=20 minutes=8 seed=7 radius=2 \
      event_driven=1 adaptive=1 cut_policy=quarantine repair=1 loss=0.1 \
      corrupt="${run#*:}" jitter=2 crash=0.002 cheat=collude \
      lists=fabricate checkpoint_every=4 csv="$tmp/$name.csv" \
      trace="$tmp/$name.jsonl" checkpoint="$tmp/$name.ckpt" > /dev/null
done

mkdir -p tests/golden
(cd "$tmp" && sha256sum fig5_capacity.csv fig11_success.csv \
    attack_rate.csv ddpsim_short.csv ddpsim_short.jsonl \
    ddpsim_control.csv ddpsim_control.jsonl ddpsim_control.ckpt \
    fig13_errors.csv ddpsim_control_clean.csv ddpsim_control_clean.jsonl \
    ddpsim_control_clean.ckpt) \
    > tests/golden/sha256sums.txt
echo "wrote tests/golden/sha256sums.txt:"
cat tests/golden/sha256sums.txt
