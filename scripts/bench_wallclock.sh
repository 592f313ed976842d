#!/usr/bin/env bash
# Wall-clock benchmark for the parallel evaluation engine: time the `sweep`
# grid at --jobs 1 and --jobs N, verify the CSVs are byte-identical, and
# write the measurements to results/BENCH_sweep.json.
#
#   ./scripts/bench_wallclock.sh            # N = machine parallelism
#   ./scripts/bench_wallclock.sh 4          # N = 4
#
# The committed results/BENCH_sweep.json is the reference measurement from
# the machine that authored the parallel engine; rerun this script to
# reproduce the speedup on yours.

set -euo pipefail
cd "$(dirname "$0")/.."

jobs_n="${1:-$(nproc 2>/dev/null || echo 4)}"
# 16 lengths × 4 stack counts × 8 systems = 512 grid cells, timed over
# several repetitions so the measurement rises above timer noise.
lengths=$(seq 2048 2048 32768 | paste -sd,)
stacks="1,2,4,8"
reps=3

echo "==> cargo build --release --bin sweep"
cargo build --offline --release -p transpim-bench --bin sweep >/dev/null

sweep=target/release/sweep
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Wall-clock seconds for $reps sweep runs, via bash's epoch with µs
# precision. The CSV of the last repetition lands in $2.
time_run() {
  local jobs="$1" out="$2"
  local t0 t1 i
  t0=$EPOCHREALTIME
  for ((i = 0; i < reps; i++)); do
    "$sweep" --lengths "$lengths" --stacks "$stacks" --jobs "$jobs" > "$out"
  done
  t1=$EPOCHREALTIME
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }'
}

echo "==> sweep --jobs 1   (lengths $lengths, stacks $stacks)"
serial_s=$(time_run 1 "$tmp/serial.csv")
echo "    ${serial_s}s"

echo "==> sweep --jobs $jobs_n"
parallel_s=$(time_run "$jobs_n" "$tmp/parallel.csv")
echo "    ${parallel_s}s"

if ! cmp -s "$tmp/serial.csv" "$tmp/parallel.csv"; then
  echo "FAIL: sweep output differs between --jobs 1 and --jobs $jobs_n" >&2
  exit 1
fi
echo "==> outputs byte-identical"

speedup=$(awk -v s="$serial_s" -v p="$parallel_s" 'BEGIN { printf "%.2f", s / p }')
host_cpus=$(nproc 2>/dev/null || echo 1)
mkdir -p results
cat > results/BENCH_sweep.json <<EOF
{
  "benchmark": "sweep --lengths $lengths --stacks $stacks (x$reps)",
  "host_cpus": $host_cpus,
  "jobs_serial": 1,
  "jobs_parallel": $jobs_n,
  "serial_s": $serial_s,
  "parallel_s": $parallel_s,
  "speedup": $speedup,
  "outputs_identical": true
}
EOF
echo "==> speedup ${speedup}x — written to results/BENCH_sweep.json"

# Decode compile and price wall clock, token and layer flows, at
# decode_len in {256, 1024, 4096, 100000}. The binary verifies the compiled
# programs price bitwise-identically to their unrolled expansions (up to
# 4096 tokens) and writes results/BENCH_decode.json itself.
echo "==> decode scaling (compile and price, token and layer flows)"
cargo build --offline --release -p transpim-bench --bin decode_scaling >/dev/null
target/release/decode_scaling
