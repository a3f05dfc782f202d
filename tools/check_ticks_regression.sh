#!/usr/bin/env bash
# E19 end-to-end throughput regression guard.
#
# Runs BM_EndToEndTicks at 100k sensors and BM_CalibrationKernel (a fixed
# workload that calls no sensrep code) in one kernel_throughput process, with
# their repetitions randomly interleaved, and divides the ticks-per-second
# median by the calibration steps-per-second median. Absolute ticks/sec do
# not transfer between machines, or even between two minutes on a shared
# one; the calibration kernel moves with the machine's speed and load, so the
# quotient isolates sensrep's own hot-loop cost. The guard fails if the
# quotient falls more than the tolerance below the committed baseline
# (bench/baselines/ticks_100k.txt).
#
# Usage: check_ticks_regression.sh [--bench PATH] [--baseline PATH]
#                                  [--out CSV] [--tolerance PCT]
set -euo pipefail

bench=build/bench/kernel_throughput
baseline=bench/baselines/ticks_100k.txt
out=ticks_100k.csv
tolerance=15

while [[ $# -gt 0 ]]; do
  case "$1" in
    --bench) bench=$2; shift 2 ;;
    --baseline) baseline=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --tolerance) tolerance=$2; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

[[ -x $bench ]] || { echo "benchmark binary not found: $bench" >&2; exit 2; }
[[ -r $baseline ]] || { echo "baseline file not found: $baseline" >&2; exit 2; }

baseline_ratio=$(sed -n 's/^baseline_calibrated=//p' "$baseline")
[[ -n $baseline_ratio ]] || { echo "no baseline_calibrated in $baseline" >&2; exit 2; }

"$bench" --benchmark_filter='^BM_EndToEndTicks/100000/|^BM_CalibrationKernel$' \
  --benchmark_min_time=0.01 --benchmark_repetitions=9 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=csv > "$out"

# google-benchmark CSV: name,iterations,real_time,cpu_time,time_unit,...,
# items_per_second,... — items_per_second (column 7) is executed events per
# second of sim.run() wall time (ticks/sec) for BM_EndToEndTicks, and
# calibration steps per second for BM_CalibrationKernel.
ticks=$(awk -F, '/BM_EndToEndTicks\/100000\/.*_median/ {gsub(/"/,""); print $7}' "$out")
calib=$(awk -F, '/BM_CalibrationKernel_median/ {gsub(/"/,""); print $7}' "$out")
[[ -n $ticks && -n $calib ]] || { echo "could not parse medians from $out" >&2; exit 2; }

awk -v t="$ticks" -v c="$calib" -v base="$baseline_ratio" -v tol="$tolerance" 'BEGIN {
  ratio = t / c
  floor = base * (1 - tol / 100)
  printf "100k sensors: %.0f ticks/s; calibration kernel: %.0f steps/s; calibrated %.4f\n", \
    t, c, ratio
  printf "committed baseline %.4f, tolerance %d%% => floor %.4f\n", base, tol, floor
  if (ratio < floor) {
    printf "FAIL: calibrated hot-loop throughput regressed more than %d%%\n", tol
    exit 1
  }
  print "OK: within tolerance"
}'
