#!/usr/bin/env bash
# Gate on the ns/op ratio of two `go test -bench` variants:
#
#   scripts/bench-ratio.sh <numerator-pattern> <denominator-pattern> <min|max> <threshold> < bench.out
#
# Each side is the smallest ns/op among the benchmark lines matching its
# pattern (an awk regexp), so with -count N a single noisy sample cannot flip
# the ratio. Fails when numerator/denominator is below (min) or above (max)
# the threshold, or when either side is missing from the output.
set -euo pipefail

if [ $# -ne 4 ] || { [ "$3" != min ] && [ "$3" != max ]; }; then
  echo "usage: $0 <numerator-pattern> <denominator-pattern> <min|max> <threshold> < bench.out" >&2
  exit 2
fi

awk -v num="$1" -v den="$2" -v mode="$3" -v thr="$4" '
  $4 == "ns/op" && $0 ~ num { if (n == 0 || $3 + 0 < n) n = $3 + 0 }
  $4 == "ns/op" && $0 ~ den { if (d == 0 || $3 + 0 < d) d = $3 + 0 }
  END {
    if (n == 0 || d == 0) { print "FAIL: benchmark output missing for " num " or " den; exit 1 }
    ratio = n / d
    printf "%s / %s ns-per-op ratio: %.3f (want %s %s)\n", num, den, ratio, (mode == "min" ? ">=" : "<="), thr
    if (mode == "min" ? ratio < thr + 0 : ratio > thr + 0) { print "FAIL: ratio outside its gate"; exit 1 }
  }'
