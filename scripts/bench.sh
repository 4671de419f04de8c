#!/usr/bin/env bash
# Runs the kernel, inference, /predict body-decode, handler and
# loopback-transport micro-benchmarks and stores the result in
# benchmarks/latest.txt for review / comparison against the committed
# baseline. The stored-vs-rematerialized encode stanza is additionally
# summarized (median ns/op, B/op, allocs/op and resident model bytes per backend)
# into benchmarks/BENCH_remat.json.
#
# Usage: scripts/bench.sh [extra `go test` args]
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-5}"
OUT=benchmarks/latest.txt
REMAT_JSON=benchmarks/BENCH_remat.json

go test -run '^$' \
  -bench 'BenchmarkXor$|BenchmarkHamming$|BenchmarkCountOnes$|BenchmarkMajority$|BenchmarkBundlerAdd$|BenchmarkBundlerVectorTo$' \
  -benchmem -count "$COUNT" ./internal/hv/ "$@" | tee "$OUT"
go test -run '^$' \
  -bench 'BenchmarkPredict$|BenchmarkPredictBatch$' \
  -benchmem -count "$COUNT" ./internal/hdc/ "$@" | tee -a "$OUT"
go test -run '^$' \
  -bench 'BenchmarkServingPredictUnsharded$|BenchmarkServingPredictSharded$|BenchmarkServingSearchUnsharded$|BenchmarkServingSearchSharded$|BenchmarkServingLearn$' \
  -benchmem -count "$COUNT" ./internal/hdc/ "$@" | tee -a "$OUT"
go test -run '^$' \
  -bench 'BenchmarkParallelAMSearch$|BenchmarkParallelMajority$' \
  -benchmem -count "$COUNT" . "$@" | tee -a "$OUT"
go test -run '^$' \
  -bench 'BenchmarkPredictHandler$|BenchmarkDecodeWindow$|BenchmarkPredictLoopback$' \
  -benchmem -count "$COUNT" ./cmd/pulphd/ "$@" | tee -a "$OUT"

# Stored-vs-remat encode comparison: appended to latest.txt so the
# regression gate covers it, and condensed into BENCH_remat.json.
REMAT_TMP=$(mktemp)
trap 'rm -f "$REMAT_TMP"' EXIT
go test -run '^$' \
  -bench 'BenchmarkEncodeStored$|BenchmarkEncodeRemat$|BenchmarkPredictRemat$' \
  -benchmem -count "$COUNT" ./internal/hdc/ "$@" | tee -a "$OUT" | tee "$REMAT_TMP" > /dev/null

awk -v count="$COUNT" '
/^cpu:/ { machine = $0; sub(/^cpu: */, "", machine) }
/^Benchmark/ && /ns\/op/ {
  name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
  if (!(name in seen)) { seen[name] = 1; order[++n] = name }
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "ns/op")          ns[name]  = ns[name]  " " $i
    else if ($(i+1) == "B/op")      bop[name] = bop[name] " " $i
    else if ($(i+1) == "allocs/op") al[name]  = al[name]  " " $i
    else if ($(i+1) == "modelB")    mb[name]  = mb[name]  " " $i
  }
}
END {
  printf "{\n  \"machine\": \"%s\",\n  \"count\": %d,\n  \"benchmarks\": [\n", machine, count
  for (k = 1; k <= n; k++) {
    name = order[k]
    printf "    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s",
      name, median(ns[name]), median(bop[name]), median(al[name])
    if (name in mb) printf ", \"model_bytes\": %s", median(mb[name])
    printf "}%s\n", (k < n) ? "," : ""
  }
  print "  ]\n}"
}
function median(list,   a, len, i, j, tmp, m) {
  len = split(substr(list, 2), a, " ")
  if (len == 0) return "0"
  for (i = 2; i <= len; i++) {
    tmp = a[i] + 0
    for (j = i - 1; j >= 1 && a[j] + 0 > tmp; j--) a[j+1] = a[j]
    a[j+1] = tmp
  }
  m = (len % 2) ? a[(len+1)/2] : (a[len/2] + a[len/2+1]) / 2
  return sprintf("%.2f", m)
}' "$REMAT_TMP" > "$REMAT_JSON"

echo "wrote $OUT"
echo "wrote $REMAT_JSON"
