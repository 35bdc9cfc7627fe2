#!/usr/bin/env sh
# Record BENCH_objective.json: the objective-evaluation layer's hot loops,
# one ns/op column per benchmark, from a single `go test -bench` pass over
# the ACO roulette micro-benchmarks (internal/aco: SearchCum, WeightedCum)
# and the root Objective*/MetricEq* benches.
#
# The historical "schedulers"/"acceptance" sections of an existing record
# (before/after vs the growth seed) are preserved, not re-measured.
#
# Usage: scripts/bench_objective.sh [output.json]
set -eu

out="${1:-BENCH_objective.json}"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

# No tee: a pipeline would mask a bench failure's exit status in POSIX sh.
go test ./internal/aco . -run '^$' -bench '^Benchmark(SearchCum|WeightedCum|Objective|MetricEq)' -benchtime=500ms > "$log"
cat "$log"

go run ./cmd/benchobj -log "$log" -base "$out" -out "$out" \
  -desc "Objective-evaluation layer hot loops, one ns/op per benchmark: the ACO roulette's binary upper-bound search (SearchCum) and 4x-unrolled single-accumulator weight row (WeightedCum) in internal/aco, plus the root Objective*/MetricEq* benches. Every loop is one plain function in the package that calls it; placements and Eq. 12/13 are pinned bit for bit by TestPlacementDigestsPinned. The schedulers section is the historical before/after record vs the growth seed (9b81cc4) and is carried forward, not re-measured."
