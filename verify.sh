#!/usr/bin/env sh
# Repo verification gate: build, vet, repo-specific static analysis
# (schedlint), full test suite with coverage floors on the objective and
# scheduling layers, the property-checking campaign (schedcheck) over every
# registered scheduler — including the worker-invariance suite (every
# scheduler re-run at GOMAXPROCS 1, 2 and P, plus heterogeneous campaigns
# at caps large enough to engage the ACO, GA, HBO and RBS pools), the
# shard-count invariance of the merged Eq. 12/13 metrics, and internal/plan's
# qmodel differential (capacity-planning engine vs analytic M/M/1 and M/M/c
# mean waits within documented bands, both seeded plants caught) — a
# full-module race pass plus
# explicit race gates for the parallel kernels (aco/hbo/rbs/ga/objective)
# and the daemon (internal/service at 2/4 shards, its serve loop, and the
# offline replay of served batches), and a short fuzz
# smoke over the untrusted-input boundaries (the daemon's JSON submit
# decoder, the CSV workload trace parser, the columnar binary trace
# reader/converter, schedlint's suppression-directive parser, the ACO
# roulette's binary search and unrolled masked prefix sum, ACO's dense
# layout against its full-table oracle, the power kernel
# behind ACO's weights against math.Pow, the capacity-plan
# spec parser, the unlocked histogram bucket core against the locked
# Histogram, the kernel's FireAt arrival delivery against arrivals
# registered up front by ScheduleAt, the kernel's event heap against a
# reference model, and the one-pass online
# EFT placement against its class-cache oracle).
#
# Any schedlint finding fails the gate; an audited //schedlint:ignore
# directive is the only suppression.
#
# Targets:
#   verify.sh              full gate (default)
#   verify.sh bench-smoke  scaling smoke: Fig 5a / Fig 6b benches at
#                          -cpu 1,2,4,8 (every pool is GOMAXPROCS wide),
#                          three repeats each, failing if even the best
#                          parallel width is >10% slower than -cpu 1 on the
#                          large configs, each width judged by its fastest
#                          repeat (micro-scale families are noise at smoke
#                          benchtimes; cmd/benchsmoke)
set -eux

bench_smoke() {
  # -benchtime=200ms keeps this a smoke, not a measurement; -count 3 lets
  # benchsmoke judge each width by its fastest repeat, so one stalled
  # sample cannot decide the verdict. For the curves themselves run the
  # same benches longer, e.g.
  #   go test . -run '^$' -bench 'ParallelFig5a|ParallelFig6b' -cpu 1,2,4,8 -benchtime=500ms
  #   go test . -run '^$' -bench ParallelPaperScale -cpu 1,8 -benchtime=1x
  go test . -run '^$' -bench 'ParallelFig5a|ParallelFig6b' -cpu 1,2,4,8 -benchtime=200ms -count 3 > bench-smoke.txt 2>&1 || { cat bench-smoke.txt; exit 1; }
  cat bench-smoke.txt
  go run ./cmd/benchsmoke -max-slowdown 1.10 < bench-smoke.txt
}

case "${1:-all}" in
bench-smoke)
  bench_smoke
  exit 0
  ;;
all) ;;
*)
  echo "usage: verify.sh [bench-smoke]" >&2
  exit 2
  ;;
esac

go build ./...
go vet ./...
# Every committed Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"
# schedlint reads the standard library's types from the same build-cache
# export data go vet has just built, so it stays after vet.
go run ./cmd/schedlint ./...

# Full suite with coverage. The run's own per-package summary feeds the
# floors below; coverage.out is uploaded as a CI artifact. (Redirect rather
# than tee: plain sh has no pipefail, and a pipe would mask test failures.)
go test -coverprofile=coverage.out ./... > coverage.txt 2>&1 || { cat coverage.txt; exit 1; }
cat coverage.txt

# Per-package coverage floors where the paper's equations live
# (internal/objective, internal/sched); every other package is report-only.
awk '
  $1 == "ok" {
    cov = -1
    for (i = 3; i <= NF; i++) if ($i ~ /^[0-9.]+%$/) cov = substr($i, 1, length($i) - 1) + 0
    if (cov < 0) next
    if ($2 == "bioschedsim/internal/objective" && cov < 90) { printf "coverage floor: %s at %.1f%% (< 90%%)\n", $2, cov; bad = 1 }
    if ($2 == "bioschedsim/internal/sched" && cov < 80) { printf "coverage floor: %s at %.1f%% (< 80%%)\n", $2, cov; bad = 1 }
  }
  END { exit bad }
' coverage.txt

# Property-checking campaign: every registered scheduler against randomized
# scenarios and the shared invariant suite (CI budget). The suite includes
# worker-invariance: every scheduler re-run at GOMAXPROCS in {1, 2, P} with
# bit-identical assignments required.
go run ./cmd/schedcheck -quick

# Worker invariance with real fan-out: the -quick caps (at most 16x96
# cloudlet-VM cells) sit below every kernel's serial threshold, so the
# re-runs above never start a pool. Heterogeneous scenarios up to 64 VMs x
# 200 cloudlets cross ACO's 2^12-cell threshold (a few hundred multi-worker
# dispatches, under a second).
go run ./cmd/schedcheck -classes heter -max-vms 64 -max-cloudlets 200 -n 2
# The GA, HBO and RBS pools start at 2^15 units of work: population x
# cloudlets for GA's batch evaluator (>= 863 cloudlets at 38-child batches),
# cloudlets for HBO and RBS. Generate draws sizes uniformly up to the caps,
# so each step pins -seed/-n to a draw past the threshold: seed 5 draws
# 13 VMs x 968 cloudlets, seed 8 draws 56 VMs x 34705 cloudlets.
go run ./cmd/schedcheck -schedulers ga -classes heter -max-vms 16 -max-cloudlets 1200 -seed 5 -n 1
go run ./cmd/schedcheck -schedulers hbo,rbs -classes heter -max-vms 64 -max-cloudlets 36000 -seed 8 -n 1

# Shard-count invariance, explicit: the merged Eq. 12/13 metrics must be
# bit-identical at 1/2/4 shards, the seeded plant must be caught, and burst
# arrivals must stay covered (the -quick campaign above also runs the
# invariant on every scenario, but a named gate fails loudly on its own).
go test -run 'TestShardInvariance' ./internal/check

# qmodel differential, explicit: the capacity-planning engine's simulated
# mean wait must agree with the analytic M/M/1 and M/M/c oracles at
# rho in {0.3, 0.6, 0.9} within the documented bands (10% below saturation,
# 15% at rho=0.9), every post-warmup completion must be recorded, and both
# seeded plants (biased arrival generator, sample-dropping recorder) must
# be caught by the same judgment with a runnable `cloudsched plan oracle`
# replay line. Alongside it: the fleet-shape invariance (c 1-PE VMs vs
# one c-PE VM, bit-identical on the recursion and on the DES oracle), the
# DES central queue's max-tree VM pick against the linear scan it
# replaced, the quantile-steered capacity search against the bisection it
# replaced (same MinFleet on every monotone spec, within twice bisection's
# probes), and the static queue recursion against the DES central queue
# (the same ordered wait/latency samples and event count, bit for bit, on
# the pinned probes, 300 random specs, shuffled offsets and ties), and
# every probe of a verdict, which draws its workload once, against a fresh
# Run at that probe's fleet (queue specs with multi-PE VMs, unsorted
# offsets, spread and elastic specs; mean wait and quantile bit for bit).
go test -run 'TestQModelDifferential|TestOracleCasesMatchDocumentedBands|TestQModelDifferentialCatchesBiasedArrivals|TestQModelDifferentialCatchesDroppedSamples|TestCentralQueueFleetShapeInvariant|TestCentralQueuePickMatchesScan|TestPlanSearchMatchesBisection|TestQueueRecursionMatchesDES|TestPlanProbesMatchRun' ./internal/plan

go test -race ./...
# Explicit race gate over the parallel mapping kernels: the invariance and
# stress tests drive multi-worker pools even on single-core CI hosts. ACO's
# (12 VMs x 400 cloudlets, 16 ants; 8 x 600, 12 ants) sit above its 2^12-cell
# threshold in the dense layout, so they fan out its per-ant deposits too.
go test -race -run 'WorkerCountInvariant|ConcurrentScheduleRace' ./internal/aco ./internal/hbo ./internal/rbs ./internal/ga ./internal/objective
# Explicit race gate over the sharded daemon: concurrent submitters across
# 4 shards, per-shard backpressure, and the HTTP round-trips under -race,
# plus each shard's serve loop: a lone cloudlet on an idle shard maps at
# once, requests queued while the shard maps form its next batch whole,
# and served batches replay offline bit-identically at 1 and 2 shards.
go test -race -run 'TestServiceSharded|TestHTTPSharded|TestServiceIdleShardFlushesAtOnce|TestServiceQueuedRequestsFormNextBatch|TestServiceServedBatchesReplayOffline' ./internal/service

go test -run='^$' -fuzz=FuzzDecodeSubmit -fuzztime=5s ./internal/service
go test -run='^$' -fuzz=FuzzReadTrace -fuzztime=5s ./internal/workload
# Columnar trace boundary: text→columnar→text round-trips bit-identically,
# and arbitrary bytes through the binary opener/reader never panic.
go test -run='^$' -fuzz=FuzzColumnarRoundTrip -fuzztime=5s ./internal/tracecol
go test -run='^$' -fuzz=FuzzReadColumnar -fuzztime=5s ./internal/tracecol
# Suppression-directive boundary: arbitrary comment text through schedlint's
# //schedlint:ignore parser never panics and never silently disables a rule.
go test -run='^$' -fuzz=FuzzSuppressDirective -fuzztime=5s ./internal/lint
# ACO roulette: the binary upper-bound search must agree with a linear scan
# on contract-valid prefix sums, and the unrolled masked prefix sum with its
# plain loop bit for bit on arbitrary float bit patterns and tabu masks
# (any-NaN matches any-NaN).
go test -run='^$' -fuzz=FuzzRoulette -fuzztime=5s ./internal/aco
# ACO dense layout: on fuzzed fleets (classes repeated or one per VM),
# batches and parameters, up to 80 iterations at decays that pass the
# pheromone renormalisation, the one-table search picks the same best and
# last tours as an oracle holding per-cell pheromone, the η^β table and the
# materialized Eq. 6 matrix.
go test -run='^$' -fuzz=FuzzDenseLayout -fuzztime=5s ./internal/aco
# Power kernel: objective.Pow, which every ACO weight goes through, must be
# math.Pow bit for bit on arbitrary (x, y) float pairs (any-NaN matches
# any-NaN).
go test -run='^$' -fuzz=FuzzPow -fuzztime=5s ./internal/objective
# Arrival delivery: on arbitrary scenarios a FireAt loop over the arrivals
# in (time, index) order fires the same (time, priority, index) sequence and
# leaves the same Now/Fired/Pending after every delivery as the same
# arrivals registered up front by ScheduleAt.
go test -run='^$' -fuzz=FuzzFireAt -fuzztime=5s ./internal/sim
# Indexed event heap: byte-chosen ScheduleAt, Reschedule (of queued, fired
# and cancelled events), Cancel, FireAt, Step and RunUntil steps fire the
# same sequence and leave the same Now/Fired/Pending as a flat-slice
# reference model with lazily cancelled entries.
go test -run='^$' -fuzz=FuzzReschedule -fuzztime=5s ./internal/sim
# Capacity-plan spec boundary: arbitrary JSON through plan.ParseSpec never
# panics, and every accepted spec validates, builds its arrival process,
# and survives a marshal→reparse round trip (NaN/Inf rates and bogus SLO
# targets must be rejected, never half-configured).
go test -run='^$' -fuzz=FuzzPlanSpec -fuzztime=5s ./internal/plan
# Histogram bucket core: on arbitrary float bit patterns (NaN dropped, ±Inf,
# exact bounds, values past the last bound), split across an optional
# merge, the unlocked core behind a plan recorder and the locked Histogram
# behind the daemon's series agree on counts, Count, Sum bits, Snapshot and
# Quantile bits, with each other and with a binary-search reference.
go test -run='^$' -fuzz=FuzzHistogramCore -fuzztime=5s ./internal/metrics
# Online EFT: on fuzzed fleets (mixed Bw including 0, repeated capacities,
# a single VM) with fuzzed residencies and cloudlets, exact ties included,
# the one-pass Place picks the same VM as the per-class oracle it replaced.
go test -run='^$' -fuzz=FuzzEFTPlace -fuzztime=5s ./internal/online

bench_smoke
