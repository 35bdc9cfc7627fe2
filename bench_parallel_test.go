// Scaling curves for the parallel mapping kernels. Every pool's width is
// GOMAXPROCS, so a curve is one benchmark run across the -cpu list:
// `go test . -run '^$' -bench 'ParallelFig5a|ParallelFig6b' -cpu 1,2,4,8 -benchtime=500ms`
// records the curves and `verify.sh bench-smoke` gates serial-vs-parallel
// regressions. Results are bit-identical at every width (see the
// worker-invariance suite); only wall clock may move.
package bioschedsim_test

import "testing"

// parallelAlgorithms is the set with parallel kernels on the
// mapping-decision hot path (ga is covered by its own package benches).
var parallelAlgorithms = []string{"aco", "hbo", "rbs"}

// BenchmarkParallelFig5a runs the homogeneous 20x2000 scheduling-time
// workload (Fig. 5a) at the -cpu widths.
func BenchmarkParallelFig5a(b *testing.B) {
	scenario := homScenario(b, 20, 2000)()
	for _, alg := range parallelAlgorithms {
		b.Run(alg, func(b *testing.B) { scheduleOnly(b, scenario, alg) })
	}
}

// BenchmarkParallelFig6b runs the heterogeneous 50x500 scheduling-time
// workload (Fig. 6b) at the -cpu widths.
func BenchmarkParallelFig6b(b *testing.B) {
	scenario := hetScenario(b, 50, 500)()
	for _, alg := range parallelAlgorithms {
		b.Run(alg, func(b *testing.B) { scheduleOnly(b, scenario, alg) })
	}
}

// BenchmarkParallelPaperScale is the paper-scale smoke point: 10k VMs x
// 100k cloudlets, homogeneous (the fleet the paper sizes its largest
// tables against). One mapping decision per iteration — run it with
// `go test . -run '^$' -bench ParallelPaperScale -cpu 1,8 -benchtime=1x`;
// rbs and hbo only, since ACO's O(ants*n*m) construction is not a
// single-smoke-point workload.
func BenchmarkParallelPaperScale(b *testing.B) {
	scenario := homScenario(b, 10000, 100000)()
	for _, alg := range []string{"hbo", "rbs"} {
		b.Run(alg, func(b *testing.B) { scheduleOnly(b, scenario, alg) })
	}
}
