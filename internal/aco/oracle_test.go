package aco

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/schedtest"
	"bioschedsim/internal/xrand"
)

// oracleSchedule is the search with every table held in full: the dense
// layout keeps a per-cell base pheromone b, a per-(cloudlet, class) η^β
// table and a materialized execution matrix, and refreshes each touched
// cell's weight from them; the vector layout keeps one pheromone per VM.
// It runs serially and returns the best tour and the last iteration's
// tour. The scheduler keeps only the weight table and the cells deposits
// touched; it must pick the same VMs as this on every problem.
func oracleSchedule(cfg Config, ctx *sched.Context) (best, last []int) {
	n, m := len(ctx.Cloudlets), len(ctx.VMs)
	dense := int64(n)*int64(m) <= cfg.MaxMatrixCells
	classes := objective.ClassesOf(ctx.VMs)
	mode := objective.Materialized
	if !dense {
		mode = objective.Auto
	}
	mx := objective.NewMatrix(ctx.Cloudlets, ctx.VMs, objective.Options{Mode: mode, MaxCells: cfg.MaxMatrixCells, Classes: classes})
	k := mx.K()
	var etaCls []float64
	if mx.Cached() {
		etaCls = make([]float64, n*k)
		for i := 0; i < n; i++ {
			for cl := 0; cl < k; cl++ {
				etaCls[i*k+cl] = etaPow(mx.ExecByClass(i, cl), cfg.Beta)
			}
		}
	}
	eta := func(i, j int) float64 {
		if etaCls != nil {
			return etaCls[i*k+mx.Class(j)]
		}
		return etaPow(mx.Exec(i, j), cfg.Beta)
	}

	g := 1.0
	ba0 := objective.Pow(cfg.InitialTau, cfg.Alpha)
	var b, w, bVM, bVMAlpha []float64
	if dense {
		b, w = make([]float64, n*m), make([]float64, n*m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b[i*m+j] = cfg.InitialTau
				w[i*m+j] = ba0 * eta(i, j)
			}
		}
	} else {
		bVM, bVMAlpha = make([]float64, m), make([]float64, m)
		for j := range bVM {
			bVM[j], bVMAlpha[j] = cfg.InitialTau, ba0
		}
	}
	setWeight := func(i, j int) {
		w[i*m+j] = objective.Pow(b[i*m+j], cfg.Alpha) * eta(i, j)
	}

	pick := func(i int, tabu []bool, cum []float64, rnd *rand.Rand) int {
		var total float64
		if dense {
			total = maskedCum(w[i*m:(i+1)*m], tabu, cum)
		} else {
			for j := 0; j < m; j++ {
				if !tabu[j] {
					cum[j] = bVMAlpha[j] * eta(i, j)
				}
			}
			total = maskedCum(cum, tabu, cum)
		}
		if total <= 0 || math.IsInf(total, 1) || math.IsNaN(total) {
			for j := 0; j < m; j++ {
				if !tabu[j] {
					return j
				}
			}
			return 0
		}
		if j := searchCum(cum, rnd.Float64()*total); j < m {
			return j
		}
		for j := m - 1; j >= 0; j-- {
			if !tabu[j] {
				return j
			}
		}
		return 0
	}

	ants := min(cfg.Ants, n)
	chunks := make([][2]int, ants)
	for a := range chunks {
		chunks[a] = [2]int{a * n / ants, (a + 1) * n / ants}
	}
	tour := make([]int, n)
	lens := make([]float64, ants)
	tabu, cum, busy := make([]bool, m), make([]float64, m), make([]float64, m)
	e := objective.NewEvaluator(mx, false)
	deposit := func(lo, hi int, delta float64) {
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return
		}
		du := delta / g
		for i := lo; i < hi; i++ {
			if dense {
				b[i*m+tour[i]] += du
				setWeight(i, tour[i])
			} else {
				bVM[tour[i]] += du
			}
		}
	}

	bestLen := math.Inf(1)
	seed := ctx.Rand.Uint64()
	for it := 0; it < cfg.Iterations; it++ {
		for a := 0; a < ants; a++ {
			rnd := xrand.New(seed, uint64(it*ants+a))
			lo, hi := chunks[a][0], chunks[a][1]
			clear(tabu)
			free := m
			start := rnd.Intn(m)
			tabu[start] = true
			free--
			if free == 0 {
				var sum float64
				for i := lo; i < hi; i++ {
					tour[i] = start
					sum += mx.Exec(i, start)
				}
				lens[a] = sum
				continue
			}
			e.Reset()
			for i := lo; i < hi; i++ {
				j := pick(i, tabu, cum, rnd)
				tour[i] = j
				e.Assign(i, j)
				tabu[j] = true
				if free--; free == 0 {
					clear(tabu)
					free = m
				}
			}
			lens[a] = e.Makespan()
		}
		iterBest := 0
		for a := 1; a < ants; a++ {
			if lens[a] < lens[iterBest] {
				iterBest = a
			}
		}
		if combined := mx.MakespanOf(tour, busy); combined < bestLen {
			bestLen = combined
			best = append(best[:0], tour...)
		}
		if g *= 1 - cfg.Rho; g < renormThreshold {
			if dense {
				for i := 0; i < n; i++ {
					for j := 0; j < m; j++ {
						b[i*m+j] *= g
						setWeight(i, j)
					}
				}
			} else {
				for j := range bVM {
					bVM[j] *= g
				}
			}
			g = 1
		}
		for a := 0; a < ants; a++ {
			deposit(chunks[a][0], chunks[a][1], cfg.Q/lens[a])
		}
		deposit(chunks[iterBest][0], chunks[iterBest][1], cfg.Q/lens[iterBest])
		if !dense {
			for j := range bVM {
				bVMAlpha[j] = objective.Pow(bVM[j], cfg.Alpha)
			}
		}
	}
	return best, tour
}

// checkAgainstOracle schedules ctx under cfg with a cold scheduler and with
// the oracle, each from a fresh stream of seed, and fails on the first
// cloudlet whose VM differs. It compares the last iteration's tour as well
// as the best one: a search whose late iterations go wrong can still return
// an early best.
func checkAgainstOracle(t *testing.T, name string, cfg Config, ctx *sched.Context, seed int64) {
	t.Helper()
	cfg = New(cfg).Config()
	ctx.Rand = rand.New(rand.NewSource(seed))
	want, wantLast := oracleSchedule(cfg, ctx)
	ctx.Rand = rand.New(rand.NewSource(seed))
	got, err := New(cfg).Schedule(ctx)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, v := range want {
		if got[i].VM != ctx.VMs[v] {
			t.Fatalf("%s: cloudlet %d on VM %d, the oracle put it on VM %d", name, i, got[i].VM.ID, ctx.VMs[v].ID)
		}
	}
	ctx.Rand = rand.New(rand.NewSource(seed))
	r := newRun()
	r.reset(cfg, ctx, objective.ClassesOf(ctx.VMs))
	r.search()
	for i, v := range wantLast {
		if r.tour[i] != v {
			t.Fatalf("%s: last iteration put cloudlet %d on VM %d, the oracle on VM %d", name, i, r.tour[i], v)
		}
	}
}

// classFleet returns m VMs over k distinct (capacity, Bw) shapes: with
// k ≥ m every VM gets its own shape in an order rnd shuffles (K = m),
// otherwise rnd draws each VM's shape, so classes repeat (K ≤ k < m).
func classFleet(m, k int, rnd *rand.Rand) []*cloud.VM {
	shape := rnd.Perm(m)
	vms := make([]*cloud.VM, m)
	for j := range vms {
		c := shape[j]
		if k < m {
			c = rnd.Intn(k)
		}
		vms[j] = cloud.NewVM(j, float64(500+250*c), 1, 512, float64(200*(c%3)), 1000)
	}
	return vms
}

// randomCloudlets returns n cloudlets with lengths and file sizes from rnd.
func randomCloudlets(n int, rnd *rand.Rand) []*cloud.Cloudlet {
	cls := make([]*cloud.Cloudlet, n)
	for i := range cls {
		cls[i] = cloud.NewCloudlet(i, 1000+19000*rnd.Float64(), 1, 300*rnd.Float64(), 300)
	}
	return cls
}

// TestDenseLayoutMatchesOracle pins the scheduler to the full-table oracle
// on fleets with repeated classes (K < m) and with one class per VM
// (K = m), under Table II and under parameters far from it, including
// iteration counts past the pheromone renormalisation.
func TestDenseLayoutMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	cases := []struct {
		name    string
		m, k, n int
		cfg     Config
	}{
		{"tableII-K=m", 12, 12, 90, Config{Iterations: 6}},
		{"tableII-K<m", 24, 3, 120, Config{Ants: 10, Iterations: 8}},
		{"homogeneous-K=1", 16, 1, 64, Config{Ants: 8, Iterations: 5}},
		{"alpha-heavy", 10, 4, 70, Config{Ants: 7, Alpha: 2, Beta: 0.3, Rho: 0.2, Q: 5, InitialTau: 3, Iterations: 12}},
		{"renormalised-K<m", 20, 5, 60, Config{Ants: 6, Alpha: 0.7, Beta: 1.5, Rho: 0.99, Q: 40, InitialTau: 0.5, Iterations: 70}},
		{"renormalised-K=m", 9, 9, 40, Config{Ants: 5, Rho: 0.99, Iterations: 70}},
		{"more-iterations-than-VMs", 4, 2, 30, Config{Ants: 3, Alpha: 1, Iterations: 25}},
		{"single-VM", 1, 1, 20, Config{Ants: 4, Iterations: 3}},
		{"one-cloudlet", 50, 50, 1, Config{}},
		{"parallel", 64, 8, 200, Config{Ants: 16, Iterations: 4}},
	}
	for _, tc := range cases {
		ctx := &sched.Context{
			Cloudlets: randomCloudlets(tc.n, rnd),
			VMs:       classFleet(tc.m, tc.k, rnd),
		}
		if k := objective.ClassesOf(ctx.VMs).K; k > tc.k || (tc.k == tc.m) != (k == tc.m) {
			t.Fatalf("%s: fleet of %d VMs has %d classes", tc.name, tc.m, k)
		}
		checkAgainstOracle(t, tc.name, tc.cfg, ctx, int64(tc.m*tc.n))
	}
	checkAgainstOracle(t, "heterogeneous-fixture", Config{Ants: 12, Iterations: 5}, schedtest.Heterogeneous(t, 30, 300, 4), 4)
}

// TestRenormalisationMatchesOracle reaches the fold of the decay scalar g
// into the stored pheromone: at ρ = 0.99, g = 0.01^it drops below
// renormThreshold after 61 iterations, so 70 iterations fold once and then
// deposit on the rescaled store. Both layouts must still pick what the
// oracle picks.
func TestRenormalisationMatchesOracle(t *testing.T) {
	if g := math.Pow(1-0.99, 61); g >= renormThreshold {
		t.Fatalf("(1-0.99)^61 = %v does not reach the threshold %v", g, renormThreshold)
	}
	for _, layout := range []struct {
		name     string
		maxCells int64
	}{{"dense", 0}, {"vector", 1}} {
		cfg := Config{Ants: 8, Rho: 0.99, Iterations: 70, MaxMatrixCells: layout.maxCells}
		ctx := schedtest.Heterogeneous(t, 24, 96, 11)
		checkAgainstOracle(t, layout.name, cfg, ctx, 11)
	}
}

// FuzzDenseLayout draws a fleet (1–16 VMs over 1–16 shapes, so classes
// repeat or not), a batch of 1–48 cloudlets and every ACO parameter, up to
// 80 iterations at a decay that can pass the renormalisation, and requires
// the scheduler to pick what the full-table oracle picks in the layout the
// size selects.
func FuzzDenseLayout(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(12), uint8(40), uint8(6), uint8(5), uint16(10), uint16(990), uint16(400), uint16(100), uint16(1000), false)
	f.Add(uint64(7), uint8(16), uint8(3), uint8(48), uint8(4), uint8(70), uint16(700), uint16(1500), uint16(990), uint16(40), uint16(500), false)
	f.Add(uint64(9), uint8(8), uint8(2), uint8(30), uint8(3), uint8(66), uint16(10), uint16(990), uint16(995), uint16(100), uint16(1000), true)
	f.Fuzz(func(t *testing.T, seed uint64, m, k, n, ants, iters uint8, alpha, beta, rho, q, tau uint16, vector bool) {
		rnd := xrand.New(seed, 0)
		cfg := Config{
			Ants:       1 + int(ants)%8,
			Iterations: 1 + int(iters)%80,
			Alpha:      float64(alpha%3000) / 1000,
			Beta:       float64(beta%3000) / 1000,
			Rho:        float64(rho%1000) / 1000,
			Q:          float64(1+q%1000) / 10,
			InitialTau: float64(1+tau%2000) / 100,
		}
		if cfg.Alpha == 0 && cfg.Beta == 0 {
			cfg.Beta = 1 // zero-zero is New's "use Table II" sentinel
		}
		if cfg.Rho == 0 {
			cfg.Rho = 0.5 // zero is New's "use Table II" sentinel
		}
		if vector {
			cfg.MaxMatrixCells = 1
		}
		ctx := &sched.Context{
			Cloudlets: randomCloudlets(1+int(n)%48, rnd),
			VMs:       classFleet(1+int(m)%16, 1+int(k)%16, rnd),
		}
		checkAgainstOracle(t, fmt.Sprintf("%+v", cfg), cfg, ctx, int64(seed))
	})
}
