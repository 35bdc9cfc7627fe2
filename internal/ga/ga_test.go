package ga

import (
	"runtime"
	"testing"
	"testing/quick"

	"bioschedsim/internal/sched"
	"bioschedsim/internal/schedtest"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Population: 1, Generations: 1, MutationRate: .1, TournamentK: 1},
		{Population: 4, Generations: 0, MutationRate: .1, TournamentK: 1},
		{Population: 4, Generations: 1, MutationRate: 1.5, TournamentK: 1},
		{Population: 4, Generations: 1, MutationRate: .1, TournamentK: 9},
		{Population: 4, Generations: 1, MutationRate: .1, TournamentK: 2, Elite: 4},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestNewDefaults(t *testing.T) {
	s := New(Config{})
	cfg := s.Config()
	if cfg.Population != 40 || cfg.Generations != 60 || cfg.TournamentK != 3 {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestScheduleValidAndDeterministic(t *testing.T) {
	mk := func() []sched.Assignment {
		ctx := schedtest.Heterogeneous(t, 8, 50, 3)
		got, err := New(Config{Population: 10, Generations: 10}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ValidateAssignments(ctx, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].VM.ID != b[i].VM.ID {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestGABeatsRandomOnMakespan(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 10, 100, 7)
	gaAs, err := Default().Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := schedtest.Heterogeneous(t, 10, 100, 7)
	randAs, err := sched.NewRandom().Schedule(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if sched.EstimatedMakespan(gaAs) >= sched.EstimatedMakespan(randAs) {
		t.Fatalf("GA makespan %v not below random %v",
			sched.EstimatedMakespan(gaAs), sched.EstimatedMakespan(randAs))
	}
}

func TestMoreGenerationsNeverWorse(t *testing.T) {
	run := func(gens int) float64 {
		ctx := schedtest.Heterogeneous(t, 8, 60, 13)
		got, err := New(Config{Population: 12, Generations: gens, MutationRate: .02, TournamentK: 3, Elite: 2}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return sched.EstimatedMakespan(got)
	}
	short, long := run(1), run(40)
	if long > short*1.3 {
		t.Fatalf("40 generations (%v) much worse than 1 (%v)", long, short)
	}
}

func TestZeroEliteAllowed(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 5, 20, 1)
	got, err := New(Config{Population: 6, Generations: 5, MutationRate: .05, TournamentK: 2, Elite: 0}).Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateAssignments(ctx, got); err != nil {
		t.Fatal(err)
	}
}

func TestRequiresRand(t *testing.T) {
	ctx := schedtest.Heterogeneous(t, 4, 8, 1)
	ctx.Rand = nil
	if _, err := Default().Schedule(ctx); err == nil {
		t.Fatal("expected error without ctx.Rand")
	}
}

func TestRegistered(t *testing.T) {
	s, err := sched.New("ga")
	if err != nil || s.Name() != "ga" {
		t.Fatalf("registry: %v %v", s, err)
	}
}

func TestPropertyValid(t *testing.T) {
	f := func(seed int64, vmN, clN uint8) bool {
		ctx := schedtest.Heterogeneous(t, 1+int(vmN)%8, 1+int(clN)%40, seed)
		got, err := New(Config{Population: 6, Generations: 4}).Schedule(ctx)
		if err != nil {
			return false
		}
		return sched.ValidateAssignments(ctx, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerCountInvariant: the parallel fitness pool must never change the
// result — same seed, same schedule, at any GOMAXPROCS. The problem is sized
// above the evaluator's serial threshold so multi-worker runs really run
// concurrently.
func TestWorkerCountInvariant(t *testing.T) {
	mk := func(procs int) []sched.Assignment {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ctx := schedtest.Heterogeneous(t, 12, 300, 17)
		got, err := New(Config{Population: 120, Generations: 4}).Schedule(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ValidateAssignments(ctx, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	ref := mk(1)
	for _, procs := range []int{2, 8} {
		got := mk(procs)
		for i := range ref {
			if got[i].VM.ID != ref[i].VM.ID {
				t.Fatalf("GOMAXPROCS=%d diverged from serial at cloudlet %d", procs, i)
			}
		}
	}
}
