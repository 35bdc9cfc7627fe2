package online

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bioschedsim/internal/cloud"
)

func TestRunEmptyBatchIsTyped(t *testing.T) {
	env, _ := hetEnv(t, 2, 4, 31)
	_, err := Run(env, NewRoundRobin(), nil, nil, cloud.TimeSharedFactory)
	if !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("want ErrEmptyBatch, got %v", err)
	}
}

func TestRunRejectsInvalidArrivalElements(t *testing.T) {
	env, cls := hetEnv(t, 2, 4, 31)
	cases := map[string][]float64{
		"negative": {0, 1, -0.5, 2},
		"nan":      {0, math.NaN(), 1, 2},
		"+inf":     {0, 1, math.Inf(1), 2},
		"-inf":     {0, 1, 2, math.Inf(-1)},
	}
	for name, arrivals := range cases {
		if _, err := Run(env, NewRoundRobin(), cls, arrivals, cloud.TimeSharedFactory); err == nil {
			t.Errorf("%s arrival accepted", name)
		} else if errors.Is(err, ErrEmptyBatch) {
			t.Errorf("%s arrival misreported as empty batch: %v", name, err)
		}
	}
}

func TestRunAcceptsUnsortedArrivals(t *testing.T) {
	const n = 40
	env, cls := hetEnv(t, 4, n, 11)
	// Reverse-ordered and interleaved arrivals: cloudlet i arrives at
	// (n-1-i)·0.1s, so the last list element arrives first.
	arrivals := make([]float64, n)
	for i := range arrivals {
		arrivals[i] = float64(n-1-i) * 0.1
	}
	res, err := Run(env, NewEarliestFinish(), cls, arrivals, cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finished) != n {
		t.Fatalf("finished %d of %d", len(res.Finished), n)
	}
	if res.MeanResponse <= 0 || res.MeanWait < 0 {
		t.Fatalf("degenerate result with unsorted arrivals: %+v", res)
	}
	// First list element arrives last, so it cannot have started before its
	// own arrival instant.
	if cls[0].StartTime < arrivals[0] {
		t.Fatalf("cloudlet 0 started at %v before its arrival %v", cls[0].StartTime, arrivals[0])
	}
}

func TestSessionPlacesBatchesIncrementally(t *testing.T) {
	env, cls := hetEnv(t, 4, 20, 7)
	s, err := NewSession(env, NewEarliestFinish(), cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	var finishedHook int
	s.OnFinish(func(*cloud.Cloudlet) { finishedHook++ })

	// First flush: 12 cloudlets.
	if err := s.PlaceBatch(cls[:12]); err != nil {
		t.Fatal(err)
	}
	first := s.Run()
	if len(first) != 12 {
		t.Fatalf("first flush finished %d, want 12", len(first))
	}
	t1 := s.Now()
	if t1 <= 0 {
		t.Fatalf("clock did not advance: %v", t1)
	}

	// Second flush reuses the same broker; the clock keeps moving forward.
	if err := s.PlaceBatch(cls[12:]); err != nil {
		t.Fatal(err)
	}
	second := s.Run()
	if len(second) != 8 {
		t.Fatalf("second flush finished %d, want 8", len(second))
	}
	if s.Now() < t1 {
		t.Fatalf("clock went backwards: %v after %v", s.Now(), t1)
	}
	// Each cloudlet is handed out once: a Run with nothing new returns none.
	if again := s.Run(); len(again) != 0 {
		t.Fatalf("a Run after the second flush returned %d cloudlets again, want 0", len(again))
	}
	if finishedHook != 20 {
		t.Fatalf("OnFinish fired %d times, want 20", finishedHook)
	}
	// Second-flush cloudlets were submitted at the advanced clock.
	for _, c := range second {
		if c.SubmitTime < t1 {
			t.Fatalf("cloudlet %d submitted at %v, before batch hand-off at %v", c.ID, c.SubmitTime, t1)
		}
	}
}

func TestSessionEmptyFlushIsTyped(t *testing.T) {
	env, _ := hetEnv(t, 2, 2, 3)
	s, err := NewSession(env, NewRoundRobin(), cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceBatch(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("want ErrEmptyBatch, got %v", err)
	}
	if got := s.Run(); len(got) != 0 {
		t.Fatalf("empty flush finished %d cloudlets", len(got))
	}
}

func TestSessionSubmitPlacedWithoutPolicy(t *testing.T) {
	env, cls := hetEnv(t, 3, 6, 5)
	s, err := NewSession(env, nil, cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(cls[0]); err == nil {
		t.Fatal("Place without a policy accepted")
	}
	for i, c := range cls {
		if err := s.SubmitPlaced(c, env.VMs[i%len(env.VMs)]); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Run()); got != 6 {
		t.Fatalf("finished %d, want 6", got)
	}
	if err := s.SubmitPlaced(nil, env.VMs[0]); err == nil {
		t.Fatal("nil cloudlet accepted")
	}
	if err := s.SubmitPlaced(cls[0], nil); err == nil {
		t.Fatal("nil VM accepted")
	}
}

func TestSessionFeedsBackCompletions(t *testing.T) {
	env, cls := hetEnv(t, 3, 9, 13)
	policy := NewACO(rand.New(rand.NewSource(1)))
	s, err := NewSession(env, policy, cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceBatch(cls); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(policy.tau) == 0 {
		t.Fatal("completion feedback never reached the policy's pheromone trail")
	}
}

func TestNewPolicyRegistryRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, rnd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
		if !IsPolicy(name) {
			t.Errorf("IsPolicy(%q) = false", name)
		}
	}
	if _, err := NewPolicy("no-such-policy", rnd); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if IsPolicy("aco") {
		t.Fatal("batch scheduler name misclassified as online policy")
	}
}

func TestSubsetSessionsPreserveIdentityAndIsolate(t *testing.T) {
	env, cls := hetEnv(t, 6, 24, 13)
	ranges, err := cloud.PartitionVMs(env.VMs, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSubsetSession(env, ranges[0], NewRoundRobin(), cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSubsetSession(env, ranges[1], NewRoundRobin(), cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	// Each subset session sees only its range, with the original VM objects
	// and IDs — nothing renumbered.
	if len(a.Environment().VMs) != 3 || len(b.Environment().VMs) != 3 {
		t.Fatalf("subset fleets %d/%d, want 3/3", len(a.Environment().VMs), len(b.Environment().VMs))
	}
	for i, vm := range b.Environment().VMs {
		if vm != env.VMs[3+i] {
			t.Fatalf("shard 1 VM %d is not fleet VM %d", i, 3+i)
		}
	}
	if err := a.PlaceBatch(cls[:12]); err != nil {
		t.Fatal(err)
	}
	if err := b.PlaceBatch(cls[12:]); err != nil {
		t.Fatal(err)
	}
	finA, finB := a.Run(), b.Run()
	if len(finA) != 12 || len(finB) != 12 {
		t.Fatalf("finished %d/%d, want 12/12", len(finA), len(finB))
	}
	seen := make(map[int]int)
	for _, c := range finA {
		if c.VM == nil || c.VM.ID > 2 {
			t.Fatalf("shard 0 cloudlet %d ran on VM outside its range: %v", c.ID, c.VM)
		}
		seen[c.ID]++
	}
	for _, c := range finB {
		if c.VM == nil || c.VM.ID < 3 {
			t.Fatalf("shard 1 cloudlet %d ran on VM outside its range: %v", c.ID, c.VM)
		}
		seen[c.ID]++
	}
	if len(seen) != 24 {
		t.Fatalf("union covers %d of 24 cloudlets", len(seen))
	}
	// Clocks are independent: each shard advanced its own simulated time.
	if a.Now() <= 0 || b.Now() <= 0 {
		t.Fatalf("shard clocks did not advance: %v / %v", a.Now(), b.Now())
	}
}

func TestSubsetSessionRejectsForeignVMs(t *testing.T) {
	env, _ := hetEnv(t, 4, 4, 5)
	other, _ := hetEnv(t, 2, 2, 6)
	if _, err := NewSubsetSession(env, other.VMs[:1], NewRoundRobin(), cloud.TimeSharedFactory); err == nil {
		t.Fatal("foreign VM subset accepted")
	}
	if _, err := NewSubsetSession(env, nil, NewRoundRobin(), cloud.TimeSharedFactory); err == nil {
		t.Fatal("empty subset accepted")
	}
}

// TestRunEmptyFleetIsAnError: Run over a fleet with no VMs is the
// session's empty-fleet error for every registered policy, never a panic
// inside Place, whose contract promises a non-empty fleet.
func TestRunEmptyFleetIsAnError(t *testing.T) {
	env, cls := hetEnv(t, 2, 4, 31)
	env.VMs = nil
	for _, name := range PolicyNames() {
		policy, err := NewPolicy(name, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(env, policy, cls, uniformArrivals(len(cls), 1), cloud.TimeSharedFactory)
		if err == nil || !strings.Contains(err.Error(), "session over empty fleet") {
			t.Errorf("%s: Run on an empty fleet returned %v, want the empty-fleet error", name, err)
		}
	}
}

// panicPlant places like its inner policy but panics on its k-th Place.
type panicPlant struct {
	Scheduler
	k, calls int
}

func (p *panicPlant) Place(c *cloud.Cloudlet, vms []*cloud.VM) (*cloud.VM, error) {
	if p.calls++; p.calls == p.k {
		panic("plant: k-th placement")
	}
	return p.Scheduler.Place(c, vms)
}

// TestPlaceBatchContainsPolicyPanic: a policy that panics mid-batch stops
// PlaceBatch with a *PlaceError naming the cloudlet and counting the ones
// placed before it. Those finish when the session runs, the rest were never
// submitted, and the session goes on placing later batches.
func TestPlaceBatchContainsPolicyPanic(t *testing.T) {
	const k = 4
	env, cls := hetEnv(t, 3, 10, 17)
	s, err := NewSession(env, &panicPlant{Scheduler: NewRoundRobin(), k: k}, cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	err = s.PlaceBatch(cls)
	var pe *PlaceError
	if !errors.As(err, &pe) || pe.Cloudlet != cls[k-1].ID || pe.Placed != k-1 {
		t.Fatalf("PlaceBatch returned %v, want a *PlaceError at cloudlet %d after %d placed", err, cls[k-1].ID, k-1)
	}
	if !strings.Contains(err.Error(), "plant: k-th placement") {
		t.Fatalf("error %q does not carry the panic", err)
	}
	if got := s.Run(); len(got) != k-1 {
		t.Fatalf("%d cloudlets finished after the panic, want the %d placed before it", len(got), k-1)
	}
	for _, c := range cls[k-1:] {
		if c.VM != nil {
			t.Fatalf("unplaced cloudlet %d reached VM %d", c.ID, c.VM.ID)
		}
	}
	if err := s.PlaceBatch(cls[k:]); err != nil {
		t.Fatalf("session unusable after a contained panic: %v", err)
	}
	if got := s.Run(); len(got) != len(cls)-k {
		t.Fatalf("next batch finished %d, want %d", len(got), len(cls)-k)
	}
}
