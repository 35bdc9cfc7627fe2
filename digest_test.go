package bioschedsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/online"
	"bioschedsim/internal/plan"
	"bioschedsim/internal/sched"
	"bioschedsim/internal/sim"
	"bioschedsim/internal/workload"
)

// pinnedDigests holds, per scenario and scheduler, the SHA-256 of the
// placement vector followed by the float64 bits of Eq. 12 and Eq. 13. The
// values were recorded with the earlier, dispatched implementation of the
// hot loops, so a match shows that moving them kept every bit; any later
// change to a loop's arithmetic or iteration order that shifts a single
// placement or metric bit breaks it.
var pinnedDigests = map[string]string{
	"fig5a/aco":          "622a8a7fa4d300e2ffbbc04700b0f2a854ca944d82cd45f56f0ea97a56902a43",
	"fig5a/base":         "9ff39eca3cd251f467f75e8f918d5e7de464272eb039b29a89a5fcd12705a0c7",
	"fig5a/costpriority": "3f33ae2f83489cd7f93c8197f2f8764071bc67f5c299071b8fdf06b7a9b670d2",
	"fig5a/deadline":     "9ff39eca3cd251f467f75e8f918d5e7de464272eb039b29a89a5fcd12705a0c7",
	"fig5a/ga":           "079e0cc56b9a8d5c97233bf7edcdb491b5f18934c40f078ca4e32db427b173f1",
	"fig5a/greedy":       "9ff39eca3cd251f467f75e8f918d5e7de464272eb039b29a89a5fcd12705a0c7",
	"fig5a/hbo":          "027b5d944da9c732df5aec660573a0cae58d11079926633ed8827f8733abb089",
	"fig5a/hybrid":       "7f390a33ef8286eb2c1b45a0ba97127712221e10647b0f00f66d23160c7947ec",
	"fig5a/maxmin":       "9ff39eca3cd251f467f75e8f918d5e7de464272eb039b29a89a5fcd12705a0c7",
	"fig5a/minmin":       "9ff39eca3cd251f467f75e8f918d5e7de464272eb039b29a89a5fcd12705a0c7",
	"fig5a/pso":          "c9c07a4d472f570cf26f2be5d696f7ce00f6cf49eb2485cc64eb44c2ed5bea74",
	"fig5a/random":       "7e6acc552833faf0ed5d5a10c42829d1ad7422c44931f2f0a23bdcbad7ee6915",
	"fig5a/rbs":          "7f390a33ef8286eb2c1b45a0ba97127712221e10647b0f00f66d23160c7947ec",
	"fig5a/sufferage":    "9ff39eca3cd251f467f75e8f918d5e7de464272eb039b29a89a5fcd12705a0c7",
	"fig6b/aco":          "a9cbe4d44a4d3a59a47a1a89bdbc916a99c1e885163cefe7171716e6c8a04b94",
	"fig6b/base":         "e78e2f2ea185b11b75496fac36251c38ca022dfe3fa810590b327597eec4337c",
	"fig6b/costpriority": "31c43175dd480560d8faf8764d5c4d0728f0f213260e9e563bd8941e2ccec2cc",
	"fig6b/deadline":     "526a0fb5f96490aaa098eb5874e0659f3d6050a85b4de23a0e72a10c566f7f12",
	"fig6b/ga":           "7927060096c66a226401adc1f620205fa8806168baa307f40fee32d804701d55",
	"fig6b/greedy":       "0ac6e71f5c890989ebf7c5e3eaf05e1c861ac57c5e29187860bdb124191e3501",
	"fig6b/hbo":          "aa64c37a1a29268e2c34e3a4c7d6eff1599c534fabd5bef4e49e5f46761b2372",
	"fig6b/hybrid":       "a9cbe4d44a4d3a59a47a1a89bdbc916a99c1e885163cefe7171716e6c8a04b94",
	"fig6b/maxmin":       "526a0fb5f96490aaa098eb5874e0659f3d6050a85b4de23a0e72a10c566f7f12",
	"fig6b/minmin":       "fdd9a44f83e5dbcd53dc96dfb07998d3d76d59e4682027b65da4c345fe2eac25",
	"fig6b/pso":          "1245c663cf2efd49a46fcacc1210ed44e45a9cfcd685cac8e2635971015e1590",
	"fig6b/random":       "b2ae969a00988b25a6f3374db401af43cacec2cbbaf7407e9c0372eed7841d6e",
	"fig6b/rbs":          "fe42b504c995970b8e2a218bb35cdf96ba523365725108433e49a406838e9e48",
	"fig6b/sufferage":    "dd4650d336e90df4f2b0a9bc41c2a1e510dfd4bbe60c99b294ed04b7a293b09e",
}

// placementDigest schedules, validates and executes one scenario with the
// named scheduler and hashes what it produced: for each cloudlet in context
// order the index of its VM, then math.Float64bits of Eq. 12 and Eq. 13.
func placementDigest(t *testing.T, name string, s *workload.Scenario) string {
	t.Helper()
	scheduler, err := sched.New(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.Context()
	as, err := scheduler.Schedule(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.ValidateAssignments(ctx, as); err != nil {
		t.Fatal(err)
	}
	vmIdx := make(map[*cloud.VM]uint32, len(ctx.VMs))
	for j, vm := range ctx.VMs {
		vmIdx[vm] = uint32(j)
	}
	onVM := make(map[*cloud.Cloudlet]uint32, len(as))
	for _, a := range as {
		onVM[a.Cloudlet] = vmIdx[a.VM]
	}
	cls, vms := sched.Split(as)
	res, err := cloud.Execute(s.Env, cloud.TimeSharedFactory, cls, vms)
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	var buf [8]byte
	for _, c := range ctx.Cloudlets {
		binary.LittleEndian.PutUint32(buf[:4], onVM[c])
		h.Write(buf[:4])
	}
	for _, v := range []float64{
		float64(metrics.SimulationTime(res.Finished)),
		metrics.TimeImbalance(res.Finished),
	} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlacementDigestsPinned runs the paper's Fig. 5a (20 VMs x 2000
// homogeneous cloudlets) and Fig. 6b (50 VMs x 500 heterogeneous cloudlets)
// scenarios with every registered scheduler and compares each placement and
// Eq. 12/13 digest with its pinned value, bit for bit.
func TestPlacementDigestsPinned(t *testing.T) {
	scenarios := []struct {
		name  string
		build func() (*workload.Scenario, error)
	}{
		{"fig5a", func() (*workload.Scenario, error) { return workload.Homogeneous(20, 2000, 42) }},
		{"fig6b", func() (*workload.Scenario, error) { return workload.Heterogeneous(50, 500, 4, 42) }},
	}
	for _, sc := range scenarios {
		for _, name := range sched.Names() {
			key := sc.name + "/" + name
			t.Run(key, func(t *testing.T) {
				s, err := sc.build()
				if err != nil {
					t.Fatal(err)
				}
				got := placementDigest(t, name, s)
				want, ok := pinnedDigests[key]
				if !ok {
					t.Fatalf("no pinned digest for %s; got %s", key, got)
				}
				if got != want {
					t.Errorf("placement or Eq. 12/13 moved: digest %s, pinned %s", got, want)
				}
			})
		}
	}
}

// pinnedOnlineDigests holds, per arrival set and online policy, the SHA-256
// of each cloudlet's VM ID, start and finish time bits (input order), then
// the float64 bits of Eq. 12, Eq. 13 and cost, then the engine's fired
// event count. The values were recorded with the earlier kernel that queued
// one event per arrival up front, so a match shows that the arrival path of
// online.Run kept every bit and every event.
var pinnedOnlineDigests = map[string]string{
	"mmpp20k/online-2choice":       "2c27bd7e01123e5193980bf1777f32c50cfb4bfc24fac69762b5568c27b94440",
	"mmpp20k/online-aco":           "1dfcd25d530bcbfbf1fdd79d51da822972df8fe9604c43a2789db4f656e29109",
	"mmpp20k/online-eft":           "45b0a084a432860cd972c1efae9b6c0196056faf53e4c6773edadb8a76e50fa1",
	"mmpp20k/online-hbo":           "52ef69a3a5427afd26884a2de8da44d388c74e61cd36f028fbb3a99009d0ca8d",
	"mmpp20k/online-least":         "77f8f1d32829e8d9ff0e28561911e2dfab16bb43956361c4b59881ff714fdda6",
	"mmpp20k/online-rbs":           "18f1f0658a9b6cf9a3ccbe66586808cde921d88e6d3813a43f2d1d140aba57e0",
	"mmpp20k/online-rr":            "173cb2187dda3b39cef5b5b8ba3da357db9938639fb26d5d7638b59a6b7fce2d",
	"reversed-ties/online-2choice": "b7fd04d8140892fbca6150b583a81c5334afd4977aebf58594e936e50ca37f53",
	"reversed-ties/online-aco":     "1293f5b21bc99b2fc4f02b79f128972896a21fedff5e707815505f9ca482fe63",
	"reversed-ties/online-eft":     "549dde93615f60f558947c9870bce4c4ca32ed185dbceba2f33f66b054a93612",
	"reversed-ties/online-hbo":     "b6e5d985b0bc2e207757511edacba87d9effffab3e94dc7feb3209c8da48a304",
	"reversed-ties/online-least":   "ff1648872eca470bfc52cd59b4b845b1da1c03a9f812bb23e0aa1d6e77ea5c29",
	"reversed-ties/online-rbs":     "3c6167d356218e6ea3b65e2d8a485d0f5e330c0329266623eef584b67ec7d812",
	"reversed-ties/online-rr":      "f89c67c4a4ac96a48e42a28df71c7b5df184b23790fe090c1b389ade2e927619",
}

// pinnedPlanDigests holds the SHA-256 of one plan.Run probe: every recorded
// (wait, latency) pair in completion order, then the fired event count and
// the peak fleet. Recorded with the same earlier kernel.
var pinnedPlanDigests = map[string]string{
	"perfbench-queue": "54d16fdcccc39cab8331b102042ad9b21d69729b5745790b60fba0c01742e4c4",
	"elastic-spread":  "102fabdeec49e777d1317a901744f5590e10e031a51bb0ee1b5a0b6552b7d1d5",
	"saturated-3pe":   "f1c19aa7e70f09c068ea3770a1c39c78441ce19ced0cd36d20a6c454c45d018c",
}

// onlineArrivalSets builds each arrival set afresh: online.Run consumes
// its cloudlets, so every policy gets its own copy.
var onlineArrivalSets = []struct {
	name  string
	build func(t *testing.T) (*cloud.Environment, []*cloud.Cloudlet, []float64)
}{
	// mmpp20k is `cloudsched replay`'s shape at 1/50 scale: gentrace's
	// default MMPP arrivals on 50 heterogeneous VMs over 4 datacenters.
	{"mmpp20k", func(t *testing.T) (*cloud.Environment, []*cloud.Cloudlet, []float64) {
		const seed = 7
		proc, err := workload.NewMMPP(2, 16, 60, 10)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := workload.SyntheticTraceFrom(workload.HeterogeneousCloudletSpec(), 20_000, proc, seed)
		if err != nil {
			t.Fatal(err)
		}
		cls, arrivals := workload.Split(entries)
		fleet := workload.GenerateVMs(workload.HeterogeneousVMSpec(), 50, seed)
		env, err := workload.GenerateEnvironment(workload.HeterogeneousDatacenterSpec(4), fleet, seed)
		if err != nil {
			t.Fatal(err)
		}
		return env, cls, arrivals
	}},
	// reversed-ties lists arrivals latest first, four cloudlets to each
	// instant, so placement order rests on the stable tie-break alone.
	{"reversed-ties", func(t *testing.T) (*cloud.Environment, []*cloud.Cloudlet, []float64) {
		s, err := workload.Heterogeneous(20, 2000, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		arrivals := make([]float64, len(s.Cloudlets))
		for i := range arrivals {
			arrivals[i] = float64((len(arrivals)-1-i)/4) * 0.05
		}
		return s.Env, s.Cloudlets, arrivals
	}},
}

// onlineDigest replays one arrival set with the named online policy and
// hashes what it produced.
func onlineDigest(t *testing.T, policy string, env *cloud.Environment, cls []*cloud.Cloudlet, arrivals []float64) string {
	t.Helper()
	p, err := online.NewPolicy(policy, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := online.Run(env, p, cls, arrivals, cloud.TimeSharedFactory)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, c := range cls {
		binary.LittleEndian.PutUint32(buf[:4], uint32(c.VM.ID))
		h.Write(buf[:4])
		for _, v := range []float64{float64(c.StartTime), float64(c.FinishTime)} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, v := range []float64{float64(res.SimTime), res.Imbalance, res.Cost} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], res.EngineEvents)
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestOnlineDigestsPinned replays both arrival sets with every registered
// online policy and compares each digest with its pinned value.
func TestOnlineDigestsPinned(t *testing.T) {
	for _, set := range onlineArrivalSets {
		for _, policy := range online.PolicyNames() {
			key := set.name + "/" + policy
			t.Run(key, func(t *testing.T) {
				env, cls, arrivals := set.build(t)
				checkPinned(t, pinnedOnlineDigests, key, onlineDigest(t, policy, env, cls, arrivals))
			})
		}
	}
}

// hashingRecorder is a plan.LatencyStats that also hashes every sample in
// the order it was observed.
type hashingRecorder struct {
	*plan.LatencyStats
	h hash.Hash
}

func (r *hashingRecorder) Observe(wait, latency float64) {
	r.LatencyStats.Observe(wait, latency)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(wait))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(latency))
	r.h.Write(buf[:])
}

// planProbes are plan.Run probes at a fixed fleet size. The queue probe
// is `cloudsched plan`'s perfbench spec (MMPP 200/800 per second, central
// queue); the elastic probe takes the spread branch, whose arrivals
// interleave with autoscaler ticks and VM boots.
var planProbes = []struct {
	name  string
	spec  string
	fleet int
}{
	{"perfbench-queue", `{
  "name": "perfbench-plan-verdict",
  "workload": {"process": "mmpp", "rate_a": 200, "rate_b": 800, "sojourn_a": 6, "sojourn_b": 1,
               "cloudlets": 25000, "warmup": 500, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 1, "min_vms": 1, "max_vms": 2048, "dispatch": "queue"},
  "slo": {"quantile": 0.99, "target_seconds": 6},
  "seed": 1
}`, 320},
	{"elastic-spread", `{
  "name": "elastic-spread",
  "workload": {"process": "poisson", "rate": 6, "cloudlets": 4000, "warmup": 400, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 1, "min_vms": 1, "max_vms": 16},
  "slo": {"quantile": 0.95, "target_seconds": 60},
  "elastic": {"scale_up_load": 3, "scale_down_load": 0.5, "interval": 5, "boot_delay": 2},
  "seed": 3
}`, 1},
	// saturated-3pe works the central queue when it is full: 3-PE VMs, a
	// fleet that is no power of two, and MMPP bursts above the fleet's
	// 111 PEs (mean load ~0.96), so the FIFO is often non-empty and most
	// cloudlets wait for a server to free. Its digest was recorded on the
	// DES central queue and holds unchanged under the recursion.
	{"saturated-3pe", `{
  "name": "saturated-3pe",
  "workload": {"process": "mmpp", "rate_a": 90, "rate_b": 140, "sojourn_a": 4, "sojourn_b": 2,
               "cloudlets": 20000, "warmup": 200, "mean_length_mi": 1000},
  "fleet": {"vm_mips": 1000, "vm_pes": 3, "min_vms": 1, "max_vms": 64, "dispatch": "queue"},
  "slo": {"quantile": 0.99, "target_seconds": 6},
  "seed": 5
}`, 37},
}

// TestPlanDigestsPinned runs each plan probe and compares its digest with
// the pinned value.
func TestPlanDigestsPinned(t *testing.T) {
	for _, p := range planProbes {
		t.Run(p.name, func(t *testing.T) {
			spec, err := plan.ParseSpec([]byte(p.spec))
			if err != nil {
				t.Fatal(err)
			}
			rec := &hashingRecorder{LatencyStats: plan.NewLatencyStats(), h: sha256.New()}
			res, err := plan.Run(spec, p.fleet, &plan.RunOptions{Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], res.EngineEvents)
			rec.h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], uint64(res.PeakFleet))
			rec.h.Write(buf[:])
			checkPinned(t, pinnedPlanDigests, p.name, hex.EncodeToString(rec.h.Sum(nil)))
		})
	}
}

// pinnedSpaceSharedDigest is the SHA-256 of spaceSharedDigest's run:
// each cloudlet's ID, final VM ID, start and finish time bits (ID order),
// then the fired event count. Recorded with the earlier SpaceShared that
// allocated a run record, a closure and an event per dispatched cloudlet.
const pinnedSpaceSharedDigest = "77aa75cf2430e5a6b3a6acb04867be9e74e186259f9e034b2e294f3e2fb7d3de"

// spaceSharedDigest runs 600 cloudlets of 1-5 PEs on eight space-shared
// VMs of 2-4 PEs (so wide cloudlets are clamped to the VM), staggered over
// the first 6 s and overloading the fleet, then fails two VMs mid-run:
// their running cloudlets are drained with progress kept and resume,
// with the queued ones, on the healthy VMs.
func spaceSharedDigest(t *testing.T) string {
	t.Helper()
	pes := []int{2, 3, 4}
	mips := []float64{500, 750, 1000}
	env := &cloud.Environment{}
	hosts := make([]*cloud.Host, 8)
	for i := range hosts {
		hosts[i] = cloud.NewHost(i, cloud.NewPEs(4, 1000), 1<<16, 1<<20, 1<<30)
		vm := cloud.NewVM(i, mips[i%3], pes[i%3], 512, 500, 5000)
		if err := hosts[i].Place(vm); err != nil {
			t.Fatal(err)
		}
		env.VMs = append(env.VMs, vm)
	}
	env.Datacenters = []*cloud.Datacenter{cloud.NewDatacenter(0, "space", cloud.Characteristics{}, hosts)}

	r := rand.New(rand.NewSource(17))
	cls := make([]*cloud.Cloudlet, 600)
	vms := make([]*cloud.VM, len(cls))
	arrivals := make([]float64, len(cls))
	for i := range cls {
		cls[i] = cloud.NewCloudlet(i, 500+r.Float64()*5000, 1+r.Intn(5), 0, 0)
		vms[i] = env.VMs[r.Intn(len(env.VMs))]
		arrivals[i] = float64(i/4) * 0.04
	}

	eng := sim.NewEngine()
	broker := cloud.NewBroker(eng, env, cloud.SpaceSharedFactory)
	if err := broker.SubmitAllSchedule(cls, vms, arrivals); err != nil {
		t.Fatal(err)
	}
	if err := broker.FailVM(env.VMs[2], 8, cloud.LeastLoadedFailover); err != nil {
		t.Fatal(err)
	}
	if err := broker.FailVM(env.VMs[5], 20.5, cloud.FastestFailover); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got := len(broker.Finished()); got != len(cls) || len(broker.Lost()) != 0 || broker.Migrations() == 0 {
		t.Fatalf("finished %d of %d, lost %d, migrated %d", got, len(cls), len(broker.Lost()), broker.Migrations())
	}

	h := sha256.New()
	var buf [8]byte
	for _, c := range cls {
		binary.LittleEndian.PutUint32(buf[:4], uint32(c.ID))
		binary.LittleEndian.PutUint32(buf[4:], uint32(c.VM.ID))
		h.Write(buf[:])
		for _, v := range []float64{float64(c.StartTime), float64(c.FinishTime)} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[:], eng.Fired())
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestSpaceSharedDigestPinned compares the space-shared failover run's
// digest with its pinned value.
func TestSpaceSharedDigestPinned(t *testing.T) {
	if got := spaceSharedDigest(t); got != pinnedSpaceSharedDigest {
		t.Errorf("digest %s, pinned %s", got, pinnedSpaceSharedDigest)
	}
}

// checkPinned compares got with pinned[key].
func checkPinned(t *testing.T, pinned map[string]string, key, got string) {
	t.Helper()
	want, ok := pinned[key]
	if !ok {
		t.Fatalf("no pinned digest for %s; got %s", key, got)
	}
	if got != want {
		t.Errorf("digest %s, pinned %s", got, want)
	}
}
