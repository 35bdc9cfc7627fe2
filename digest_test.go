package bioschedsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/metrics"
	"bioschedsim/internal/sched"
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
