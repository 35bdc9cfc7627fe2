package service

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
)

// Served batches replay offline bit-identically: each shard maps with one
// scheduler and one random stream, in batch order, so re-mapping every
// shard's recorded batches on a fresh session with a fresh "aco" seeded as
// the shard was reproduces each cloudlet's VM, start and finish bit for bit.
func TestServiceServedBatchesReplayOffline(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := Config{Scheduler: "aco", Shards: shards, BatchSize: 8, Seed: 11}
			svc := startService(t, cfg)
			specs := map[int]CloudletSpec{}
			for i := 0; i < 40; i++ {
				req := make([]CloudletSpec, 1+i%3)
				for j := range req {
					req[j] = CloudletSpec{Length: 800 + float64((7*i+3*j)%11)*400, FileSize: 300, OutputSize: 300}
				}
				ids, err := svc.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				for j, id := range ids {
					specs[id] = req[j]
				}
			}
			drain(t, svc)

			// shard → batch number → its cloudlets' ids, in id order, which
			// is queue order for a single submitter.
			batches := make([]map[int][]int, shards)
			for i := range batches {
				batches[i] = map[int][]int{}
			}
			served := map[int]StatusRecord{}
			for id := range specs {
				rec, _ := svc.Status(id)
				if rec.State != StateFinished {
					t.Fatalf("cloudlet %d: %+v", id, rec)
				}
				served[id] = rec
				batches[rec.Shard][rec.Batch] = append(batches[rec.Shard][rec.Batch], id)
			}

			env := testEnv(t, 8, 42)
			ranges, err := cloud.PartitionVMs(env.VMs, shards)
			if err != nil {
				t.Fatal(err)
			}
			replayed, multi := 0, false
			for shard, byBatch := range batches {
				session, err := online.NewSubsetSession(env, ranges[shard], nil, cloud.TimeSharedFactory)
				if err != nil {
					t.Fatal(err)
				}
				mapper, err := sched.New("aco")
				if err != nil {
					t.Fatal(err)
				}
				rnd := rand.New(rand.NewSource(cfg.Seed + int64(shard)*shardSeedStride))
				nos := make([]int, 0, len(byBatch))
				for no := range byBatch {
					nos = append(nos, no)
				}
				slices.Sort(nos)
				multi = multi || len(nos) > 1
				for _, no := range nos {
					ids := byBatch[no]
					slices.Sort(ids)
					cls := make([]*cloud.Cloudlet, len(ids))
					for i, id := range ids {
						sp := specs[id]
						cls[i] = cloud.NewCloudlet(id, sp.Length, 1, sp.FileSize, sp.OutputSize)
					}
					ctx := &sched.Context{
						Cloudlets:   cls,
						VMs:         append([]*cloud.VM(nil), ranges[shard]...),
						Datacenters: env.Datacenters,
						Rand:        rnd,
					}
					as, err := mapper.Schedule(ctx)
					if err != nil {
						t.Fatal(err)
					}
					for _, a := range as {
						if err := session.SubmitPlaced(a.Cloudlet, a.VM); err != nil {
							t.Fatal(err)
						}
					}
					for _, c := range session.Run() {
						rec := served[c.ID]
						if c.VM.ID != rec.VM ||
							math.Float64bits(c.StartTime) != math.Float64bits(rec.StartSim) ||
							math.Float64bits(c.FinishTime) != math.Float64bits(rec.FinishSim) {
							t.Fatalf("shard %d batch %d cloudlet %d: replay VM %d start %v finish %v, served VM %d start %v finish %v",
								shard, no, c.ID, c.VM.ID, c.StartTime, c.FinishTime, rec.VM, rec.StartSim, rec.FinishSim)
						}
						replayed++
					}
				}
			}
			if replayed != len(specs) {
				t.Fatalf("replayed %d of %d cloudlets", replayed, len(specs))
			}
			if !multi {
				t.Fatal("every shard served a single batch; the replay exercised no stream across batches")
			}
		})
	}
}
