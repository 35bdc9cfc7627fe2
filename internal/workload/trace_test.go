package workload

import (
	"bytes"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"bioschedsim/internal/cloud"
)

const sampleTrace = `id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s,deadline_s
0,1000,1,300,300,0,0
1,2500,2,300,300,0.5,10
2,500,1,150,150,1.25,0
`

func TestReadTrace(t *testing.T) {
	entries, err := ReadTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries: %d", len(entries))
	}
	c1 := entries[1].Cloudlet
	if c1.ID != 1 || c1.Length != 2500 || c1.PEs != 2 || c1.Deadline != 10 {
		t.Fatalf("entry 1: %+v", c1)
	}
	if entries[1].Arrival != 0.5 {
		t.Fatalf("arrival: %v", entries[1].Arrival)
	}
	if entries[0].Cloudlet.Deadline != 0 {
		t.Fatal("zero deadline should mean none")
	}
}

func TestReadTraceWithoutDeadlineColumn(t *testing.T) {
	noDeadline := `id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s
0,1000,1,300,300,0
`
	entries, err := ReadTrace(strings.NewReader(noDeadline))
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Cloudlet.Deadline != 0 {
		t.Fatal("deadline should default to 0")
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "foo,bar\n1,2\n",
		"short header": "id,length_mi\n",
		"no rows":      "id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s\n",
		"bad number":   "id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s\n0,abc,1,0,0,0\n",
		"zero length":  "id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s\n0,0,1,0,0,0\n",
		"neg arrival":  "id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s\n0,10,1,0,0,-1\n",
		"neg deadline": "id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s,deadline_s\n0,10,1,0,0,0,-5\n",
		"short row":    "id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s\n0,10,1\n",
	}
	for name, raw := range cases {
		if _, err := ReadTrace(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	entries, err := SyntheticTraceFrom(HeterogeneousCloudletSpec(), 50, Poisson{Rate_: 4}, 9)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteTrace(&b, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("round trip length: %d vs %d", len(back), len(entries))
	}
	for i := range entries {
		a, z := entries[i], back[i]
		if a.Cloudlet.ID != z.Cloudlet.ID || a.Cloudlet.Length != z.Cloudlet.Length ||
			a.Cloudlet.PEs != z.Cloudlet.PEs || a.Arrival != z.Arrival ||
			a.Cloudlet.Deadline != z.Cloudlet.Deadline {
			t.Fatalf("row %d changed: %+v vs %+v", i, a, z)
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw)%40
		entries, err := SyntheticTraceFrom(HeterogeneousCloudletSpec(), n, Poisson{Rate_: 2}, seed)
		if err != nil {
			return false
		}
		var b strings.Builder
		if WriteTrace(&b, entries) != nil {
			return false
		}
		back, err := ReadTrace(strings.NewReader(b.String()))
		if err != nil {
			return false
		}
		return len(back) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceSplit(t *testing.T) {
	entries := []TraceEntry{
		{Cloudlet: cloud.NewCloudlet(0, 100, 1, 0, 0), Arrival: 0},
		{Cloudlet: cloud.NewCloudlet(1, 200, 1, 0, 0), Arrival: 2},
	}
	cls, arrivals := Split(entries)
	if len(cls) != 2 || len(arrivals) != 2 {
		t.Fatal("split lengths wrong")
	}
	if cls[1].ID != 1 || arrivals[1] != 2 {
		t.Fatal("split contents wrong")
	}
}

func TestSyntheticTraceDeterministic(t *testing.T) {
	a, err := SyntheticTraceFrom(HomogeneousCloudletSpec(), 10, Poisson{Rate_: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticTraceFrom(HomogeneousCloudletSpec(), 10, Poisson{Rate_: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Cloudlet.Length != b[i].Cloudlet.Length {
			t.Fatal("synthetic trace not deterministic")
		}
	}
}

// BenchmarkReadTrace measures the CSV ingest hot path (ReuseRecord + output
// preallocation). The columnar side of the same 100 000 rows is
// tracecol.BenchmarkReadColumnar:
//
//	go test -run '^$' -bench 'ReadTrace|ReadColumnar' ./internal/workload ./internal/tracecol
func BenchmarkReadTrace(b *testing.B) {
	entries, err := SyntheticTraceFrom(HeterogeneousCloudletSpec(), 100_000, Poisson{Rate_: 8}, 42)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, entries); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(entries) {
			b.Fatalf("read %d rows, want %d", len(got), len(entries))
		}
	}
}

func TestEstimateRows(t *testing.T) {
	if n := estimateRows(strings.NewReader(strings.Repeat("x", 3000))); n != 100 {
		t.Fatalf("strings.Reader estimate: %d", n)
	}
	if n := estimateRows(iotest.DataErrReader(strings.NewReader("x"))); n != 0 {
		t.Fatalf("opaque reader estimate: %d", n)
	}
}
