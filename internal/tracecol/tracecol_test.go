package tracecol

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/workload"
)

// genEntries builds a deterministic synthetic trace via the Table VI
// generator with Poisson arrivals and deadlines on a subset of rows.
func genEntries(t testing.TB, n int, seed uint64) []workload.TraceEntry {
	t.Helper()
	entries, err := workload.SyntheticTraceFrom(workload.HeterogeneousCloudletSpec(), n, workload.Poisson{Rate_: 8}, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if i%3 == 0 {
			entries[i].Cloudlet.Deadline = entries[i].Arrival + float64(i%97)
		}
	}
	return entries
}

// sameEntries requires bit-identical TraceEntry slices (float bits
// compared exactly via Float64bits, so -0 vs 0 or NaN payloads would
// fail too).
func sameEntries(t *testing.T, want, got []workload.TraceEntry, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	bits := math.Float64bits
	for i := range want {
		a, b := want[i].Cloudlet, got[i].Cloudlet
		if a.ID != b.ID || a.PEs != b.PEs ||
			bits(a.Length) != bits(b.Length) ||
			bits(a.FileSize) != bits(b.FileSize) ||
			bits(a.OutputSize) != bits(b.OutputSize) ||
			bits(a.Deadline) != bits(b.Deadline) ||
			bits(want[i].Arrival) != bits(got[i].Arrival) {
			t.Fatalf("%s: entry %d differs: %+v arrival=%v vs %+v arrival=%v",
				label, i, a, want[i].Arrival, b, got[i].Arrival)
		}
	}
}

func TestRoundTripEntries(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts WriteOptions
	}{
		{"default", WriteOptions{}},
		{"tiny-blocks", WriteOptions{BlockRows: 7}},
		{"flate", WriteOptions{Compression: CompressFlate}},
		{"flate-tiny-blocks", WriteOptions{BlockRows: 64, Compression: CompressFlate}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entries := genEntries(t, 1000, 42)
			var buf bytes.Buffer
			if err := Write(&buf, entries, tc.opts); err != nil {
				t.Fatal(err)
			}
			p, err := OpenBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(p, ReadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, entries, got, tc.name)
		})
	}
}

// TestTextColumnarTextRoundTrip is the acceptance property: CSV → columnar
// → CSV preserves every entry bit-for-bit and the re-exported CSV parses
// back to the same trace.
func TestTextColumnarTextRoundTrip(t *testing.T) {
	entries := genEntries(t, 500, 7)
	var text bytes.Buffer
	if err := workload.WriteTrace(&text, entries); err != nil {
		t.Fatal(err)
	}

	var col bytes.Buffer
	n, err := ConvertTextToColumnar(bytes.NewReader(text.Bytes()), &col, WriteOptions{BlockRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(entries) {
		t.Fatalf("converted %d rows, want %d", n, len(entries))
	}
	if !IsColumnar(col.Bytes()) {
		t.Fatal("converted output does not start with the columnar magic")
	}

	p, err := OpenBytes(col.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if _, err := ConvertColumnarToText(p, &back, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if back.String() != text.String() {
		t.Fatal("text→columnar→text changed the canonical CSV bytes")
	}
	again, err := workload.ReadTrace(strings.NewReader(back.String()))
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, entries, again, "text round-trip")
}

// TestReaderCountInvariance is the PR 5-style worker-invariance check:
// the parallel columnar reader must return bit-identical entries at every
// reader count, with and without compression.
func TestReaderCountInvariance(t *testing.T) {
	entries := genEntries(t, 5000, 99)
	for _, comp := range []byte{CompressNone, CompressFlate} {
		var buf bytes.Buffer
		// 64-row blocks force many blocks so multi-reader pools actually
		// interleave even at this test size.
		if err := Write(&buf, entries, WriteOptions{BlockRows: 64, Compression: comp}); err != nil {
			t.Fatal(err)
		}
		p, err := OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		base, err := ReadAll(p, ReadOptions{Readers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameEntries(t, entries, base, "serial read")
		for _, readers := range []int{2, runtime.GOMAXPROCS(0), 16} {
			got, err := ReadAll(p, ReadOptions{Readers: readers})
			if err != nil {
				t.Fatalf("readers=%d: %v", readers, err)
			}
			sameEntries(t, base, got, "readers invariance")
		}
	}
}

func TestWriterRejectsInvalidRows(t *testing.T) {
	mk := func(mut func(*workload.TraceEntry)) error {
		e := workload.TraceEntry{Cloudlet: cloud.NewCloudlet(1, 100, 1, 10, 10)}
		mut(&e)
		w, err := NewWriter(&bytes.Buffer{}, WriteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return w.Add(e)
	}
	if err := mk(func(e *workload.TraceEntry) { e.Arrival = math.NaN() }); err == nil {
		t.Error("NaN arrival accepted")
	}
	if err := mk(func(e *workload.TraceEntry) { e.Arrival = math.Inf(1) }); err == nil {
		t.Error("+Inf arrival accepted")
	}
	if err := mk(func(e *workload.TraceEntry) { e.Arrival = -1 }); err == nil {
		t.Error("negative arrival accepted")
	}
	if err := mk(func(e *workload.TraceEntry) { e.Cloudlet.Deadline = -5 }); err == nil {
		t.Error("negative deadline accepted")
	}
	if err := mk(func(e *workload.TraceEntry) { e.Cloudlet = nil }); err == nil {
		t.Error("nil cloudlet accepted")
	}
	if err := mk(func(e *workload.TraceEntry) { e.Cloudlet.Length = -3 }); err == nil {
		t.Error("negative length accepted")
	}
	// An empty stream must not produce a file that claims to be a trace.
	w, err := NewWriter(&bytes.Buffer{}, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Error("empty trace accepted at Close")
	}
	if _, err := NewWriter(&bytes.Buffer{}, WriteOptions{Compression: 99}); err == nil {
		t.Error("unknown compression code accepted")
	}
}

func TestNegativeAndHugeIDsRoundTrip(t *testing.T) {
	// Zigzag deltas must survive ids that go down, negative ids, and ids
	// near the int extremes (the text format also allows all of these).
	ids := []int{5, -17, math.MaxInt64 / 2, 0, math.MinInt64 / 2, 3}
	entries := make([]workload.TraceEntry, len(ids))
	for i, id := range ids {
		entries[i] = workload.TraceEntry{
			Cloudlet: cloud.NewCloudlet(id, float64(i+1), i+1, 0, 0),
			Arrival:  float64(i),
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, entries, WriteOptions{BlockRows: 2}); err != nil {
		t.Fatal(err)
	}
	p, err := OpenBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(p, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, entries, got, "extreme ids")
}

func TestFileProviderAndAuto(t *testing.T) {
	entries := genEntries(t, 800, 3)
	dir := t.TempDir()

	colPath := dir + "/t.col"
	textPath := dir + "/t.csv"
	fcol, err := os.Create(colPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(fcol, entries, WriteOptions{BlockRows: 128, Compression: CompressFlate}); err != nil {
		t.Fatal(err)
	}
	if err := fcol.Close(); err != nil {
		t.Fatal(err)
	}
	ftext, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(ftext, entries); err != nil {
		t.Fatal(err)
	}
	if err := ftext.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := OpenFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	got, err := ReadAll(p, ReadOptions{Readers: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, entries, got, "file provider")

	fromCol, err := ReadFileAuto(colPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, entries, fromCol, "auto columnar")
	fromText, err := ReadFileAuto(textPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, entries, fromText, "auto text")
	if _, err := ReadFileAuto(dir+"/missing", 0); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := OpenFile(textPath); err == nil {
		t.Fatal("OpenFile accepted a text trace")
	}
}
