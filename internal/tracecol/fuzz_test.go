package tracecol

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"bioschedsim/internal/workload"
)

// FuzzColumnarRoundTrip feeds arbitrary bytes to the CSV parser and, for
// every accepted trace, asserts the conversion contract: text → columnar →
// text yields bit-identical entries at several block sizes and both
// compression modes, and the parallel reader agrees with the serial one.
// The seeds mirror (and the committed corpus extends) the FuzzReadTrace
// corpus, so every input that ever taught the text parser something also
// exercises the converter.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add([]byte("id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s\n1,250,1,300,300,0\n"))
	f.Add([]byte("id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s,deadline_s\n1,250,1,300,300,0.5,12\n2,1000,2,0,0,1.25,0\n"))
	f.Add([]byte("id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s\n-9007199254740993,0.0000000000000000000000001,1,1e300,0,4503599627370496.5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := workload.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, opts := range []WriteOptions{
			{BlockRows: 2},
			{Compression: CompressFlate, BlockRows: 3},
			{},
		} {
			var col bytes.Buffer
			if err := Write(&col, entries, opts); err != nil {
				t.Fatalf("columnarizing accepted trace (opts %+v): %v", opts, err)
			}
			p, err := OpenBytes(col.Bytes())
			if err != nil {
				t.Fatalf("reopening written columnar trace: %v", err)
			}
			for _, readers := range []int{1, 4} {
				got, err := ReadAll(p, ReadOptions{Readers: readers})
				if err != nil {
					t.Fatalf("reading back (readers=%d): %v", readers, err)
				}
				requireSame(t, entries, got)
			}
			var text strings.Builder
			if _, err := ConvertColumnarToText(p, &text, ReadOptions{}); err != nil {
				t.Fatalf("converting back to text: %v", err)
			}
			again, err := workload.ReadTrace(strings.NewReader(text.String()))
			if err != nil {
				t.Fatalf("re-reading converted text: %v\n%s", err, text.String())
			}
			requireSame(t, entries, again)
		}
	})
}

func requireSame(t *testing.T, want, got []workload.TraceEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("round-trip changed entry count: %d -> %d", len(want), len(got))
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
			t.Fatalf("round-trip changed entry %d: %+v arrival=%v -> %+v arrival=%v",
				i, a, want[i].Arrival, b, got[i].Arrival)
		}
	}
}

// FuzzReadColumnar drives arbitrary bytes through the columnar opener and
// reader: they must reject or accept, never panic, and anything accepted
// obeys the same replay contract the text parser guarantees (finite,
// range-checked values only).
func FuzzReadColumnar(f *testing.F) {
	// Seed with a small valid file, its truncations, and a bit-flipped
	// variant so the fuzzer starts inside the format.
	entries, err := workload.SyntheticTraceFrom(workload.HomogeneousCloudletSpec(), 20, workload.Poisson{Rate_: 5}, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, opts := range []WriteOptions{{BlockRows: 8}, {BlockRows: 8, Compression: CompressFlate}} {
		var buf bytes.Buffer
		if err := Write(&buf, entries, opts); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		f.Add(valid[:len(valid)-3])
		flipped := append([]byte{}, valid...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add(Magic[:])
	// Footer claiming ~2^58 rows: Rows*minRowBytes wraps int64 negative, so
	// a product-form allocation bound passes and ReadAll panics on make().
	f.Add(hugeRowCountFile(f, CompressFlate))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := OpenBytes(data)
		if err != nil {
			return
		}
		got, err := ReadAll(p, ReadOptions{Readers: 2})
		if err != nil {
			return
		}
		if len(got) == 0 {
			t.Fatal("ReadAll returned no error and no entries")
		}
		for i, e := range got {
			c := e.Cloudlet
			for name, v := range map[string]float64{
				"length": c.Length, "filesize": c.FileSize, "outputsize": c.OutputSize,
				"arrival": e.Arrival, "deadline": c.Deadline,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("entry %d: accepted non-finite %s %v", i, name, v)
				}
			}
			if c.Length <= 0 || c.PEs <= 0 || e.Arrival < 0 || c.Deadline < 0 {
				t.Fatalf("entry %d: accepted out-of-range values %+v arrival=%v", i, c, e.Arrival)
			}
		}
	})
}
