package tracecol

import (
	"bytes"
	"fmt"
	"testing"

	"bioschedsim/internal/workload"
)

// BenchmarkReadColumnar is the columnar side of workload.BenchmarkReadTrace:
// the same 100 000 synthetic rows, written uncompressed and flate-compressed,
// opened from memory and decoded by pools of 1, 2 and 4 readers. One op is
// one OpenBytes + ReadAll of the whole trace; bytes/s is relative to each
// file's own size. On a single-core host the readers-2/4 legs bound pool
// overhead, not scaling.
//
//	go test -run '^$' -bench 'ReadTrace|ReadColumnar' ./internal/workload ./internal/tracecol
func BenchmarkReadColumnar(b *testing.B) {
	entries, err := workload.SyntheticTraceFrom(workload.HeterogeneousCloudletSpec(), 100_000, workload.Poisson{Rate_: 8}, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		compression byte
	}{{"none", CompressNone}, {"flate", CompressFlate}} {
		var buf bytes.Buffer
		if err := Write(&buf, entries, WriteOptions{Compression: c.compression}); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		for _, readers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/readers-%d", c.name, readers), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := OpenBytes(data)
					if err != nil {
						b.Fatal(err)
					}
					got, err := ReadAll(p, ReadOptions{Readers: readers})
					if err != nil {
						b.Fatal(err)
					}
					if len(got) != len(entries) {
						b.Fatalf("read %d rows, want %d", len(got), len(entries))
					}
				}
			})
		}
	}
}
