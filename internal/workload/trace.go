package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"bioschedsim/internal/cloud"
)

// Trace I/O: a minimal CSV interchange format so real workload traces can
// be replayed through the simulator instead of the synthetic Tables IV/VI
// generators. Columns:
//
//	id,length_mi,pes,filesize_mb,outputsize_mb,arrival_s[,deadline_s]
//
// The header row is required. arrival_s is the submission offset used with
// Broker.SubmitAllSchedule or online.Run; deadline_s (optional, absolute
// simulated seconds, 0 = none) feeds the SLA extension.

// TraceEntry is one parsed trace row.
type TraceEntry struct {
	Cloudlet *cloud.Cloudlet
	Arrival  float64
}

// traceHeader is the canonical column list (deadline optional on read).
var traceHeader = []string{"id", "length_mi", "pes", "filesize_mb", "outputsize_mb", "arrival_s", "deadline_s"}

// estimateRows guesses the row count of a trace from the reader's
// remaining size when it is knowable (in-memory readers and regular
// files), so ReadTrace can preallocate its output instead of growing it
// through a dozen doublings on a million-row trace. A wrong guess only
// costs capacity; correctness never depends on it.
func estimateRows(r io.Reader) int {
	var size int64
	switch src := r.(type) {
	case interface{ Len() int }: // bytes.Reader, strings.Reader, bytes.Buffer
		size = int64(src.Len())
	case interface{ Stat() (os.FileInfo, error) }: // *os.File
		st, err := src.Stat()
		if err != nil || !st.Mode().IsRegular() {
			return 0
		}
		size = st.Size()
	default:
		return 0
	}
	// ~30 bytes per canonical row ("7,1942.7,2,310.5,295.1,0.25,0").
	const avgRowBytes = 30
	n := size / avgRowBytes
	const maxPrealloc = 16 << 20 // cap pathological estimates at 16M rows
	if n > maxPrealloc {
		n = maxPrealloc
	}
	return int(n)
}

// ReadTrace parses a workload trace. Rows must be sorted by arrival or not
// — the caller decides; this function preserves file order.
func ReadTrace(r io.Reader) ([]TraceEntry, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// Every field is converted to a number before the next Read, so the
	// record buffer can be recycled — this removes the per-row []string
	// (and its backing string) allocations on the hot path.
	cr.ReuseRecord = true
	out := make([]TraceEntry, 0, estimateRows(r))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace header: %w", err)
	}
	if len(header) < 6 {
		return nil, fmt.Errorf("workload: trace header needs at least 6 columns, got %d", len(header))
	}
	for i := 0; i < 6; i++ {
		if header[i] != traceHeader[i] {
			return nil, fmt.Errorf("workload: trace column %d is %q, want %q", i, header[i], traceHeader[i])
		}
	}
	hasDeadline := len(header) >= 7 && header[6] == traceHeader[6]

	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		want := 6
		if hasDeadline {
			want = 7
		}
		if len(rec) != want {
			return nil, fmt.Errorf("workload: trace line %d: %d fields, want %d", line, len(rec), want)
		}
		// id and pes are integers; parsing them as floats would silently
		// truncate fractions and corrupt ids above 2^53 on round-trips.
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d id %q: %w", line, rec[0], err)
		}
		pes, err := strconv.Atoi(rec[2])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d pes %q: %w", line, rec[2], err)
		}
		var nums [7]float64
		for i, f := range rec {
			if i == 0 || i == 2 {
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d field %q: %w", line, f, err)
			}
			// NaN and ±Inf parse fine but poison the simulator: NaN
			// arrivals break event ordering and infinite lengths never
			// finish. Reject them at the boundary.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("workload: trace line %d field %q: value must be finite", line, f)
			}
			nums[i] = v
		}
		if nums[1] <= 0 || pes <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: non-positive length or pes", line)
		}
		if nums[5] < 0 {
			return nil, fmt.Errorf("workload: trace line %d: negative arrival", line)
		}
		c := cloud.NewCloudlet(id, nums[1], pes, nums[3], nums[4])
		if hasDeadline {
			if nums[6] < 0 {
				return nil, fmt.Errorf("workload: trace line %d: negative deadline", line)
			}
			c.Deadline = nums[6]
		}
		out = append(out, TraceEntry{Cloudlet: c, Arrival: nums[5]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return out, nil
}

// WriteTrace serializes entries in the canonical format (always including
// the deadline column).
func WriteTrace(w io.Writer, entries []TraceEntry) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, e := range entries {
		c := e.Cloudlet
		rec := []string{
			strconv.Itoa(c.ID), f(c.Length), strconv.Itoa(c.PEs),
			f(c.FileSize), f(c.OutputSize), f(e.Arrival), f(c.Deadline),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Split separates trace entries into the parallel slices the broker and
// online runner consume.
func Split(entries []TraceEntry) ([]*cloud.Cloudlet, []float64) {
	cls := make([]*cloud.Cloudlet, len(entries))
	arrivals := make([]float64, len(entries))
	for i, e := range entries {
		cls[i] = e.Cloudlet
		arrivals[i] = e.Arrival
	}
	return cls, arrivals
}

// SyntheticTraceFrom renders a generated scenario as trace entries with
// arrivals from proc — handy for producing example trace files. Cloudlet
// bodies come from GenerateCloudlets(spec, n, seed) and arrival offsets
// from proc's own stream, so the two never share draws.
func SyntheticTraceFrom(spec CloudletSpec, n int, proc ArrivalProcess, seed uint64) ([]TraceEntry, error) {
	if err := checkCount("cloudlet", n); err != nil {
		return nil, err
	}
	cls := GenerateCloudlets(spec, n, seed)
	arrivals, err := proc.Offsets(n, seed)
	if err != nil {
		return nil, err
	}
	out := make([]TraceEntry, n)
	for i := range out {
		out[i] = TraceEntry{Cloudlet: cls[i], Arrival: arrivals[i]}
	}
	return out, nil
}
