package tracecol

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/objective"
	"bioschedsim/internal/workload"
)

// ReadOptions configure the parallel reader.
type ReadOptions struct {
	// Readers bounds the decode pool: 0 = GOMAXPROCS, 1 = serial. Results
	// are bit-identical at every setting — each worker decodes disjoint
	// blocks into disjoint, pre-sized slices of the output, so scheduling
	// can reorder the wall clock but never the rows.
	Readers int
}

// minParallelRows keeps tiny traces serial; below this the pool costs more
// than the decode.
const minParallelRows = 1 << 14

// workers sizes the decode pool for a trace of rows rows: serial below
// minParallelRows, otherwise Readers, or GOMAXPROCS when Readers is 0.
func (o ReadOptions) workers(rows int) int {
	w := objective.EffectiveWorkers(int64(rows), minParallelRows)
	if w > 1 && o.Readers > 0 {
		return o.Readers
	}
	return w
}

// ReadAll decodes the whole trace in file order. Decode work fans out over
// blocks; reassembly is positional (block b writes the rows after those of
// blocks 0..b-1), so the result is deterministic and identical to a serial
// read.
func ReadAll(p *Provider, opts ReadOptions) ([]workload.TraceEntry, error) {
	ix := p.Index()
	if ix.TotalRows == 0 {
		return nil, fmt.Errorf("tracecol: empty trace")
	}
	out := make([]workload.TraceEntry, ix.TotalRows)
	errs := make([]error, len(ix.Blocks))
	rowOff := make([]int, len(ix.Blocks))
	off := 0
	for b, info := range ix.Blocks {
		rowOff[b] = off
		off += info.Rows
	}
	objective.ParallelFor(opts.workers(ix.TotalRows), len(ix.Blocks), func(b int) {
		errs[b] = decodeBlockInto(p, b, out[rowOff[b]:rowOff[b]+ix.Blocks[b].Rows])
	})
	for b, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tracecol: block %d (rows %d-%d, offset %d): %w",
				b, rowOff[b], rowOff[b]+ix.Blocks[b].Rows-1, ix.Blocks[b].Offset, err)
		}
	}
	return out, nil
}

// decodeBlockInto fetches, checks, decompresses, parses, and validates one
// block into dst (len(dst) == the index's row count for the block).
func decodeBlockInto(p *Provider, b int, dst []workload.TraceEntry) error {
	ix := p.Index()
	info := ix.Blocks[b]
	stored, err := p.Block(b)
	if err != nil {
		return err
	}
	if got := crcOf(stored); got != info.CRC {
		return fmt.Errorf("checksum mismatch (got %08x, want %08x)", got, info.CRC)
	}
	raw := stored
	if ix.Compression == CompressFlate {
		raw = make([]byte, info.RawLen)
		fr := flate.NewReader(bytes.NewReader(stored))
		if _, err := io.ReadFull(fr, raw); err != nil {
			return fmt.Errorf("decompress: %w", err)
		}
		// The stream must end exactly at RawLen, or the index is lying
		// about the decompressed size.
		var extra [1]byte
		if n, _ := fr.Read(extra[:]); n != 0 {
			return fmt.Errorf("decompressed payload exceeds indexed raw length %d", info.RawLen)
		}
		if err := fr.Close(); err != nil {
			return fmt.Errorf("decompress: %w", err)
		}
	}
	r := &byteReader{buf: raw, ctx: fmt.Sprintf("block %d", b)}
	rows, err := r.uvarint("row count")
	if err != nil {
		return err
	}
	if int(rows) != info.Rows {
		return fmt.Errorf("decoded row count %d disagrees with index row count %d", rows, info.Rows)
	}
	n := info.Rows
	ids, err := column(r, "id")
	if err != nil {
		return err
	}
	lengths, err := floatColumn(r, "length_mi", n)
	if err != nil {
		return err
	}
	pes, err := column(r, "pes")
	if err != nil {
		return err
	}
	files, err := floatColumn(r, "filesize_mb", n)
	if err != nil {
		return err
	}
	outputs, err := floatColumn(r, "outputsize_mb", n)
	if err != nil {
		return err
	}
	arrivals, err := floatColumn(r, "arrival_s", n)
	if err != nil {
		return err
	}
	deads, err := floatColumn(r, "deadline_s", n)
	if err != nil {
		return err
	}
	if r.pos != len(raw) {
		return fmt.Errorf("%d trailing bytes after columns", len(raw)-r.pos)
	}
	idR := &byteReader{buf: ids, ctx: r.ctx + " id column"}
	pesR := &byteReader{buf: pes, ctx: r.ctx + " pes column"}
	// One allocation holds the whole block's cloudlets; each entry points
	// into it.
	block := make([]cloud.Cloudlet, n)
	var prevID int64
	for i := 0; i < n; i++ {
		dz, err := idR.uvarint("id delta")
		if err != nil {
			return err
		}
		prevID += unzigzag(dz)
		pv, err := pesR.uvarint("pes")
		if err != nil {
			return err
		}
		length := readFloat(lengths, i)
		fileSize := readFloat(files, i)
		outputSize := readFloat(outputs, i)
		arrival := readFloat(arrivals, i)
		deadline := readFloat(deads, i)
		id := int(prevID)
		if int64(id) != prevID {
			return fmt.Errorf("row %d: id %d overflows int", i, prevID)
		}
		if pv > math.MaxInt {
			return fmt.Errorf("row %d: pes %d overflows int", i, pv)
		}
		if err := validateRow(i, id, length, int(pv), fileSize, outputSize, arrival, deadline); err != nil {
			return err
		}
		c := &block[i]
		*c = cloud.MakeCloudlet(id, length, int(pv), fileSize, outputSize)
		c.Deadline = deadline
		dst[i] = workload.TraceEntry{Cloudlet: c, Arrival: arrival}
	}
	if idR.pos != len(ids) {
		return fmt.Errorf("id column has %d trailing bytes", len(ids)-idR.pos)
	}
	if pesR.pos != len(pes) {
		return fmt.Errorf("pes column has %d trailing bytes", len(pes)-pesR.pos)
	}
	return nil
}

// column reads one length-prefixed variable-width column.
func column(r *byteReader, name string) ([]byte, error) {
	n, err := r.uvarint(name + " column length")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return nil, r.errf("%s column length %d exceeds remaining payload %d", name, n, len(r.buf)-r.pos)
	}
	return r.bytes(int(n), name+" column")
}

// floatColumn reads one fixed-width float64 column and checks its length
// against the row count.
func floatColumn(r *byteReader, name string, rows int) ([]byte, error) {
	col, err := column(r, name)
	if err != nil {
		return nil, err
	}
	if len(col) != rows*8 {
		return nil, r.errf("%s column is %d bytes, want %d for %d rows", name, len(col), rows*8, rows)
	}
	return col, nil
}

func readFloat(col []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(col[i*8:]))
}
