// Package tracecol implements a blocked, indexed, optionally compressed
// columnar binary format for workload traces, plus a parallel streaming
// reader. It exists because paper-scale replay (1M cloudlets × 100k VMs)
// is bottlenecked on CSV parsing long before the schedulers run: the text
// path allocates and parses one string per field, while the columnar path
// memcpy-decodes whole blocks of float64 bits.
//
// On-disk layout (all integers varint or little-endian):
//
//	magic[8] "BSTRCOL1"                      file header (version in byte 8)
//	block 0 … block B-1                      stored column payloads,
//	                                         independently seekable,
//	                                         optionally flate-compressed
//	footer:
//	  uvarint blockCount
//	  per block: uvarint offset, storedLen, rawLen, rows;
//	             uint32 crc32(stored bytes);
//	             float64 minArrival, maxArrival
//	  byte     compression (0 = none, 1 = flate)
//	  uvarint  totalRows
//	trailer[20]:
//	  uint64 footerLen · uint32 crc32(footer) · magic[8]
//
// Each block's raw payload is row-count prefixed, then the seven columns in
// trace-header order, each length-prefixed: id (zigzag-varint deltas),
// length_mi (raw float64 bits), pes (uvarint), filesize_mb, outputsize_mb,
// arrival_s, deadline_s (raw float64 bits). Raw float bits make round-trips
// bit-exact; delta/varint exploits the (typically monotone) id column.
//
// The same validation the text parser applies at the row level is applied
// here at the block level: non-finite floats, non-positive length/pes, and
// negative arrival/deadline are rejected with positioned errors, so a file
// that decodes is safe to replay. Reading goes through a Provider so
// K decode workers can pull disjoint blocks in parallel; results are
// bit-identical at every reader count (see reader.go).
package tracecol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic identifies a columnar trace file; the trailing byte is the format
// version. Sniff it with IsColumnar.
var Magic = [8]byte{'B', 'S', 'T', 'R', 'C', 'O', 'L', '1'}

// Compression codes recorded in the footer.
const (
	CompressNone  byte = 0
	CompressFlate byte = 1
)

// trailerLen is the fixed-size trailer at EOF: footerLen(8) + footerCRC(4)
// + magic(8).
const trailerLen = 8 + 4 + 8

// DefaultBlockRows is the default rows-per-block. 64k rows ≈ 3.5 MB of raw
// column data — large enough to amortize per-block overhead, small enough
// that a handful of blocks already feed several decode workers.
const DefaultBlockRows = 1 << 16

// minRowBytes is the smallest possible raw encoding of one row: 1 byte of
// id delta + 1 byte of pes + 5 × 8 bytes of float columns.
const minRowBytes = 42

// maxFlateExpansion bounds DEFLATE's worst-case decompression ratio
// (~1032:1 for a stream of maximal back-references); anything beyond it in
// the index is a lie.
const maxFlateExpansion = 1040

// IsColumnar reports whether prefix begins with the columnar magic bytes.
// Eight bytes of the file are enough to decide; the text format starts
// with the CSV header "id,length_mi,…".
func IsColumnar(prefix []byte) bool {
	return len(prefix) >= len(Magic) && [8]byte(prefix[:8]) == Magic
}

// BlockInfo is one footer index entry.
type BlockInfo struct {
	Offset     int64   // file offset of the stored bytes
	StoredLen  int64   // bytes on disk (compressed size when compressed)
	RawLen     int64   // decompressed payload size
	Rows       int     // rows encoded in this block
	CRC        uint32  // crc32 (IEEE) of the stored bytes
	MinArrival float64 // smallest arrival_s in the block
	MaxArrival float64 // largest arrival_s in the block
}

// Index is the parsed footer: everything a reader needs to fetch and
// decode blocks independently.
type Index struct {
	Compression byte
	TotalRows   int
	Blocks      []BlockInfo
}

// encodeFooter serializes the index. The inverse is decodeFooter.
func encodeFooter(ix *Index) []byte {
	buf := make([]byte, 0, 64*len(ix.Blocks)+16)
	buf = binary.AppendUvarint(buf, uint64(len(ix.Blocks)))
	for _, b := range ix.Blocks {
		buf = binary.AppendUvarint(buf, uint64(b.Offset))
		buf = binary.AppendUvarint(buf, uint64(b.StoredLen))
		buf = binary.AppendUvarint(buf, uint64(b.RawLen))
		buf = binary.AppendUvarint(buf, uint64(b.Rows))
		buf = binary.LittleEndian.AppendUint32(buf, b.CRC)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.MinArrival))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.MaxArrival))
	}
	buf = append(buf, ix.Compression)
	buf = binary.AppendUvarint(buf, uint64(ix.TotalRows))
	return buf
}

// byteReader walks a footer or block payload with positioned errors.
type byteReader struct {
	buf []byte
	pos int
	ctx string // error prefix, e.g. "footer" or "block 3"
}

func (r *byteReader) errf(format string, args ...any) error {
	return fmt.Errorf("tracecol: %s at byte %d: %s", r.ctx, r.pos, fmt.Sprintf(format, args...))
}

func (r *byteReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, r.errf("truncated or overlong uvarint (%s)", what)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.buf) {
		return nil, r.errf("truncated %s (%d bytes wanted, %d left)", what, n, len(r.buf)-r.pos)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// decodeFooter parses and validates the footer against the file geometry:
// every block must lie between the header and the footer, so a corrupted
// index cannot send a reader past EOF.
func decodeFooter(buf []byte, footerStart int64) (*Index, error) {
	r := &byteReader{buf: buf, ctx: "footer"}
	nBlocks, err := r.uvarint("block count")
	if err != nil {
		return nil, err
	}
	if nBlocks == 0 {
		return nil, r.errf("empty trace (zero blocks)")
	}
	// Each index entry encodes at least 24 bytes (4 one-byte uvarints +
	// 4-byte CRC + 16 bytes of arrival bounds), so the footer length bounds
	// how many entries can possibly follow — and how much we allocate.
	if nBlocks > uint64(len(buf))/24 {
		return nil, r.errf("implausible block count %d for a %d-byte footer", nBlocks, len(buf))
	}
	ix := &Index{Blocks: make([]BlockInfo, nBlocks)}
	sumRows := 0
	for i := range ix.Blocks {
		b := &ix.Blocks[i]
		var v uint64
		if v, err = r.uvarint("offset"); err != nil {
			return nil, err
		}
		b.Offset = int64(v)
		if v, err = r.uvarint("stored length"); err != nil {
			return nil, err
		}
		b.StoredLen = int64(v)
		if v, err = r.uvarint("raw length"); err != nil {
			return nil, err
		}
		b.RawLen = int64(v)
		if v, err = r.uvarint("row count"); err != nil {
			return nil, err
		}
		b.Rows = int(v)
		crc, err := r.bytes(4, "crc")
		if err != nil {
			return nil, err
		}
		b.CRC = binary.LittleEndian.Uint32(crc)
		mm, err := r.bytes(16, "arrival bounds")
		if err != nil {
			return nil, err
		}
		b.MinArrival = math.Float64frombits(binary.LittleEndian.Uint64(mm))
		b.MaxArrival = math.Float64frombits(binary.LittleEndian.Uint64(mm[8:]))
		if b.Rows <= 0 {
			return nil, fmt.Errorf("tracecol: footer: block %d has %d rows", i, b.Rows)
		}
		if b.Offset < int64(len(Magic)) || b.StoredLen <= 0 || b.Offset+b.StoredLen > footerStart {
			return nil, fmt.Errorf("tracecol: footer: block %d spans [%d, %d) outside the data section [%d, %d)",
				i, b.Offset, b.Offset+b.StoredLen, len(Magic), footerStart)
		}
		if b.RawLen <= 0 {
			return nil, fmt.Errorf("tracecol: footer: block %d has raw length %d", i, b.RawLen)
		}
		// Allocation-safety bounds: every row costs ≥ minRowBytes of raw
		// payload, and DEFLATE cannot expand past ~1032x, so a hostile
		// index cannot make the reader allocate out of proportion to the
		// actual file size. Compare in division form: the product form
		// (Rows*minRowBytes > RawLen) overflows int64 for Rows ≈ 2^58,
		// wrapping negative and waving the bogus count through.
		if int64(b.Rows) > b.RawLen/minRowBytes {
			return nil, fmt.Errorf("tracecol: footer: block %d claims %d rows in %d raw bytes (< %d bytes/row)",
				i, b.Rows, b.RawLen, minRowBytes)
		}
		if b.RawLen > b.StoredLen*maxFlateExpansion+64 {
			return nil, fmt.Errorf("tracecol: footer: block %d claims raw length %d from %d stored bytes (beyond flate's maximum expansion)",
				i, b.RawLen, b.StoredLen)
		}
		sumRows += b.Rows
		if sumRows < 0 {
			return nil, fmt.Errorf("tracecol: footer: cumulative row count overflows after block %d", i)
		}
	}
	comp, err := r.bytes(1, "compression code")
	if err != nil {
		return nil, err
	}
	ix.Compression = comp[0]
	if ix.Compression != CompressNone && ix.Compression != CompressFlate {
		return nil, fmt.Errorf("tracecol: footer: unknown compression code %d", ix.Compression)
	}
	total, err := r.uvarint("total rows")
	if err != nil {
		return nil, err
	}
	ix.TotalRows = int(total)
	if r.pos != len(buf) {
		return nil, fmt.Errorf("tracecol: footer: %d trailing bytes", len(buf)-r.pos)
	}
	if ix.TotalRows != sumRows {
		return nil, fmt.Errorf("tracecol: footer: total rows %d but blocks sum to %d", ix.TotalRows, sumRows)
	}
	if ix.Compression == CompressNone {
		for i, b := range ix.Blocks {
			if b.RawLen != b.StoredLen {
				return nil, fmt.Errorf("tracecol: footer: block %d raw length %d != stored length %d without compression",
					i, b.RawLen, b.StoredLen)
			}
		}
	}
	return ix, nil
}

// zigzag maps signed deltas onto unsigned varint-friendly space.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// crcOf is the one checksum used everywhere in the format.
func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
