package tracecol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Provider hands decode workers the stored bytes of individual blocks
// from an io.ReaderAt: a file (OpenFile) or a byte slice (OpenBytes).
// Block is safe for concurrent calls — each one is an independent
// positional read — so K workers fetch disjoint blocks in parallel and the
// reassembly stage (reader.go) puts the rows back in file order.
type Provider struct {
	r  io.ReaderAt
	ix *Index
	f  *os.File // the file OpenFile opened, for Close; nil otherwise
}

// Index returns the parsed, validated footer index.
func (p *Provider) Index() *Index { return p.ix }

// Block returns the stored (possibly compressed) bytes of block b. The
// returned slice is owned by the caller.
func (p *Provider) Block(b int) ([]byte, error) {
	if b < 0 || b >= len(p.ix.Blocks) {
		return nil, fmt.Errorf("tracecol: block %d out of range [0, %d)", b, len(p.ix.Blocks))
	}
	info := p.ix.Blocks[b]
	buf := make([]byte, info.StoredLen)
	if _, err := p.r.ReadAt(buf, info.Offset); err != nil {
		return nil, fmt.Errorf("tracecol: block %d at offset %d: %w", b, info.Offset, err)
	}
	return buf, nil
}

// Close closes the file OpenFile opened; it is a no-op for OpenBytes.
func (p *Provider) Close() error {
	if p.f == nil {
		return nil
	}
	return p.f.Close()
}

// openReaderAt validates the header/trailer geometry and parses the footer.
func openReaderAt(r io.ReaderAt, size int64) (*Provider, error) {
	if size < int64(len(Magic))+trailerLen {
		return nil, fmt.Errorf("tracecol: file too short (%d bytes) to be a columnar trace", size)
	}
	head := make([]byte, len(Magic))
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("tracecol: reading header: %w", err)
	}
	if !IsColumnar(head) {
		return nil, fmt.Errorf("tracecol: bad magic %q (not a columnar trace)", head)
	}
	trailer := make([]byte, trailerLen)
	if _, err := r.ReadAt(trailer, size-trailerLen); err != nil {
		return nil, fmt.Errorf("tracecol: reading trailer: %w", err)
	}
	if [8]byte(trailer[12:20]) != Magic {
		return nil, fmt.Errorf("tracecol: bad trailer magic %q (truncated file?)", trailer[12:20])
	}
	footerLen := int64(binary.LittleEndian.Uint64(trailer))
	footerCRC := binary.LittleEndian.Uint32(trailer[8:12])
	footerStart := size - trailerLen - footerLen
	if footerLen <= 0 || footerStart < int64(len(Magic)) {
		return nil, fmt.Errorf("tracecol: footer length %d does not fit a %d-byte file", footerLen, size)
	}
	footer := make([]byte, footerLen)
	if _, err := r.ReadAt(footer, footerStart); err != nil {
		return nil, fmt.Errorf("tracecol: reading footer: %w", err)
	}
	if got := crcOf(footer); got != footerCRC {
		return nil, fmt.Errorf("tracecol: footer checksum mismatch (got %08x, want %08x)", got, footerCRC)
	}
	ix, err := decodeFooter(footer, footerStart)
	if err != nil {
		return nil, err
	}
	return &Provider{r: r, ix: ix}, nil
}

// OpenFile opens path and parses its index. Close releases the descriptor.
func OpenFile(path string) (*Provider, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	p, err := openReaderAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	p.f = f
	return p, nil
}

// OpenBytes parses data as a columnar trace without copying it, for tests,
// fuzzing, and traces already loaded as one byte slice.
func OpenBytes(data []byte) (*Provider, error) {
	return openReaderAt(bytes.NewReader(data), int64(len(data)))
}
