package tracecol

import (
	"fmt"
	"io"
	"os"

	"bioschedsim/internal/workload"
)

// ConvertTextToColumnar parses a CSV trace from r and writes it in the
// columnar format, returning the row count. The conversion is lossless:
// reading the columnar output yields bit-identical TraceEntry values
// (float bits are stored raw; ids and pes are exact integers).
func ConvertTextToColumnar(r io.Reader, w io.Writer, opts WriteOptions) (int, error) {
	entries, err := workload.ReadTrace(r)
	if err != nil {
		return 0, err
	}
	if err := Write(w, entries, opts); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// ConvertColumnarToText decodes a columnar trace and writes the canonical
// CSV form (always including the deadline column, like
// workload.WriteTrace), returning the row count.
func ConvertColumnarToText(p *Provider, w io.Writer, opts ReadOptions) (int, error) {
	entries, err := ReadAll(p, opts)
	if err != nil {
		return 0, err
	}
	if err := workload.WriteTrace(w, entries); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// ReadFileAuto reads a trace file in either format, sniffing the columnar
// magic bytes; anything else is handed to the CSV parser. readers bounds
// the columnar decode pool (0 = GOMAXPROCS) and is ignored on the text
// path, which is inherently serial.
func ReadFileAuto(path string, readers int) ([]workload.TraceEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prefix := make([]byte, len(Magic))
	n, err := io.ReadFull(f, prefix)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, fmt.Errorf("tracecol: sniffing %s: %w", path, err)
	}
	if IsColumnar(prefix[:n]) {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		p, err := openReaderAt(f, st.Size())
		if err != nil {
			return nil, err
		}
		return ReadAll(p, ReadOptions{Readers: readers})
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return workload.ReadTrace(f)
}
