package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bioschedsim/internal/tracecol"
)

// cmdTrace dispatches the trace toolbox subcommands.
func cmdTrace(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("trace: subcommand expected (convert)")
	}
	switch args[0] {
	case "convert":
		return cmdTraceConvert(args[1:])
	default:
		return fmt.Errorf("trace: unknown subcommand %q (want convert)", args[0])
	}
}

// cmdTraceConvert converts a trace between the CSV and columnar binary
// formats, auto-detecting the input format by its magic bytes: a columnar
// input comes back out as CSV, anything else is parsed as CSV and written
// columnar.
func cmdTraceConvert(args []string) error {
	fs := flag.NewFlagSet("trace convert", flag.ExitOnError)
	in := fs.String("in", "", "input trace (CSV or columnar; format sniffed)")
	out := fs.String("out", "", "output path")
	blockRows := fs.Int("block-rows", tracecol.DefaultBlockRows, "rows per columnar block (text→columnar)")
	compress := fs.Bool("compress", false, "flate-compress columnar blocks (text→columnar)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("trace convert: -in and -out are required")
	}
	prefix := make([]byte, 8)
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	// io.ReadFull, not f.Read: a single Read may legally return fewer than
	// 8 bytes without error, which would misclassify a columnar file as CSV.
	n, err := io.ReadFull(f, prefix)
	f.Close()
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	toText := tracecol.IsColumnar(prefix[:n])

	dst, err := os.Create(*out)
	if err != nil {
		return err
	}
	// A failed conversion must not leave a partial output behind for a later
	// replay run to trip over.
	converted := false
	defer func() {
		if !converted {
			dst.Close()
			os.Remove(*out)
		}
	}()

	var rows int
	if toText {
		p, err := tracecol.OpenFile(*in)
		if err != nil {
			return err
		}
		defer p.Close()
		rows, err = tracecol.ConvertColumnarToText(p, dst, tracecol.ReadOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "converted %s (columnar, %d blocks) -> %s (csv): %d rows\n",
			*in, len(p.Index().Blocks), *out, rows)
	} else {
		src, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer src.Close()
		opts := tracecol.WriteOptions{BlockRows: *blockRows}
		if *compress {
			opts.Compression = tracecol.CompressFlate
		}
		rows, err = tracecol.ConvertTextToColumnar(src, dst, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "converted %s (csv) -> %s (columnar, %d rows/block, compress=%v): %d rows\n",
			*in, *out, opts.BlockRows, *compress, rows)
	}
	if err := dst.Close(); err != nil {
		return err
	}
	converted = true
	return nil
}
