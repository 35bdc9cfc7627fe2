// Command schedlint runs the repository's static-analysis rules
// (internal/lint): determinism of randomness (including interprocedural
// rand-stream flow), simulated-clock discipline, float-equality safety,
// library print hygiene, lock-hold checks, and goroutine-join accounting.
// Standard-library types come from the go command's export data, so the go
// command must be on PATH.
//
// Usage:
//
//	schedlint [-C dir] [-rules r1,r2] [-sarif] [-list] [packages ...]
//
// Package patterns are module-root-relative directories, with ./... for the
// whole tree (the default). -sarif emits a SARIF 2.1.0 report (schema
// lint.SchemaVersion). Any finding fails the run; an audited
// //schedlint:ignore directive is the only suppression. Exit codes: 0 clean,
// 1 findings, 2 usage or load error (an import that is neither in the module
// nor in the standard library is a load error) — suitable for CI gates
// (verify.sh runs `go run ./cmd/schedlint ./...`; CI additionally uploads the
// -sarif report for inline PR annotations).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bioschedsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("C", ".", "analyze the module containing this `directory`")
		rules    = fs.String("rules", "", "comma-separated `rules` to run (default: all; see -list)")
		sarifOut = fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 (for CI code-scanning upload)")
		listOnly = fs.Bool("list", false, "list the registered rules and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: schedlint [flags] [package patterns, default ./...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listOnly {
		for _, r := range lint.Rules() {
			fmt.Fprintf(stdout, "%-10s %s\n", r.Name, r.Doc)
		}
		return 0
	}
	var ruleNames []string
	if *rules != "" {
		ruleNames = strings.Split(*rules, ",")
	}
	res, err := lint.Run(lint.Config{
		Dir:      *dir,
		Patterns: fs.Args(),
		Rules:    ruleNames,
	})
	if err != nil {
		fmt.Fprintf(stderr, "schedlint: %v\n", err)
		return 2
	}

	switch {
	case *sarifOut:
		if err := lint.WriteSARIF(stdout, res); err != nil {
			fmt.Fprintf(stderr, "schedlint: %v\n", err)
			return 2
		}
	default:
		for _, d := range res.Diags {
			fmt.Fprintln(stdout, d.String())
		}
		if n := len(res.Diags); n > 0 {
			fmt.Fprintf(stderr, "schedlint: %d finding(s) across %d package(s)\n", n, res.Packages)
		}
	}
	if len(res.Diags) > 0 {
		return 1
	}
	return 0
}
