// Command firmament-vet runs the project's invariant analyzers
// (internal/analysis) over the named package patterns and reports every
// violation of the determinism, hot-path-allocation, lock-order,
// journal-ordering and serving-boundary contracts. It exits non-zero if any
// diagnostic survives, so CI and scripts/bench.sh can gate on it.
//
// Usage:
//
//	firmament-vet [-list] [packages...]
//
// With no arguments it vets ./.... See docs/analysis.md for the
// invariants, annotations, and suppression syntax.
package main

import (
	"flag"
	"fmt"
	"os"

	"firmament/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: firmament-vet [-list] [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "firmament-vet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "firmament-vet:", err)
		os.Exit(2)
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, analysis.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "firmament-vet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			found = true
			fmt.Println(d.String())
		}
	}
	if found {
		os.Exit(1)
	}
}
