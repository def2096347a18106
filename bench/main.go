// Command bench is the repository's end-to-end and per-layer benchmark.
// It builds each workload's cluster and service, drives seeded load at it
// from this one process, checks that what came out is correct, and prints
// every metric by name with its unit. BENCHMARK.json at the repository
// root names the workloads, the metrics and their regression bounds;
// bench/README.md says why each was chosen and how they interact.
//
//	go run ./bench -workload all -seed 1 -out result.json   measured windows, every workload
//	go run ./bench -workload scale-1k -trace 1              the traced run: per-layer metrics + bench-trace-scale-1k.json
//	go run ./bench -compare old.json new.json               apply the bounds; exit 1 on any regression
//
// The last line on standard output is one JSON object
// {"correct","attempted","failed","metrics"} for the (last) workload run:
// the end-to-end metrics, or with -trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      host               `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, comma-separated names, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 18, "measured seconds per workload, split into 3 windows (not below 5 s each unless asked)")
		trace    = flag.Int("trace", 0, "1: run the traced run (reference window, traced window, stepped trace) instead of the measured windows")
		out      = flag.String("out", "", "write the full result (per-window values, host, notes) to this file")
		tmp      = flag.String("tmp", ".bench_build/tmp", "scratch directory for journals")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare old.json new.json")
		}
		os.Exit(runCompare("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}

	var specs []*spec
	if *workload == "all" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else {
		for _, name := range strings.Split(*workload, ",") {
			sp := findSpec(name)
			if sp == nil {
				fatal("unknown workload %q", name)
			}
			specs = append(specs, sp)
		}
	}

	opt := protocol(*seed, *seconds, *trace == 1, *tmp)
	file := resultFile{Seed: *seed, Seconds: *seconds, Workloads: map[string]*result{}}
	ok := true
	var last *result
	for _, sp := range specs {
		res, err := runWorkload(sp, opt)
		if err != nil {
			fatal("%s: %v", sp.name, err)
		}
		report(os.Stderr, res)
		file.Workloads[sp.name] = res
		ok = ok && res.Correct
		last = res
	}
	if *out != "" {
		file.Host = hostInfo(*tmp) // the scratch directory exists by now
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal("writing %s: %v", *out, err)
		}
	}
	fmt.Println(lastLine(last, opt.trace))
	if !ok {
		os.Exit(1)
	}
}

// protocol is the run protocol for a measured span of the given seconds:
// a 3 s warm-up, three consecutive windows, set-up timed at least five
// times.
func protocol(seed int64, seconds int, trace bool, tmp string) options {
	return options{
		seed:     seed,
		windows:  3,
		window:   time.Duration(seconds) * time.Second / 3,
		warmup:   3 * time.Second,
		setups:   5,
		setupFor: time.Second,
		drain:    5 * time.Second,
		trace:    trace,
		rounds:   300,
		warmRnd:  20,
		tmp:      tmp,
		drivers:  min(runtime.NumCPU(), 4),
	}
}

// lastLine is the one-object summary the driver reads.
func lastLine(res *result, trace bool) string {
	ms := res.EndToEnd
	if trace {
		ms = res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(ms))
	for name, m := range ms {
		metrics[name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b)
}

// report prints one workload's metrics by name with units, for people.
func report(w *os.File, res *result) {
	fmt.Fprintf(w, "== %s: correct=%v valid=%v attempted=%d failed=%d\n", res.Workload, res.Correct, res.Valid, res.Attempted, res.Failed)
	for _, g := range res.Gate {
		fmt.Fprintf(w, "   GATE: %s\n", g)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, group := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			fmt.Fprintf(w, "   %-36s %14.4f %-8s", name, m.Value, m.Unit)
			if n := len(m.Windows); n > 8 {
				fmt.Fprintf(w, " median of %d, spread %.3f", n, m.Spread)
			} else if n > 0 {
				fmt.Fprintf(w, " windows %.4g spread %.3f", m.Windows, m.Spread)
			}
			if len(m.Samples) > 0 {
				fmt.Fprintf(w, " n %v", m.Samples)
			}
			fmt.Fprintln(w)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
