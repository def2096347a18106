package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// manifest mirrors the parts of BENCHMARK.json the harness reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// setupFloorS is the slack every set-up gets whatever its bound: a set-up
// may get slower by its bound or by this many seconds, whichever is more.
// The 64-machine set-ups take 2 ms, most of it the wait for the first
// round's timer, and differ by half of that between two processes.
const setupFloorS = 0.2

// verdict classifies one workload × metric pair. worse is how much worse
// the new median is as a share of the old one (negative: better); spread
// is the larger window-to-window spread of the two results. A difference
// that the windows of a single run already span cannot be told from
// noise, so it is reported as unresolved rather than as a pass or a fail.
func verdict(worse, spread, bound float64) string {
	switch {
	case math.Abs(worse) <= bound && spread <= bound:
		return "within bound"
	case math.Abs(worse) <= spread:
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	default:
		return "within bound"
	}
}

// runCompare prints one row per workload × end-to-end metric and returns
// the process exit code: 1 if any row is worse, 2 if the inputs are unusable.
func runCompare(manifestPath, oldPath, newPath string, w io.Writer) int {
	var m manifest
	var a, b resultFile
	for path, v := range map[string]any{manifestPath: &m, oldPath: &a, newPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: hosts differ\n  old: %+v\n  new: %+v\n", a.Host, b.Host)
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tspread\tbound\tverdict")
	code := 0
	for _, wl := range m.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\tmissing\n", wl.Name)
			code = max(code, 2)
			continue
		}
		for _, mm := range m.EndToEnd {
			ma, oka := ra.EndToEnd[mm.Name]
			mb, okb := rb.EndToEnd[mm.Name]
			if !oka || !okb || ma.Value == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\tmissing\n", wl.Name, mm.Name)
				code = max(code, 2)
				continue
			}
			worse := (mb.Value - ma.Value) / math.Abs(ma.Value)
			if mm.Better == "higher" {
				worse = -worse
			}
			bound, shown := mm.Bound, fmt.Sprintf("%.0f%%", 100*mm.Bound)
			if floor := setupFloorS / ma.Value; mm.Name == "setup_s" && floor > bound {
				bound, shown = floor, fmt.Sprintf("%g s", setupFloorS)
			}
			v := verdict(worse, max(ma.Spread, mb.Spread), bound)
			if v == "worse" {
				code = max(code, 1)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g %s\t%+.1f%%\t%.1f%%\t%s\t%s\n",
				wl.Name, mm.Name, ma.Value, mb.Value, mm.Unit,
				100*(mb.Value-ma.Value)/math.Abs(ma.Value), 100*max(ma.Spread, mb.Spread), shown, v)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(tw, "%s\tcorrectness gate\t%v\t%v\t\t\t\tfailed\n", wl.Name, ra.Correct, rb.Correct)
			code = max(code, 1)
		}
	}
	tw.Flush()
	return code
}
