package main

import (
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// loadManifest reads ../BENCHMARK.json and checks it against the limits the
// benchmark contract puts on the file itself.
func loadManifest(t *testing.T) manifest {
	t.Helper()
	var m manifest
	if err := readJSON("../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q is not a valid unit", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		check("workload", w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, mm := range m.EndToEnd {
		check("end-to-end metric", mm.Name, mm.Unit)
		if mm.Bound <= 0 || mm.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", mm.Name, mm.Bound)
		}
		hasSetup = hasSetup || (mm.Name == "setup_s" && mm.Unit == "s" && mm.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, mm := range append(m.EndToEnd, m.PerLayer...) {
		if mm.Better != "lower" && mm.Better != "higher" {
			t.Errorf("metric %s: better is %q", mm.Name, mm.Better)
		}
	}
	for _, mm := range m.PerLayer {
		check("per-layer metric", mm.Name, mm.Unit)
	}
	return m
}

// quick is the protocol cut down to what a unit test can afford: one
// traced run per workload, whose reference window (tracing off) supplies
// the end-to-end metrics and whose traced window and stepped trace supply
// the per-layer ones.
func quick(tmp string) options {
	return options{
		seed:    1,
		windows: 1,
		window:  500 * time.Millisecond,
		warmup:  600 * time.Millisecond,
		setups:  1,
		drain:   5 * time.Second,
		trace:   true,
		rounds:  10,
		warmRnd: 3,
		tmp:     tmp,
		drivers: min(runtime.NumCPU(), 4),
	}
}

// TestQuick runs every workload for a couple of seconds and checks that what the
// harness reports is what BENCHMARK.json promises: the same workloads for
// the same reasons, every metric under its name with its unit, nothing
// NaN or negative, nothing failed.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	m := loadManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	// Metrics that are differences of two measurements and may honestly
	// come out below zero.
	signed := map[string]bool{"bench.trace_overhead_share": true, "service.retained_b_per_placement": true}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Traced runs write bench-trace-<workload>.json into the working
	// directory; keep the package directory clean.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range m.Workloads {
		sp := findSpec(w.Name)
		if sp == nil {
			t.Errorf("BENCHMARK.json names workload %q, the harness has none", w.Name)
			continue
		}
		if sp.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the harness %q", w.Name, w.Why, sp.why)
		}
		if raceEnabled && sp.quincy {
			// Under the race detector a 1000-machine round takes the better
			// part of a second and the open loop only ever falls behind.
			t.Logf("%s: skipped under the race detector", w.Name)
			continue
		}
		res, err := runWorkload(sp, quick(t.TempDir()))
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d gate=%v", w.Name, res.Correct, res.Attempted, res.Failed, res.Gate)
		}
		for _, group := range []struct {
			want []manifestMetric
			got  map[string]metric
		}{{m.EndToEnd, res.EndToEnd}, {m.PerLayer, res.PerLayer}} {
			for _, mm := range group.want {
				got, ok := group.got[mm.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing from the output", w.Name, mm.Name)
				case got.Unit != mm.Unit:
					t.Errorf("%s: metric %s reported in %q, BENCHMARK.json says %q", w.Name, mm.Name, got.Unit, mm.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (got.Value < 0 && !signed[mm.Name]):
					t.Errorf("%s: metric %s = %v", w.Name, mm.Name, got.Value)
				}
			}
			if len(group.got) != len(group.want) {
				t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", w.Name, len(group.got), len(group.want))
			}
		}
		if got := res.PerLayer["bench.failed_share"].Value; got != 0 {
			t.Errorf("%s: failed_share = %v", w.Name, got)
		}
	}
}

// TestSeedFixesOps: the same seed generates the same op sequence, another
// seed a different one.
func TestSeedFixesOps(t *testing.T) {
	for i := range workloads {
		sp := &workloads[i]
		a, b, c := opDigest(sp, 7, 500), opDigest(sp, 7, 500), opDigest(sp, 8, 500)
		if a != b {
			t.Errorf("%s: seed 7 generated two different op sequences", sp.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence", sp.name)
		}
	}
}

func TestNewSamples(t *testing.T) {
	got := newSamples([]float64{1, 2, 2, 3, 5, 5, 8}, []float64{2, 5, 8})
	want := []float64{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("three windows: spread = %v, want (12-9)/10", got)
	}
	// Many repeats: the interquartile range, which one cold outlier does
	// not stretch.
	if got := spread([]float64{50, 10, 11, 9, 10, 10, 11, 9, 10}); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("nine repeats: spread = %v, want (11-10)/10", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, spread, bound float64
		want                 string
	}{
		{0.02, 0.03, 0.10, "within bound"},
		{0.20, 0.03, 0.10, "worse"},
		{-0.20, 0.03, 0.10, "better"},
		{0.20, 0.30, 0.10, "unresolved"}, // a single run's windows already differ by more
		{0.05, 0.30, 0.10, "unresolved"},
		{0.50, 0.30, 0.10, "worse"}, // larger than anything the windows show
	} {
		if got := verdict(c.worse, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %q, want %q", c.worse, c.spread, c.bound, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// A 100 ns parent with children covering [10,40) and [30,60): 50 ns covered.
	sum := summarize([]span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
	})
	if got := sum["parent"].SelfUS; math.Abs(got-0.05) > 1e-9 {
		t.Errorf("parent self time = %v us, want 0.05", got)
	}
	if got := sum["child"].TotalUS; math.Abs(got-0.06) > 1e-9 {
		t.Errorf("child total = %v us, want 0.06", got)
	}
}
