package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile of vals (nearest rank with linear
// interpolation), 0 when empty. It sorts vals in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return vals[lo] + (vals[hi]-vals[lo])*(rank-float64(lo))
}

func median(vals []float64) float64 {
	return percentile(append([]float64(nil), vals...), 50)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// spread is the variation among the values a metric is the median of, as
// a share of that median: (max − min) of the windows, or, for the many
// repeats of a set-up, their interquartile range, which the cold first
// repeat does not stretch.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	lo, hi := percentile(sorted, 0), percentile(sorted, 100)
	if len(vals) > 4 {
		lo, hi = percentile(sorted, 25), percentile(sorted, 75)
	}
	return (hi - lo) / math.Abs(m)
}

// newSamples returns the samples of after that are not in before. Both are
// sorted; before is a sub-multiset of after. service.Stats hands out
// cumulative distributions with no way to reset them, so a window's own
// samples are recovered as the difference of two snapshots.
func newSamples(after, before []float64) []float64 {
	out := make([]float64, 0, len(after)-len(before))
	j := 0
	for _, v := range after {
		if j < len(before) && before[j] == v {
			j++
			continue
		}
		out = append(out, v)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// host describes where a result was measured, so two result files can be
// told apart before they are compared.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	TmpFS      string `json:"tmp_fs"`
}

func hostInfo(tmp string) host {
	h := host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: "unknown", Commit: gitCommit(), TmpFS: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(tmp, &st); err == nil {
		h.TmpFS = fmt.Sprintf("0x%x", st.Type)
	}
	return h
}

// gitCommit reads the checked-out commit without running git; a checkout
// that is not a repository (the driver's) reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}
