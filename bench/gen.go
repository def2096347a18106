package main

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"firmament/internal/cluster"
)

// Everything the service receives is generated here from the seed; the
// service itself never sees the seed. Streams are split by purpose so that
// adding a driver or a second of run time does not reshuffle the others.
const (
	streamDriver   = 1 // + driver index
	streamSchedule = 1000
	streamChurn    = 2000
	streamFiles    = 3000
	streamPrefill  = 4000
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// A jobStream is one closed-loop driver's job sizes: uniform in the spec's
// range, or drawn from the spec's few recurring shapes.
type jobStream struct {
	sp  *spec
	rng *rand.Rand
}

func newJobStream(sp *spec, seed int64, driver int) *jobStream {
	return &jobStream{sp: sp, rng: newRand(seed, streamDriver+driver)}
}

// next returns the size of the next job for the given in-flight slot.
func (s *jobStream) next(slot int) int {
	if len(s.sp.shapes) > 0 {
		// A seeded draw, not a rotation: a fixed order lets the drivers of
		// this otherwise deterministic closed loop fall into step with each
		// other, and a run then measures whichever rhythm it fell into.
		return s.sp.shapes[s.rng.Intn(len(s.sp.shapes))]
	}
	return s.sp.sizeLo + s.rng.Intn(s.sp.sizeHi-s.sp.sizeLo+1)
}

// An arrival is one open-loop event: a job due at an offset from the start
// of the run, or a machine going away or coming back.
type arrival struct {
	due time.Duration

	// job (specs != nil)
	class    cluster.JobClass
	priority int
	specs    []cluster.TaskSpec

	// machine op (specs == nil)
	machine cluster.MachineID
	restore bool
}

// inputFile is one seeded file of the block store; tasks of the Quincy
// workload read one each.
type inputFile struct {
	id   int64
	size int64
}

// schedule generates the open-loop arrivals for [0, total), in due order.
func schedule(sp *spec, seed int64, total time.Duration, files []inputFile) []arrival {
	o := sp.open
	rng := newRand(seed, streamSchedule)
	var out []arrival
	secs := int((total + time.Second - 1) / time.Second)
	ph, left := 0, o.phases[0].seconds
	for s := 0; s < secs; s++ {
		n := o.phases[ph].jobsPerSec
		offs := make([]time.Duration, n)
		for i := range offs {
			offs[i] = time.Duration(rng.Int63n(int64(time.Second)))
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		// Sizes and classes are stratified: each second's jobs span the
		// size range evenly and hold each class in its exact share, in a
		// seeded order. A second of one seed therefore offers the same
		// tasks, and the same long-running share of them, as any other's.
		order := rng.Perm(n)
		classAt := rng.Perm(n)
		for j, off := range offs {
			cm, upTo := o.classes[len(o.classes)-1], 0.0
			for _, c := range o.classes {
				if upTo += c.share * float64(n); float64(classAt[j]) < upTo {
					cm = c
					break
				}
			}
			nt := o.tasksLo
			if n > 1 {
				nt += order[j] * (o.tasksHi - o.tasksLo) / (n - 1)
			}
			specs := make([]cluster.TaskSpec, nt)
			for i := range specs {
				specs[i] = cluster.TaskSpec{
					Duration:  cm.durLo + time.Duration(rng.Int63n(int64(cm.durHi-cm.durLo)+1)),
					InputFile: -1,
				}
				if o.inputs {
					f := files[rng.Intn(len(files))]
					specs[i].InputFile, specs[i].InputSize = f.id, f.size
				}
			}
			out = append(out, arrival{
				due: time.Duration(s)*time.Second + off, class: cm.class, priority: cm.priority, specs: specs,
			})
		}
		if left--; left == 0 {
			ph = (ph + 1) % len(o.phases)
			left = o.phases[ph].seconds
		}
	}
	if o.churnEvery > 0 {
		out = append(out, churn(sp, seed, total)...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	}
	return out
}

// churn removes a seeded healthy machine every churnEvery and restores it
// churnDown later; every removal inside [0, total) gets its restore, so the
// cluster ends the run whole.
func churn(sp *spec, seed int64, total time.Duration) []arrival {
	o := sp.open
	rng := newRand(seed, streamChurn)
	n := sp.topo.Racks * sp.topo.MachinesPerRack
	downUntil := make(map[cluster.MachineID]time.Duration)
	var out []arrival
	for t := o.churnEvery; t < total; t += o.churnEvery {
		m := cluster.MachineID(rng.Intn(n))
		for downUntil[m] > t {
			m = cluster.MachineID(rng.Intn(n))
		}
		downUntil[m] = t + o.churnDown
		out = append(out,
			arrival{due: t, machine: m},
			arrival{due: t + o.churnDown, machine: m, restore: true})
	}
	return out
}

// opDigest hashes the first n ops the workload would issue for a seed:
// the bench test uses it to show that a seed fixes the op sequence.
func opDigest(sp *spec, seed int64, n int) uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	if sp.closed() {
		for d := 0; d < 4; d++ {
			js := newJobStream(sp, seed, d)
			for i := 0; i < n; i++ {
				put(int64(js.next(i % sp.inFlight())))
			}
		}
	}
	if sp.open == nil {
		return h.Sum64()
	}
	files := storeFiles(16)
	for i, a := range schedule(sp, seed, 10*time.Second, files) {
		if i == n {
			break
		}
		put(int64(a.due), int64(a.class), int64(a.priority), int64(len(a.specs)), int64(a.machine))
		for _, s := range a.specs {
			put(int64(s.Duration), s.InputFile, s.InputSize)
		}
	}
	return h.Sum64()
}

// storeFiles draws n file sizes of 1-16 blocks (256 MiB each). With at most
// 16 blocks, a machine holding one replica holds at least 1/16 of the file,
// and the smaller files clear Quincy's 14 % preference threshold, so tasks
// get a mix of machine, rack and cluster-aggregator arcs. The files, like
// the machines, are the cluster: they are the same for every seed, and the
// seed only decides which of them each task reads.
func storeFiles(n int) []inputFile {
	rng := newRand(0, streamFiles)
	files := make([]inputFile, n)
	for i := range files {
		files[i] = inputFile{id: int64(i), size: int64(1+rng.Intn(16)) << 28}
	}
	return files
}

// prefillSpecs are the tasks that occupy sp.prefill of the slots before the
// load starts and never finish. They go in as one job, so that one round
// places them whatever the timing, and set-up takes the same rounds every
// time; and they are the same for every seed: they are set-up, not load.
func prefillSpecs(sp *spec, files []inputFile) []cluster.TaskSpec {
	t := sp.topo
	rng := newRand(0, streamPrefill)
	specs := make([]cluster.TaskSpec, int(sp.prefill*float64(t.Racks*t.MachinesPerRack*t.SlotsPerMachine)))
	for i := range specs {
		specs[i] = cluster.TaskSpec{Duration: 24 * time.Hour, InputFile: -1}
		if len(files) > 0 {
			f := files[rng.Intn(len(files))]
			specs[i].InputFile, specs[i].InputSize = f.id, f.size
		}
	}
	return specs
}
