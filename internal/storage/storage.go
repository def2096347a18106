// Package storage is the distributed-filesystem substrate for data
// locality: an HDFS-like block store that places a fixed number of replicas
// of each input block on distinct machines (and, where possible, distinct
// racks), and answers the locality queries the Quincy scheduling policy
// needs — what fraction of a file's blocks have a replica on a given
// machine or rack (paper §3.3, §7.2).
//
// The paper augments the Google trace with locality preferences computed
// this way; Figure 15 varies the preference threshold (fraction of local
// data required to earn a preference arc) between 14% and 2%.
package storage

import (
	"math/rand"
	"sort"

	"firmament/internal/cluster"
)

// FileID identifies a stored file.
type FileID = int64

// DefaultBlockSize is the HDFS-style 256 MiB block.
const DefaultBlockSize = 256 << 20

// DefaultReplication is the HDFS-style replica count.
const DefaultReplication = 3

// Locality is one (location, fraction-of-blocks) pair for a file, used to
// derive preference arcs.
type Locality struct {
	Machine  cluster.MachineID
	Rack     cluster.RackID
	Fraction float64 // fraction of the file's blocks with a replica here
}

// file records where a file's blocks live, aggregated per machine and rack.
type file struct {
	blocks       int
	machineCount map[cluster.MachineID]int
	rackCount    map[cluster.RackID]int

	// Every machine and rack holding a replica, by descending fraction (ties
	// by ID). Replica placement is fixed at AddFile, so the lists are built
	// once and a threshold query is a prefix of them.
	machinePrefs []Locality
	rackPrefs    []Locality
}

// Store is the block store.
type Store struct {
	blockSize   int64
	replication int
	rng         *rand.Rand
	machines    []cluster.MachineID
	rackOf      func(cluster.MachineID) cluster.RackID
	files       map[FileID]*file
	nextFile    FileID
}

// Config configures a Store.
type Config struct {
	BlockSize   int64 // defaults to DefaultBlockSize
	Replication int   // defaults to DefaultReplication
	Seed        int64
}

// NewStore builds a store over the machines of c.
func NewStore(c *cluster.Cluster, cfg Config) *Store {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	s := &Store{
		blockSize:   cfg.BlockSize,
		replication: cfg.Replication,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		rackOf:      c.RackOf,
		files:       make(map[FileID]*file),
	}
	c.Machines(func(m *cluster.Machine) {
		s.machines = append(s.machines, m.ID)
	})
	return s
}

// AddFile stores a file of the given size, placing replication replicas of
// each block on distinct machines (the first two on different racks when
// the cluster has more than one), and returns its ID.
func (s *Store) AddFile(size int64) FileID {
	blocks := int((size + s.blockSize - 1) / s.blockSize)
	if blocks == 0 {
		blocks = 1
	}
	f := &file{
		blocks:       blocks,
		machineCount: make(map[cluster.MachineID]int),
		rackCount:    make(map[cluster.RackID]int),
	}
	for b := 0; b < blocks; b++ {
		replicas := s.pickReplicas()
		seenRacks := make(map[cluster.RackID]bool, len(replicas))
		for _, m := range replicas {
			f.machineCount[m]++
			r := s.rackOf(m)
			if !seenRacks[r] {
				f.rackCount[r]++
				seenRacks[r] = true
			}
		}
	}
	for m, cnt := range f.machineCount {
		f.machinePrefs = append(f.machinePrefs, Locality{Machine: m, Rack: s.rackOf(m),
			Fraction: float64(cnt) / float64(blocks)})
	}
	for r, cnt := range f.rackCount {
		f.rackPrefs = append(f.rackPrefs, Locality{Machine: cluster.InvalidMachine, Rack: r,
			Fraction: float64(cnt) / float64(blocks)})
	}
	for _, prefs := range [][]Locality{f.machinePrefs, f.rackPrefs} {
		sort.Slice(prefs, func(i, j int) bool {
			if prefs[i].Fraction != prefs[j].Fraction {
				return prefs[i].Fraction > prefs[j].Fraction
			}
			if prefs[i].Machine != prefs[j].Machine {
				return prefs[i].Machine < prefs[j].Machine
			}
			return prefs[i].Rack < prefs[j].Rack
		})
	}
	id := s.nextFile
	s.nextFile++
	s.files[id] = f
	return id
}

// atLeast returns the prefix of prefs (sorted by descending fraction) whose
// fraction reaches threshold, capped so that an append cannot reach the
// shared tail.
func atLeast(prefs []Locality, threshold float64) []Locality {
	n := sort.Search(len(prefs), func(i int) bool { return prefs[i].Fraction < threshold })
	return prefs[:n:n]
}

// pickReplicas chooses replication distinct machines, biasing the second
// replica off the first one's rack, HDFS-style.
func (s *Store) pickReplicas() []cluster.MachineID {
	n := len(s.machines)
	k := s.replication
	if k > n {
		k = n
	}
	out := make([]cluster.MachineID, 0, k)
	used := make(map[cluster.MachineID]bool, k)
	first := s.machines[s.rng.Intn(n)]
	out = append(out, first)
	used[first] = true
	for len(out) < k {
		m := s.machines[s.rng.Intn(n)]
		if used[m] {
			continue
		}
		// Second replica prefers a different rack.
		if len(out) == 1 && s.rackOf(m) == s.rackOf(first) && s.rng.Intn(4) != 0 {
			continue
		}
		out = append(out, m)
		used[m] = true
	}
	return out
}

// Blocks returns the number of blocks in a file (zero for unknown files).
func (s *Store) Blocks(id FileID) int {
	if f, ok := s.files[id]; ok {
		return f.blocks
	}
	return 0
}

// MachineLocality returns the fraction of the file's blocks with a replica
// on machine m.
func (s *Store) MachineLocality(id FileID, m cluster.MachineID) float64 {
	f, ok := s.files[id]
	if !ok {
		return 0
	}
	return float64(f.machineCount[m]) / float64(f.blocks)
}

// RackLocality returns the fraction of the file's blocks with a replica in
// rack r.
func (s *Store) RackLocality(id FileID, r cluster.RackID) float64 {
	f, ok := s.files[id]
	if !ok {
		return 0
	}
	return float64(f.rackCount[r]) / float64(f.blocks)
}

// MachinePreferences returns machines holding at least threshold fraction
// of the file's blocks, sorted by descending fraction (ties by machine ID
// for determinism). The Quincy policy turns these into task→machine
// preference arcs. The result aliases the store's own list: callers may
// reslice it but must not write to it.
func (s *Store) MachinePreferences(id FileID, threshold float64) []Locality {
	f, ok := s.files[id]
	if !ok {
		return nil
	}
	return atLeast(f.machinePrefs, threshold)
}

// RackPreferences returns racks holding at least threshold fraction of the
// file's blocks, sorted by descending fraction (ties by rack ID), under the
// same aliasing rule as MachinePreferences.
func (s *Store) RackPreferences(id FileID, threshold float64) []Locality {
	f, ok := s.files[id]
	if !ok {
		return nil
	}
	return atLeast(f.rackPrefs, threshold)
}

// BestReplica returns the machine holding the largest fraction of the file
// preferring reader's own machine, then its rack; ties break on machine ID.
// The network testbed model uses it to choose which replica a task reads.
func (s *Store) BestReplica(id FileID, reader cluster.MachineID) (cluster.MachineID, bool) {
	f, ok := s.files[id]
	if !ok || len(f.machineCount) == 0 {
		return cluster.InvalidMachine, false
	}
	if f.machineCount[reader] > 0 {
		return reader, true
	}
	readerRack := s.rackOf(reader)
	best := cluster.InvalidMachine
	bestScore := -1.0
	for m, cnt := range f.machineCount {
		score := float64(cnt)
		if s.rackOf(m) == readerRack {
			score += float64(f.blocks) // rack-local beats any remote count
		}
		if score > bestScore || (score == bestScore && m < best) {
			best, bestScore = m, score
		}
	}
	return best, true
}

// RemoteFraction returns the fraction of the file's data a task on machine
// m must fetch over the network (1 - machine locality). Experiments use it
// to compute cross-rack traffic and the data locality statistic of paper
// Table 15b.
func (s *Store) RemoteFraction(id FileID, m cluster.MachineID) float64 {
	return 1 - s.MachineLocality(id, m)
}
