// Package netsim is the datacenter-network substrate for the local-cluster
// experiments (paper §7.5): a fluid-flow model of a full-bisection-bandwidth
// Ethernet fabric in which only machine NICs constrain throughput. Flows
// between machines share NIC capacity max-min fairly within a service
// class, and higher service classes take strict priority (the paper's
// background iperf batch traffic runs in a higher-priority network service
// class, citing QJump [20]).
//
// The model substitutes for the paper's physical 40-machine, 10 Gbps
// testbed: placement quality interacts with network contention through the
// same mechanism — tasks placed on machines with loaded NICs transfer
// slowly — so scheduler orderings and tail behaviour are preserved even
// though absolute seconds differ.
package netsim

import (
	"fmt"
	"time"

	"firmament/internal/cluster"
)

// FlowID identifies an active flow.
type FlowID int64

// Class is a network service class. Lower values have strict priority.
type Class uint8

// Service classes.
const (
	ClassHigh   Class = iota // e.g. the paper's iperf batch jobs, service traffic
	ClassNormal              // short batch task input transfers
	numClasses
)

// Persistent marks a flow that never completes (background traffic).
const Persistent int64 = -1

// Flow is one active transfer.
type Flow struct {
	ID        FlowID
	Src, Dst  cluster.MachineID
	Class     Class
	RateLimit int64 // bytes/sec cap; 0 means unlimited (TCP-like)
	Remaining int64 // bytes left; Persistent for unbounded flows
	rate      int64 // current max-min allocation, bytes/sec
}

// Rate returns the flow's current allocation in bytes/sec.
func (f *Flow) Rate() int64 { return f.rate }

// Fabric is the set of NICs and active flows.
type Fabric struct {
	egressCap  []int64
	ingressCap []int64
	egressUse  []int64
	ingressUse []int64
	flows      map[FlowID]*Flow
	nextID     FlowID
	dirty      bool
}

// NewFabric builds a fabric with one full-duplex NIC per cluster machine.
func NewFabric(c *cluster.Cluster) *Fabric {
	f := &Fabric{flows: make(map[FlowID]*Flow)}
	c.Machines(func(m *cluster.Machine) {
		f.egressCap = append(f.egressCap, m.NICBps)
		f.ingressCap = append(f.ingressCap, m.NICBps)
	})
	f.egressUse = make([]int64, len(f.egressCap))
	f.ingressUse = make([]int64, len(f.ingressCap))
	return f
}

// StartFlow adds a flow of the given size (bytes, or Persistent) and
// returns its ID. A zero rateLimit means the flow takes whatever fair share
// it can get. Local flows (src == dst) are legal and complete instantly at
// the next completion query (no NIC traversal).
func (f *Fabric) StartFlow(src, dst cluster.MachineID, class Class, bytes, rateLimit int64) FlowID {
	id := f.nextID
	f.nextID++
	f.flows[id] = &Flow{
		ID: id, Src: src, Dst: dst, Class: class,
		RateLimit: rateLimit, Remaining: bytes,
	}
	f.dirty = true
	return id
}

// StopFlow removes a flow (completed or cancelled).
func (f *Fabric) StopFlow(id FlowID) {
	if _, ok := f.flows[id]; ok {
		delete(f.flows, id)
		f.dirty = true
	}
}

// Flow returns the flow with the given ID, or nil.
func (f *Fabric) Flow(id FlowID) *Flow { return f.flows[id] }

// Recompute runs the max-min fair allocation. It is called lazily by the
// accessors; explicit calls are only needed in tests.
func (f *Fabric) Recompute() {
	n := len(f.egressCap)
	egRem := make([]int64, n)
	inRem := make([]int64, n)
	copy(egRem, f.egressCap)
	copy(inRem, f.ingressCap)
	for i := range f.egressUse {
		f.egressUse[i] = 0
		f.ingressUse[i] = 0
	}
	for _, fl := range f.flows {
		fl.rate = 0
	}
	// Strict priority: allocate class by class against remaining capacity.
	for class := Class(0); class < numClasses; class++ {
		var active []*Flow
		for _, fl := range f.flows {
			if fl.Class != class || fl.Src == fl.Dst {
				continue
			}
			active = append(active, fl)
		}
		f.waterfill(active, egRem, inRem)
	}
	for _, fl := range f.flows {
		if fl.Src != fl.Dst {
			f.egressUse[fl.Src] += fl.rate
			f.ingressUse[fl.Dst] += fl.rate
		}
	}
	f.dirty = false
}

// waterfill performs progressive filling over the given flows, mutating the
// per-NIC remaining capacities.
func (f *Fabric) waterfill(active []*Flow, egRem, inRem []int64) {
	frozen := make([]bool, len(active))
	remaining := len(active)
	egCnt := make([]int64, len(egRem))
	inCnt := make([]int64, len(inRem))
	for iter := 0; remaining > 0 && iter <= 2*len(active)+4; iter++ {
		for i := range egCnt {
			egCnt[i], inCnt[i] = 0, 0
		}
		for i, fl := range active {
			if !frozen[i] {
				egCnt[fl.Src]++
				inCnt[fl.Dst]++
			}
		}
		// Water level increment: the smallest per-link fair share, capped
		// by the tightest rate limit among unfrozen flows.
		inc := int64(1) << 62
		for i := range egRem {
			if egCnt[i] > 0 {
				if s := egRem[i] / egCnt[i]; s < inc {
					inc = s
				}
			}
			if inCnt[i] > 0 {
				if s := inRem[i] / inCnt[i]; s < inc {
					inc = s
				}
			}
		}
		for i, fl := range active {
			if frozen[i] || fl.RateLimit <= 0 {
				continue
			}
			if room := fl.RateLimit - fl.rate; room < inc {
				inc = room
			}
		}
		if inc > 0 {
			for i, fl := range active {
				if frozen[i] {
					continue
				}
				fl.rate += inc
				egRem[fl.Src] -= inc
				inRem[fl.Dst] -= inc
			}
		}
		// Freeze flows pinned by a saturated NIC or their rate limit.
		for i, fl := range active {
			if frozen[i] {
				continue
			}
			limited := fl.RateLimit > 0 && fl.rate >= fl.RateLimit
			// A NIC is saturated when its leftover cannot give every
			// crossing flow at least one more byte/sec.
			egSat := egRem[fl.Src] < egCnt[fl.Src]
			inSat := inRem[fl.Dst] < inCnt[fl.Dst]
			if limited || egSat || inSat {
				frozen[i] = true
				remaining--
			}
		}
	}
}

// EgressUsage returns the allocated egress bandwidth on m (bytes/sec).
func (f *Fabric) EgressUsage(m cluster.MachineID) int64 {
	f.ensure()
	return f.egressUse[m]
}

// IngressUsage returns the allocated ingress bandwidth on m (bytes/sec).
func (f *Fabric) IngressUsage(m cluster.MachineID) int64 {
	f.ensure()
	return f.ingressUse[m]
}

// SpareIngress returns the unallocated ingress bandwidth on m, which the
// network-aware policy uses to decide where a task's input transfer fits
// (paper Fig. 6c: "arcs to machines with spare network bandwidth").
func (f *Fabric) SpareIngress(m cluster.MachineID) int64 {
	f.ensure()
	return f.ingressCap[m] - f.ingressUse[m]
}

// Rate returns the current rate of a flow in bytes/sec.
func (f *Fabric) Rate(id FlowID) int64 {
	f.ensure()
	if fl, ok := f.flows[id]; ok {
		return fl.rate
	}
	return 0
}

// Advance progresses all flows by dt at their current rates, decrementing
// Remaining. Completed flows stay registered (at Remaining == 0) until the
// caller stops them, so completion accounting stays explicit.
func (f *Fabric) Advance(dt time.Duration) {
	f.ensure()
	for _, fl := range f.flows {
		if fl.Remaining < 0 {
			continue
		}
		moved := bytesIn(fl.rate, dt)
		if fl.Src == fl.Dst {
			fl.Remaining = 0 // local read: no NIC, completes immediately
			continue
		}
		fl.Remaining -= moved
		if fl.Remaining < 0 {
			fl.Remaining = 0
		}
	}
}

// NextCompletion returns the finite-size flow that will finish first at
// current rates and the time until it does. ok is false when no finite flow
// is active or every finite flow is stalled at rate zero.
func (f *Fabric) NextCompletion() (FlowID, time.Duration, bool) {
	f.ensure()
	best := FlowID(-1)
	var bestDt time.Duration
	for id, fl := range f.flows {
		if fl.Remaining < 0 {
			continue
		}
		var dt time.Duration
		switch {
		case fl.Remaining == 0 || fl.Src == fl.Dst:
			dt = 0
		case fl.rate <= 0:
			continue // stalled
		default:
			// Integer ceiling so that advancing by dt is guaranteed to
			// drain the flow: floating-point truncation here would leave a
			// few bytes that a 1ns advance can never move at sub-GB/s
			// rates, stalling the simulation clock.
			whole := fl.Remaining / fl.rate
			rem := fl.Remaining % fl.rate
			ns := whole * int64(time.Second)
			if rem > 0 {
				ns += (rem*int64(time.Second) + fl.rate - 1) / fl.rate
			}
			dt = time.Duration(ns)
		}
		if best < 0 || dt < bestDt || (dt == bestDt && id < best) {
			best, bestDt = id, dt
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, bestDt, true
}

func (f *Fabric) ensure() {
	if f.dirty {
		f.Recompute()
	}
}

// bytesIn returns how many bytes flow at rate (bytes/sec) during dt,
// avoiding int64 overflow for large rate×dt products.
func bytesIn(rate int64, dt time.Duration) int64 {
	ns := int64(dt)
	whole := ns / int64(time.Second)
	frac := ns % int64(time.Second)
	return rate*whole + rate*frac/int64(time.Second)
}

// String summarizes the fabric for debugging.
func (f *Fabric) String() string {
	f.ensure()
	return fmt.Sprintf("netsim.Fabric{machines: %d, flows: %d}", len(f.egressCap), len(f.flows))
}
