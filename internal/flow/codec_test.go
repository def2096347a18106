package flow

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"firmament/internal/wal"
)

// churnGraph builds a graph with live and dead slots, flow, and potentials.
func churnGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(0, 0)
	var nodes []NodeID
	var arcs []ArcID
	for i := 0; i < 40; i++ {
		nodes = append(nodes, g.AddNode(int64(rng.Intn(5)-2), NodeKind(rng.Intn(6))))
	}
	for i := 0; i < 120; i++ {
		t := nodes[rng.Intn(len(nodes))]
		h := nodes[rng.Intn(len(nodes))]
		if t == h || !g.NodeInUse(t) || !g.NodeInUse(h) {
			continue
		}
		arcs = append(arcs, g.AddArc(t, h, int64(1+rng.Intn(10)), int64(rng.Intn(100)-50)))
	}
	// Push some flow and set potentials.
	for _, a := range arcs {
		if g.ArcInUse(a) && g.Resid(a) > 0 && rng.Intn(2) == 0 {
			g.Push(a, 1+rng.Int63n(g.Resid(a)))
		}
	}
	for _, n := range nodes {
		if g.NodeInUse(n) {
			g.SetPotential(n, int64(rng.Intn(1000)-500))
		}
	}
	// Remove a slice of arcs and nodes to populate the free lists.
	for i := 0; i < 15; i++ {
		a := arcs[rng.Intn(len(arcs))]
		if g.ArcInUse(a) {
			g.RemoveArc(a)
		}
	}
	for i := 0; i < 8; i++ {
		n := nodes[rng.Intn(len(nodes))]
		if g.NodeInUse(n) {
			g.RemoveNode(n)
		}
	}
	return g
}

func TestGraphSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := churnGraph(seed)
		var e wal.Enc
		g.EncodeSnapshot(&e)
		g2, err := DecodeSnapshot(wal.NewDec(e.B))
		if err != nil {
			t.Fatalf("seed %d: DecodeSnapshot: %v", seed, err)
		}
		if g.Fingerprint() != g2.Fingerprint() {
			t.Fatalf("seed %d: fingerprint mismatch", seed)
		}
		if g.NumNodes() != g2.NumNodes() || g.NumArcs() != g2.NumArcs() {
			t.Fatalf("seed %d: counts differ: %d/%d vs %d/%d",
				seed, g.NumNodes(), g.NumArcs(), g2.NumNodes(), g2.NumArcs())
		}
		// ID stability: the next allocations on both graphs must return
		// the same IDs (free lists restored in order).
		n1 := g.AddNode(1, KindTask)
		n2 := g2.AddNode(1, KindTask)
		if n1 != n2 {
			t.Fatalf("seed %d: next node ID diverged: %d vs %d", seed, n1, n2)
		}
		var tail NodeID = -1
		g.Nodes(func(n NodeID) {
			if tail == -1 && n != n1 {
				tail = n
			}
		})
		a1 := g.AddArc(tail, n1, 3, 7)
		a2 := g2.AddArc(tail, n2, 3, 7)
		if a1 != a2 {
			t.Fatalf("seed %d: next arc ID diverged: %d vs %d", seed, a1, a2)
		}
		if g.Fingerprint() != g2.Fingerprint() {
			t.Fatalf("seed %d: fingerprint diverged after identical mutation", seed)
		}
		// The decoded rows, laid out from the snapshot's arc chains, must
		// list the same arcs in the same order as the live graph's.
		rows1 := g.Adjacency()
		rows2 := g2.Adjacency()
		g.Nodes(func(n NodeID) {
			r1 := rows1.Out(n)
			r2 := rows2.Out(n)
			if len(r1) != len(r2) {
				t.Fatalf("seed %d: node %d row length %d vs %d", seed, n, len(r1), len(r2))
			}
			for i := range r1 {
				if r1[i] != r2[i] {
					t.Fatalf("seed %d: node %d row[%d] = %d vs %d", seed, n, i, r1[i], r2[i])
				}
			}
		})
	}
}

func TestGraphSnapshotRejectsGarbage(t *testing.T) {
	g := churnGraph(3)
	var e wal.Enc
	g.EncodeSnapshot(&e)
	// Truncated input.
	if _, err := DecodeSnapshot(wal.NewDec(e.B[:len(e.B)/2])); err == nil {
		t.Fatal("truncated snapshot decoded")
	}
	// Wrong version.
	bad := append([]byte(nil), e.B...)
	bad[0] = 0xfe
	if _, err := DecodeSnapshot(wal.NewDec(bad)); err == nil {
		t.Fatal("bad version decoded")
	}

	// Broken arc chains. Node a's chain is ac -> ab; each case re-points
	// ab's successor link and must fail to decode rather than build a row
	// that loops or lists an arc that is not a's.
	g = NewGraph(0, 0)
	a := g.AddNode(1, KindTask)
	b := g.AddNode(0, KindMachine)
	c := g.AddNode(-1, KindSink)
	ab := g.AddArc(a, b, 1, 1)
	bc := g.AddArc(b, c, 1, 1)
	ac := g.AddArc(a, c, 1, 1)
	dead := g.AddArc(b, c, 1, 1)
	g.RemoveArc(dead)
	var enc wal.Enc
	g.EncodeSnapshot(&enc)
	if _, err := DecodeSnapshot(wal.NewDec(enc.B)); err != nil {
		t.Fatalf("unpatched snapshot: %v", err)
	}
	// Layout: version, node count, 26-byte node records, arc count, then
	// 41-byte arc records whose second field is the successor link.
	nextAt := func(arc ArcID) int { return 4 + 4 + 26*g.NodeIDBound() + 4 + 41*int(arc) + 8 }
	for _, tc := range []struct {
		name string
		to   ArcID
	}{
		{"cyclic chain", ac},
		{"chain through another node's arc", bc},
		{"chain through a dead arc", dead},
	} {
		bad := append([]byte(nil), enc.B...)
		binary.LittleEndian.PutUint64(bad[nextAt(ab):], uint64(int64(tc.to)))
		if _, err := DecodeSnapshot(wal.NewDec(bad)); err == nil {
			t.Errorf("%s decoded", tc.name)
		}
	}
}
