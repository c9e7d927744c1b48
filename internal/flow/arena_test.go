package flow

import (
	"strings"
	"testing"
)

// buildTransport wires a tiny source→points→centers→sink network onto g
// (which may be a reused arena) and returns the sink arc ids.
func buildTransport(g *Graph, costs [][]float64, t float64) (src, sink int, sinkIDs []int) {
	n, k := len(costs), len(costs[0])
	g.Reset(n + k + 2)
	src, sink = 0, n+k+1
	for i := 0; i < n; i++ {
		g.AddEdge(src, 1+i, 1, 0)
		for j := 0; j < k; j++ {
			g.AddEdge(1+i, n+1+j, 1, costs[i][j])
		}
	}
	for j := 0; j < k; j++ {
		sinkIDs = append(sinkIDs, g.AddEdge(n+1+j, sink, t, 0))
	}
	return src, sink, sinkIDs
}

// TestAssignArenaResetClearsState exercises the reuse hazards of the
// arena: after solving on a graph, Reset + rebuild followed by a solve
// with the same (also reused) Solver must be bit-identical to a fresh
// graph and a fresh workspace — i.e. Reset discards old arcs and flows,
// MinCostFlow re-zeroes the potentials it retained from the previous
// solve, and the Dijkstra heap backing array is emptied between solves.
func TestAssignArenaResetClearsState(t *testing.T) {
	a := [][]float64{{1, 9}, {9, 1}, {4, 5}}
	b := [][]float64{{7, 2, 3}, {1, 8, 2}, {3, 3, 0}, {5, 1, 6}}

	// Dirty the arena and the workspace on instance a.
	g := NewGraph(0)
	var s Solver
	src, sink, _ := buildTransport(g, a, 2)
	s.MinCostFlow(g, src, sink, 3)
	if len(s.q) != 0 {
		t.Fatalf("heap backing array not emptied after solve: len %d", len(s.q))
	}
	dirtyPot := false
	for _, p := range s.pot {
		if p != 0 {
			dirtyPot = true
		}
	}
	if !dirtyPot {
		t.Fatal("test vacuous: first solve left all potentials zero")
	}

	// Rebuild instance b on the dirty arena; solve with the dirty Solver.
	src, sink, _ = buildTransport(g, b, 2)
	if g.Arcs() != 4+4*3+3 {
		t.Fatalf("Reset retained stale arcs: %d", g.Arcs())
	}
	for id := 0; id < g.Arcs(); id++ {
		if g.Flow(id) != 0 {
			t.Fatalf("Reset retained stale flow on arc %d: %g", id, g.Flow(id))
		}
	}
	gotF, gotC := s.MinCostFlow(g, src, sink, 4)

	// Reference: everything fresh.
	fg := NewGraph(0)
	fsrc, fsink, _ := buildTransport(fg, b, 2)
	var fs Solver
	wantF, wantC := fs.MinCostFlow(fg, fsrc, fsink, 4)

	if gotF != wantF || gotC != wantC {
		t.Fatalf("reused arena+solver: flow/cost (%v, %v) != fresh (%v, %v)", gotF, gotC, wantF, wantC)
	}
	got, want := g.FlowsByID(), fg.FlowsByID()
	for id := range want {
		if got[id] != want[id] {
			t.Fatalf("reused arena: flow on arc %d is %v, fresh %v", id, got[id], want[id])
		}
	}
}

// TestAssignArenaRetainsStorage pins the point of the arena: a Reset to
// the same shape must not allocate new adjacency slabs.
func TestAssignArenaRetainsStorage(t *testing.T) {
	costs := [][]float64{{1, 2}, {3, 4}}
	g := NewGraph(0)
	buildTransport(g, costs, 1)
	p0 := &g.adj[0][:1][0]
	buildTransport(g, costs, 1)
	if p0 != &g.adj[0][:1][0] {
		t.Fatal("Reset to the same shape reallocated adjacency storage")
	}
}

// TestAssignNegativeCostArcNamed checks the reuse-hazard panics name the
// offending arc, on both the AddEdge and the SetCost path.
func TestAssignNegativeCostArcNamed(t *testing.T) {
	g := NewGraph(3)
	id := g.AddEdge(0, 1, 1, 5)

	check := func(what string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", what)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "0→1") {
				t.Fatalf("%s: panic does not name arc 0→1: %v", what, r)
			}
		}()
		f()
	}
	check("AddEdge negative cost", func() { g.AddEdge(0, 1, 1, -2) })
	check("SetCost negative cost", func() { g.SetCost(id, -1) })
	check("AddEdge negative capacity", func() { g.AddEdge(0, 1, -1, 0) })
	check("SetCap negative capacity", func() { g.SetCap(id, -3) })
}
