// Package flow implements min-cost max-flow via successive shortest
// paths with Johnson potentials (Dijkstra augmentation). It is the
// optimization substrate behind the integral capacitated assignments
// (Section 3.3 uses minimum-cost flow to canonicalize integral
// assignments before the half-space switching argument) and the
// bottleneck assignment; the weighted fractional assignment runs the
// k-sink transportation kernel in internal/assign instead.
//
// Capacities and costs are float64. On transportation-shaped networks —
// source → points → centers → sink — an augmentation need not saturate a
// source or sink arc: a path that reroutes earlier points can be cut
// short by the flow on one of their point→center arcs. The number of
// augmentations is therefore not bounded by #points + #centers: on 40
// solves over weighted coresets of the distributed protocol (k = 4,
// k-means++ centers) every one exceeded it, by up to 1.5×. With unit
// capacities every augmentation moves one whole unit, so the integral
// solves take exactly #points.
//
// The many-solves-one-dataset pattern of the evaluation suite is served
// by two reuse mechanisms (DESIGN.md §7):
//
//   - a graph arena: Reset reshapes a Graph in place retaining all arc
//     storage, and SetCost/SetCap rewrite individual arcs, so the
//     bipartite skeleton is built once per point set and only costs
//     (new center set) or sink capacities (new capacity) change between
//     solves;
//   - a Solver workspace holding the potentials, Dijkstra arrays and the
//     heap backing array across solves.
package flow

import (
	"fmt"
	"math"

	"streambalance/internal/obs"
)

// Telemetry handles (internal/obs). Pivot counts are accumulated
// locally inside each solve and published with one atomic Add at the
// end, so the augmentation loop itself stays untouched.
var (
	mFlowSolves  = obs.C("flow_solves_total")
	mFlowPivots  = obs.C("flow_pivots_total")
	mFlowSolveNS = obs.H("flow_solve_ns")
)

// Eps is the residual-capacity tolerance: arcs with residual below Eps are
// treated as saturated, absorbing float64 rounding from repeated
// augmentations.
const Eps = 1e-9

type edge struct {
	to   int
	rev  int // index of the reverse edge in adj[to]
	cap  float64
	cost float64
	flow float64
	id   int // external id; -1 for reverse edges
}

// arcLoc records where the forward half of an external edge lives, so
// Flow/SetCost/SetCap are O(1) instead of scanning the adjacency lists.
type arcLoc struct {
	from, idx int
}

// Graph is a directed flow network.
type Graph struct {
	n     int
	adj   [][]edge
	edges int      // number of external edges added
	loc   []arcLoc // loc[id] = position of edge id's forward half
}

// NewGraph creates a network with n nodes, numbered 0..n−1.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset reshapes g to n nodes with no arcs, retaining all backing
// storage (adjacency slabs, the id→location index) so a skeleton of the
// same shape can be rebuilt without allocation. All previously returned
// arc ids become invalid; flows, capacities and costs of the old arcs
// are discarded with them.
func (g *Graph) Reset(n int) {
	if n < 0 {
		panic("flow: negative node count")
	}
	if n <= cap(g.adj) {
		g.adj = g.adj[:cap(g.adj)]
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	if n <= cap(g.adj) {
		g.adj = g.adj[:n]
	} else {
		next := make([][]edge, n)
		copy(next, g.adj)
		g.adj = next
	}
	g.n = n
	g.edges = 0
	g.loc = g.loc[:0]
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Arcs returns the number of external arcs added since the last Reset.
func (g *Graph) Arcs() int { return g.edges }

// AddEdge adds a directed arc from→to with the given capacity and
// per-unit cost, returning its id for later Flow/SetCost/SetCap lookups.
// Costs must be ≥ 0 for the Dijkstra-based solver (all clustering costs
// are).
func (g *Graph) AddEdge(from, to int, capacity, cost float64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic("flow: node out of range")
	}
	if capacity < 0 {
		panic(fmt.Sprintf("flow: negative capacity %g on arc %d→%d", capacity, from, to))
	}
	if cost < 0 {
		panic(fmt.Sprintf("flow: negative cost %g on arc %d→%d (Dijkstra potentials require cost ≥ 0)", cost, from, to))
	}
	id := g.edges
	g.edges++
	g.adj[from] = append(g.adj[from], edge{to: to, rev: len(g.adj[to]), cap: capacity, cost: cost, id: id})
	g.adj[to] = append(g.adj[to], edge{to: from, rev: len(g.adj[from]) - 1, cap: 0, cost: -cost, id: -1})
	g.loc = append(g.loc, arcLoc{from: from, idx: len(g.adj[from]) - 1})
	return id
}

// arc returns the forward half of the external edge with the given id.
func (g *Graph) arc(id int) *edge {
	if id < 0 || id >= len(g.loc) {
		panic("flow: unknown edge id")
	}
	l := g.loc[id]
	return &g.adj[l.from][l.idx]
}

// SetCost rewrites the per-unit cost of an existing arc (both residual
// directions), leaving capacity and flow untouched. Costs must stay ≥ 0.
func (g *Graph) SetCost(id int, cost float64) {
	e := g.arc(id)
	if cost < 0 {
		panic(fmt.Sprintf("flow: negative cost %g on arc %d→%d (Dijkstra potentials require cost ≥ 0)",
			cost, g.loc[id].from, e.to))
	}
	e.cost = cost
	g.adj[e.to][e.rev].cost = -cost
}

// SetCap rewrites the capacity of an existing arc. Lowering a capacity
// below the arc's current flow leaves an over-full arc; callers that
// shrink capacities must ClearFlows and re-solve.
func (g *Graph) SetCap(id int, capacity float64) {
	if capacity < 0 {
		e := g.arc(id)
		panic(fmt.Sprintf("flow: negative capacity %g on arc %d→%d", capacity, g.loc[id].from, e.to))
	}
	g.arc(id).cap = capacity
}

// ClearFlows zeroes the flow on every arc (forward and reverse halves),
// returning the graph to its unsolved state without touching the
// skeleton, capacities or costs.
func (g *Graph) ClearFlows() {
	for u := range g.adj {
		for i := range g.adj[u] {
			g.adj[u][i].flow = 0
		}
	}
}

// Flow returns the flow currently routed on the external edge with the
// given id (as returned by AddEdge).
func (g *Graph) Flow(id int) float64 {
	return g.arc(id).flow
}

// FlowsByID returns a slice indexed by edge id holding each edge's flow.
func (g *Graph) FlowsByID() []float64 {
	out := make([]float64, g.edges)
	for id := range g.loc {
		out[id] = g.adj[g.loc[id].from][g.loc[id].idx].flow
	}
	return out
}

// pqItem is a Dijkstra priority-queue entry.
type pqItem struct {
	node int
	dist float64
}

// pqueue is a typed binary min-heap on dist. It replaces the former
// container/heap queue: no interface{} boxing on push/pop, and the
// backing array lives in the Solver workspace and is reused across all
// Dijkstra rounds of all solves — the queue is the hot allocation site
// of the solver, exercised once per (point, center) arc per
// augmentation.
type pqueue []pqItem

func (q *pqueue) push(it pqItem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*q = h
}

func (q *pqueue) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].dist < h[c].dist {
			c = r
		}
		if h[i].dist <= h[c].dist {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// Solver is a reusable min-cost-flow workspace: Johnson potentials,
// Dijkstra arrays and the heap backing array survive across solves, so
// the many-solves-one-graph pattern allocates nothing after the first
// call. A zero Solver is ready to use. A Solver must not be shared
// between goroutines.
type Solver struct {
	pot, dist          []float64
	visited            []bool
	prevNode, prevEdge []int
	q                  pqueue
}

// grow (re)sizes the workspace for an n-node graph, reusing backing
// arrays when they are large enough.
func (s *Solver) grow(n int) {
	if cap(s.pot) < n {
		s.pot = make([]float64, n)
		s.dist = make([]float64, n)
		s.visited = make([]bool, n)
		s.prevNode = make([]int, n)
		s.prevEdge = make([]int, n)
	}
	s.pot = s.pot[:n]
	s.dist = s.dist[:n]
	s.visited = s.visited[:n]
	s.prevNode = s.prevNode[:n]
	s.prevEdge = s.prevEdge[:n]
	if s.q == nil {
		s.q = make(pqueue, 0, n)
	}
}

// MinCostFlow pushes up to maxFlow units from src to t along successive
// shortest paths, returning the total flow routed and its total cost
// (accumulated augmentation by augmentation, exactly like the historical
// per-call implementation — a cold arena solve is therefore bit-identical
// to a fresh-graph solve). Pass math.Inf(1) as maxFlow for a max-flow
// computation. Potentials are zeroed at entry.
func (s *Solver) MinCostFlow(g *Graph, src, t int, maxFlow float64) (flow, cost float64) {
	if src == t {
		return 0, 0
	}
	t0 := obs.NowNano()
	s.grow(g.n)
	pot, dist, visited := s.pot, s.dist, s.visited
	prevNode, prevEdge := s.prevNode, s.prevEdge
	for i := range pot {
		pot[i] = 0 // costs are ≥ 0 initially
	}
	q := s.q

	var pivots int64
	for flow < maxFlow-Eps || maxFlow == math.Inf(1) {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			visited[i] = false
		}
		dist[src] = 0
		q = append(q[:0], pqItem{node: src, dist: 0})
		for len(q) > 0 {
			it := q.pop()
			u := it.node
			if visited[u] {
				continue
			}
			visited[u] = true
			for i := range g.adj[u] {
				e := &g.adj[u][i]
				if e.cap-e.flow <= Eps || visited[e.to] {
					continue
				}
				nd := dist[u] + e.cost + pot[u] - pot[e.to]
				if nd < dist[e.to]-1e-15 {
					dist[e.to] = nd
					prevNode[e.to] = u
					prevEdge[e.to] = i
					q.push(pqItem{node: e.to, dist: nd})
				}
			}
		}
		if !visited[t] {
			break // no augmenting path
		}
		for i := range pot {
			if visited[i] {
				pot[i] += dist[i]
			}
		}
		// Bottleneck along the path.
		push := maxFlow - flow
		if maxFlow == math.Inf(1) {
			push = math.Inf(1)
		}
		for v := t; v != src; v = prevNode[v] {
			e := &g.adj[prevNode[v]][prevEdge[v]]
			if r := e.cap - e.flow; r < push {
				push = r
			}
		}
		if push <= Eps {
			break
		}
		for v := t; v != src; v = prevNode[v] {
			e := &g.adj[prevNode[v]][prevEdge[v]]
			e.flow += push
			rev := &g.adj[v][e.rev]
			rev.flow -= push
			cost += push * e.cost
		}
		flow += push
		pivots++
	}
	s.q = q[:0]
	mFlowSolves.Inc()
	mFlowPivots.Add(pivots)
	mFlowSolveNS.ObserveSince(t0)
	return flow, cost
}

// MinCostFlow pushes up to maxFlow units from s to t along successive
// shortest paths, returning the total flow routed and its total cost.
// Pass math.Inf(1) as maxFlow for a max-flow computation. A fresh
// workspace is allocated per call; reuse a Solver to amortize it.
func (g *Graph) MinCostFlow(s, t int, maxFlow float64) (flow, cost float64) {
	var sv Solver
	return sv.MinCostFlow(g, s, t, maxFlow)
}
