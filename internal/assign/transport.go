package assign

import (
	"fmt"

	"streambalance/internal/flow"
	"streambalance/internal/geo"
	"streambalance/internal/obs"
)

// Telemetry handles shared with internal/flow: the transportation kernel
// is the weighted assignment's min-cost-flow solver, so it publishes
// through the same solve, pivot (one per augmentation) and latency
// metrics as flow.Solver.
var (
	mFlowSolves  = obs.C("flow_solves_total")
	mFlowPivots  = obs.C("flow_pivots_total")
	mFlowSolveNS = obs.H("flow_solve_ns")
)

// transport solves the fractional capacitated assignment — a
// transportation problem with n supplies w_i, k sinks of capacity t and
// costs c_ij — by successive shortest paths on the k-node center graph
// instead of the (n+k+2)-node bipartite network (DESIGN.md §7).
//
// Points are routed one at a time in index order. The flow x of the
// points already routed is optimal for their supplies, so its residual
// network has no negative cycle, and each shortest augmenting path from
// the next point keeps it optimal. A residual path leaves the point on
// one of its k arcs and may then reroute earlier points: moving flow of
// point p from center j to center l costs c_pl − c_pj and is limited by
// x_pj. Only the cheapest such p matters for a path, so the center
// graph has one arc per ordered pair (j, l), and its cost is the top of
// a min-heap of the points with flow on j keyed by c_pl − c_pj. Keys are
// static; a point leaves the heaps lazily once its flow on j drops to
// zero. Dijkstra over the k centers with Johnson potentials then costs
// O(k²) per augmentation, plus O(k log n) for the heap entries the
// augmentation creates.
//
// A transport is a workspace: its flows, loads, potentials and heaps are
// reused across the solves of one owner. It must not be shared between
// goroutines.
type transport struct {
	k    int
	x    []float64 // n×k flows, row-major like the cost block
	load []float64 // flow into each center
	pot  []float64 // center potentials: shortest distances of the last search
	dist []float64 // reduced labels of the current search
	prev []int     // predecessor center on the shortest path; -1 = the source point
	via  []int     // point rerouted on the arc prev → center
	done []bool
	arcs []pairHeap // k×k, [j*k+l] holds the points with flow on j
}

// pairItem is a point p with flow on center j, keyed by the cost
// c_pl − c_pj of moving its flow to center l.
type pairItem struct {
	key float64
	p   int
}

func (a pairItem) less(b pairItem) bool {
	return a.key < b.key || (a.key == b.key && a.p < b.p)
}

// pairHeap is a binary min-heap on (key, point).
type pairHeap []pairItem

func (h *pairHeap) push(it pairItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *pairHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].less(q[c]) {
			c = r
		}
		if !q[c].less(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
}

// reset sizes the workspace for an n×k instance and clears every flow,
// load, potential and heap, retaining the backing storage.
func (tr *transport) reset(n, k int) {
	tr.k = k
	tr.x = grow(tr.x, n*k)
	tr.load = grow(tr.load, k)
	tr.pot = grow(tr.pot, k)
	tr.dist = grow(tr.dist, k)
	if cap(tr.prev) < k {
		tr.prev = make([]int, k)
		tr.via = make([]int, k)
		tr.done = make([]bool, k)
	}
	tr.prev, tr.via, tr.done = tr.prev[:k], tr.via[:k], tr.done[:k]
	if cap(tr.arcs) < k*k {
		tr.arcs = append(tr.arcs[:cap(tr.arcs)], make([]pairHeap, k*k-cap(tr.arcs))...)
	}
	tr.arcs = tr.arcs[:k*k]
	for i := range tr.arcs {
		tr.arcs[i] = tr.arcs[i][:0]
	}
}

// grow returns s resized to n zeroed entries, reusing its storage.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// solve routes every point's weight at minimum total cost under
// per-center capacity t to k centers, over the row-major n×k cost block
// c. It returns the cost Σ x_ij·c_ij summed in index order and the
// weight routed, which falls short of Σw when the capacities cannot hold
// it. The flows stay in tr.x until the next solve, with flows of at most
// flow.Eps reported as 0.
func (tr *transport) solve(ws []geo.Weighted, c []float64, k int, t float64) (cost, routed float64) {
	t0 := obs.NowNano()
	tr.reset(len(ws), k)
	var pivots int64
points:
	for i, w := range ws {
		if w.W < 0 {
			panic(fmt.Sprintf("assign: negative weight %g at point %d", w.W, i))
		}
		row := c[i*k : (i+1)*k]
		for rem := w.W; rem > 0; {
			end := tr.shortestPath(row, t)
			if end < 0 {
				break points // every center is full: the rest cannot be routed
			}
			// Bottleneck: the point's remaining weight, the end center's
			// spare capacity and the flow of every rerouted point.
			delta := rem
			if s := t - tr.load[end]; s < delta {
				delta = s
			}
			v := end
			for ; tr.prev[v] >= 0; v = tr.prev[v] {
				if f := tr.x[tr.via[v]*k+tr.prev[v]]; f < delta {
					delta = f
				}
			}
			for v = end; tr.prev[v] >= 0; v = tr.prev[v] {
				p := tr.via[v]
				tr.x[p*k+tr.prev[v]] -= delta
				tr.add(p, v, delta, c)
			}
			tr.add(i, v, delta, c)
			tr.load[end] += delta
			rem -= delta
			routed += delta
			pivots++
		}
	}
	for a, f := range tr.x {
		cost += f * c[a]
		if f <= flow.Eps {
			tr.x[a] = 0 // report rounding dust as no flow
		}
	}
	mFlowSolves.Inc()
	mFlowPivots.Add(pivots)
	mFlowSolveNS.ObserveSince(t0)
	return cost, routed
}

// shortestPath runs Dijkstra over the center graph from the point whose
// cost row is row, on costs reduced by the center potentials, and
// returns the center with spare capacity at the least true distance (-1
// if every center is full). It leaves the path in prev/via and replaces
// the potentials by the true distances, which keeps every reduced arc
// cost non-negative after the augmentation along that path.
func (tr *transport) shortestPath(row []float64, t float64) int {
	k := tr.k
	dist, pot, prev, done := tr.dist, tr.pot, tr.prev, tr.done
	for j := range dist {
		dist[j] = row[j] - pot[j]
		prev[j] = -1
		done[j] = false
	}
	for range k {
		u := -1
		for j, d := range dist {
			if !done[j] && (u < 0 || d < dist[u]) {
				u = j
			}
		}
		done[u] = true
		for l := range k {
			if done[l] {
				continue
			}
			p, key, ok := tr.cheapest(u, l)
			if !ok {
				continue
			}
			if nd := dist[u] + key + pot[u] - pot[l]; nd < dist[l] {
				dist[l] = nd
				prev[l] = u
				tr.via[l] = p
			}
		}
	}
	end := -1
	for j := range dist {
		pot[j] += dist[j]
		if t-tr.load[j] > flow.Eps && (end < 0 || pot[j] < pot[end]) {
			end = j
		}
	}
	return end
}

// cheapest returns the point whose flow on center j moves to center l at
// the least cost, discarding heap entries whose flow has since gone.
func (tr *transport) cheapest(j, l int) (p int, key float64, ok bool) {
	h := &tr.arcs[j*tr.k+l]
	for len(*h) > 0 {
		top := (*h)[0]
		if tr.x[top.p*tr.k+j] > flow.Eps {
			return top.p, top.key, true
		}
		h.pop()
	}
	return 0, 0, false
}

// add raises point p's flow on center j by delta; a point whose flow on
// j becomes positive joins the heaps of every arc leaving j.
func (tr *transport) add(p, j int, delta float64, c []float64) {
	k := tr.k
	old := tr.x[p*k+j]
	tr.x[p*k+j] = old + delta
	if old > flow.Eps || old+delta <= flow.Eps {
		return
	}
	row := c[p*k : (p+1)*k]
	for l := range k {
		if l != j {
			tr.arcs[j*k+l].push(pairItem{key: row[l] - row[j], p: p})
		}
	}
}
