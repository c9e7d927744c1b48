// Package assign implements capacitated assignment of (weighted) points
// to centers: the cost functions cost^{(r)}_t of Section 2, optimal
// integral assignments via min-cost flow, optimal fractional assignments
// via a k-sink transportation kernel, the fractional-to-integral
// rounding of Section 3.3 (cycle elimination leaving at most k−1 split
// points) and the half-space structure of Definitions 2.2/3.7/3.10 with
// the curved ℓ_r hyperplanes of Section 1.2; the assignment transfer of
// Definition 3.11 is applied per part by coreset.BuildAssignmentRule.
// Integral unit-weight solves run on a Solver
// (BindPoints, SetCenters, Optimal).
package assign

import (
	"math"

	"streambalance/internal/flow"
	"streambalance/internal/geo"
)

// Result describes an assignment of points to centers.
type Result struct {
	Assign []int     // Assign[i] = index into Z of point i's center
	Cost   float64   // Σ w(p)·dist^r(p, Z[Assign[p]])
	Sizes  []float64 // total assigned weight per center (the size vector s(π))
}

// Infeasible is returned (with ok == false) when no assignment satisfies
// the capacity constraint, mirroring cost_t = ∞ in the paper.
var Infeasible = Result{Cost: math.Inf(1)}

// UnconstrainedCost computes cost^{(r)}(Q, Z, w) = Σ w(p)·dist^r(p, Z):
// every point served by its nearest center (capacity t = ∞).
func UnconstrainedCost(ws []geo.Weighted, Z []geo.Point, r float64) float64 {
	var c float64
	for _, w := range ws {
		d, _ := geo.DistToSet(w.P, Z)
		c += w.W * geo.PowR(d, r)
	}
	return c
}

// CostOfAssignment evaluates Σ w(p)·dist^r(p, Z[pi[p]]) for an explicit
// assignment pi. Entries with pi[i] < 0 are skipped.
func CostOfAssignment(ws []geo.Weighted, Z []geo.Point, pi []int, r float64) float64 {
	var c float64
	for i, w := range ws {
		if pi[i] < 0 {
			continue
		}
		c += w.W * geo.DistR(w.P, Z[pi[i]], r)
	}
	return c
}

// FractionalCost computes the optimal fractional capacitated assignment
// cost of weighted points (weights may be split across centers), i.e. the
// LP relaxation of cost^{(r)}_t(Q, Z, w) that Section 3.3 solves by
// minimum-cost flow — here by the k-sink transportation kernel. It
// returns the cost and the flow matrix x[i][j] = weight of point i
// served by center j. ok is false when t·k < Σw (infeasible).
func FractionalCost(ws []geo.Weighted, Z []geo.Point, t float64, r float64) (float64, [][]float64, bool) {
	if len(ws) == 0 {
		return 0, nil, true
	}
	s := NewSolver()
	s.Bind(ws, r)
	s.SetCenters(Z)
	cost, ok := s.Fractional(t)
	if !ok {
		return math.Inf(1), nil, false
	}
	k := len(Z)
	x := make([][]float64, len(ws))
	for i := range x {
		x[i] = s.tr.x[i*k : (i+1)*k : (i+1)*k]
	}
	return cost, x, true
}

// Weighted computes an integral capacitated assignment for weighted
// points following Section 3.3: solve the fractional problem by min-cost
// flow, eliminate cycles in the bipartite support graph (each elimination
// is cost-neutral because the fractional solution is optimal), leaving at
// most k−1 points with split weight, then assign each remaining split
// point wholly to its nearest center. The returned size vector therefore
// exceeds t by at most (k−1)·max w(p), exactly the slack the paper
// absorbs into the (1+η) capacity violation. Loops over many center sets
// should call Solver.Weighted instead, which reuses its buffers.
func Weighted(ws []geo.Weighted, Z []geo.Point, t float64, r float64) (Result, bool) {
	s := NewSolver()
	s.Bind(ws, r)
	s.SetCenters(Z)
	return s.Weighted(t)
}

// eliminateCycles removes cycles from the bipartite point–center support
// graph of a fractional assignment — x and c are its row-major n×k flow
// and cost blocks — by shifting flow around each cycle in its
// cost-nonincreasing direction until the support is a forest (Section
// 3.3 steps 1–4). x is modified in place.
func eliminateCycles(x, c []float64, n, k int) {
	if n == 0 {
		return
	}
	for {
		cyc := findSupportCycle(x, n, k)
		if cyc == nil {
			return
		}
		// cyc alternates point,center,point,center,... as (pt, ct) edge
		// pairs: edges are (p_0,c_0),(p_1,c_0),(p_1,c_1),...,(p_0,c_{m-1}).
		// We receive it as a list of (point, center) edges with alternating
		// +/− orientation.
		delta := 0.0
		min := math.Inf(1)
		for idx, e := range cyc {
			a := e[0]*k + e[1]
			if idx%2 == 0 {
				delta -= c[a] // flow decreases on even edges
				if x[a] < min {
					min = x[a]
				}
			} else {
				delta += c[a]
			}
		}
		// At a fractional optimum every cycle is cost-neutral (delta ≈ 0);
		// numerical slack can leave a tiny nonzero delta, in which case we
		// shift in the nonincreasing direction.
		if delta > 0 {
			// Reverse orientation: decrease odd edges instead.
			min = math.Inf(1)
			for idx, e := range cyc {
				if a := e[0]*k + e[1]; idx%2 == 1 && x[a] < min {
					min = x[a]
				}
			}
			for idx, e := range cyc {
				if idx%2 == 1 {
					x[e[0]*k+e[1]] -= min
				} else {
					x[e[0]*k+e[1]] += min
				}
			}
		} else {
			for idx, e := range cyc {
				if idx%2 == 0 {
					x[e[0]*k+e[1]] -= min
				} else {
					x[e[0]*k+e[1]] += min
				}
			}
		}
		// Clean numerical dust so the support strictly shrinks.
		for _, e := range cyc {
			if a := e[0]*k + e[1]; x[a] < flow.Eps {
				x[a] = 0
			}
		}
	}
}

// findSupportCycle returns a cycle in the bipartite support graph of the
// row-major n×k flow block x as an alternating edge list
// [(p,c),(p',c),(p',c'),...] or nil if the support is a forest.
// Even-indexed and odd-indexed edges alternate orientation around the
// cycle.
func findSupportCycle(x []float64, n, k int) [][2]int {
	// A point served by a single center is a leaf of the support graph
	// and lies on no cycle, so only split points become nodes: 0..m−1
	// the split points in index order, m..m+k−1 the centers.
	var split []int
	for i := 0; i < n; i++ {
		deg := 0
		for _, v := range x[i*k : (i+1)*k] {
			if v > flow.Eps {
				deg++
			}
		}
		if deg >= 2 {
			split = append(split, i)
		}
	}
	m := len(split)
	if m < 2 {
		return nil // a cycle passes through at least two points
	}
	adj := make([][]int, m+k)
	for a, i := range split {
		for j := 0; j < k; j++ {
			if x[i*k+j] > flow.Eps {
				adj[a] = append(adj[a], m+j)
				adj[m+j] = append(adj[m+j], a)
			}
		}
	}
	state := make([]int, m+k) // 0 unvisited, 1 in stack, 2 done
	parent := make([]int, m+k)
	for i := range parent {
		parent[i] = -1
	}
	var cycleNodes []int
	var dfs func(u, from int) bool
	dfs = func(u, from int) bool {
		state[u] = 1
		for _, v := range adj[u] {
			if v == from {
				from = -2 // skip the immediate parent once (multi-edges impossible here)
				continue
			}
			if state[v] == 1 {
				// Found a cycle: walk back from u to v.
				cycleNodes = append(cycleNodes, v)
				for w := u; w != v; w = parent[w] {
					cycleNodes = append(cycleNodes, w)
				}
				return true
			}
			if state[v] == 0 {
				parent[v] = u
				if dfs(v, u) {
					return true
				}
			}
		}
		state[u] = 2
		return false
	}
	for s := 0; s < m+k; s++ {
		if state[s] == 0 && dfs(s, -1) {
			break
		}
	}
	if cycleNodes == nil {
		return nil
	}
	// cycleNodes is a closed walk v, u_l, ..., u_1 with u_1 adjacent to v.
	// Convert node cycle to edge list in order, normalizing each edge to
	// (point, center).
	l := len(cycleNodes)
	edges := make([][2]int, 0, l)
	for i := 0; i < l; i++ {
		a, b := cycleNodes[i], cycleNodes[(i+1)%l]
		if a < m {
			edges = append(edges, [2]int{split[a], b - m})
		} else {
			edges = append(edges, [2]int{split[b], a - m})
		}
	}
	return edges
}
