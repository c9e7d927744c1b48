package assign

import (
	"math"

	"streambalance/internal/flow"
	"streambalance/internal/geo"
	"streambalance/internal/obs"
)

// Telemetry handles (internal/obs).
var (
	mSolves     = obs.C("assign_solves_total")
	mCenterSets = obs.C("assign_center_sets_total")
	mSkeletons  = obs.C("assign_skeleton_builds_total")
	mSolveNS    = obs.H("assign_solve_ns")
)

// Solver is a reusable capacitated-assignment engine for the
// many-solves-one-dataset pattern of the evaluation suite and the
// capacitated solvers: hundreds of solves over one point set with
// varying center sets and capacities. It is the one weighted solve path
// — FractionalCost and Weighted are a fresh Solver per call — and
// amortizes the per-call costs (DESIGN.md §7):
//
//   - the point×center cost block is computed by the blocked
//     geo.DistRMatrix kernel once per center set and shared by every
//     capacity solve on it;
//   - weighted solves run the transportation kernel on that block in a
//     workspace (flows, loads, heaps) that survives across solves;
//   - unit-weight solves keep the bipartite flow skeleton (source→point
//     arcs, per-point arc slabs to every center, sink arcs) in a graph
//     arena, built once per bound point set; a new center set only
//     rewrites arc costs, a new capacity only rewrites sink capacities.
//
// Every solve is cold and runs the per-call algorithm over the same cost
// block, so costs, flows, assignments and sizes are bit-identical to a
// fresh Solver per call (FractionalCost, Weighted) and, for Optimal, to
// a min-cost flow on a freshly built graph (the engine tests' oracle).
//
// A Solver must not be shared between goroutines; parallel harnesses
// keep one per worker.
type Solver struct {
	ws    []geo.Weighted // weighted mode (Fractional, Weighted)
	ps    geo.PointSet   // unit-weight mode (Optimal)
	bound bool
	unit  bool
	r     float64
	total float64 // Σw in weighted mode
	n, k  int
	costs []float64   // n×k DistR block for the current centers
	lastZ []geo.Point // current centers (general-r Unconstrained fallback)
	haveZ bool

	tr transport // weighted-mode workspace

	// Unit-weight mode: the bipartite network in a graph arena.
	g         *flow.Graph
	fs        flow.Solver
	src, sink int
	arcID     []int // n×k point→center arc ids
	sinkID    []int // k sink arc ids
	skeleton  bool  // arena holds arcs for the current (points, k)
}

// NewSolver returns an empty engine; Bind a point set before solving.
func NewSolver() *Solver { return &Solver{} }

// Bind fixes the weighted point set and cost exponent for subsequent
// Fractional and Weighted solves. The slice is referenced, not copied.
func (s *Solver) Bind(ws []geo.Weighted, r float64) {
	s.ws, s.ps, s.bound, s.unit = ws, nil, true, false
	s.r = r
	s.n = len(ws)
	s.total = geo.TotalWeight(ws)
	s.haveZ = false
}

// BindPoints fixes a unit-weight point set for subsequent Optimal
// solves. The skeleton is rebuilt on the next SetCenters; the arena
// retains its storage. The slice is referenced, not copied.
func (s *Solver) BindPoints(ps geo.PointSet, r float64) {
	s.ps, s.ws, s.bound, s.unit = ps, nil, true, true
	s.r = r
	s.n = len(ps)
	s.total = float64(len(ps))
	s.skeleton, s.haveZ = false, false
}

// SetCenters installs a center set: the cost block is recomputed with
// the blocked kernel and, for unit-weight points, written onto the
// arena's point→center arcs.
func (s *Solver) SetCenters(Z []geo.Point) {
	if !s.bound {
		panic("assign: SetCenters before Bind")
	}
	mCenterSets.Inc()
	if len(Z) != s.k {
		s.skeleton = false
	}
	s.k = len(Z)
	if s.unit {
		s.costs = geo.DistRMatrix(s.ps, Z, s.r, s.costs)
	} else {
		s.costs = geo.DistRMatrixW(s.ws, Z, s.r, s.costs)
	}
	s.lastZ = Z
	s.haveZ = true
	if s.n == 0 || !s.unit {
		return
	}
	if !s.skeleton {
		s.buildSkeleton()
	} else {
		for a, c := range s.costs {
			s.g.SetCost(s.arcID[a], c)
		}
	}
}

// buildSkeleton (re)builds the bipartite unit-weight network in the
// arena, in the exact arc order of a freshly built graph: per point one
// source arc then its k center arcs, then the k sink arcs. Sink
// capacities are installed per solve.
func (s *Solver) buildSkeleton() {
	n, k := s.n, s.k
	if s.g == nil {
		s.g = flow.NewGraph(0)
	}
	s.g.Reset(n + k + 2)
	s.src, s.sink = 0, n+k+1
	if cap(s.arcID) < n*k {
		s.arcID = make([]int, n*k)
	}
	s.arcID = s.arcID[:n*k]
	if cap(s.sinkID) < k {
		s.sinkID = make([]int, k)
	}
	s.sinkID = s.sinkID[:k]
	for i := 0; i < n; i++ {
		s.g.AddEdge(s.src, 1+i, 1, 0)
		for j := 0; j < k; j++ {
			s.arcID[i*k+j] = s.g.AddEdge(1+i, n+1+j, 1, s.costs[i*k+j])
		}
	}
	for j := 0; j < k; j++ {
		s.sinkID[j] = s.g.AddEdge(n+1+j, s.sink, 0, 0)
	}
	s.skeleton = true
	mSkeletons.Inc()
}

// Fractional computes the optimal fractional capacitated assignment
// cost of the bound weighted points to the current centers under
// per-center capacity t — the same LP relaxation and kernel as
// FractionalCost, without recomputing the distance block. ok is false
// when t·k < Σw (infeasible).
func (s *Solver) Fractional(t float64) (float64, bool) {
	if !s.haveZ {
		panic("assign: Fractional before SetCenters")
	}
	if s.unit {
		panic("assign: Fractional on a BindPoints solver (use Optimal)")
	}
	if s.n == 0 {
		return 0, true
	}
	if t*float64(s.k) < s.total-1e-9 {
		return math.Inf(1), false
	}
	mSolves.Inc()
	t0 := obs.NowNano()
	defer mSolveNS.ObserveSince(t0)
	cost, routed := s.tr.solve(s.ws, s.costs, s.k, t)
	if routed < s.total-1e-6*math.Max(1, s.total) {
		return math.Inf(1), false
	}
	return cost, true
}

// Weighted computes the integral capacitated assignment of the bound
// weighted points to the current centers by the Section 3.3 rounding of
// the Fractional optimum (see the package-level Weighted). ok is false
// when t·k < Σw (infeasible).
func (s *Solver) Weighted(t float64) (Result, bool) {
	if _, ok := s.Fractional(t); !ok {
		return Infeasible, false
	}
	if s.n == 0 {
		return Result{Sizes: make([]float64, s.k)}, true
	}
	n, k, x := s.n, s.k, s.tr.x
	eliminateCycles(x, s.costs, n, k)
	res := Result{Assign: make([]int, n), Sizes: make([]float64, k)}
	for i, w := range s.ws {
		// Count support.
		support := -1
		split := false
		for j, v := range x[i*k : (i+1)*k] {
			if v > flow.Eps {
				if support >= 0 {
					split = true
					break
				}
				support = j
			}
		}
		if split || support < 0 {
			// Split (or numerically lost) point → nearest center, per §3.3.
			_, support = geo.DistToSet(w.P, s.lastZ)
		}
		res.Assign[i] = support
		res.Sizes[support] += w.W
	}
	res.Cost = CostOfAssignment(s.ws, s.lastZ, res.Assign, s.r)
	return res, true
}

// Optimal computes the optimal integral capacitated assignment of the
// bound unit-weight points to the current centers under per-center
// capacity t (in points), i.e. cost^{(r)}_t(Q, Z): a min-cost flow on
// the arena, reusing the distance block. By transportation integrality
// the flow is integral, so the result is the exact optimum. ok is false
// when ⌊t⌋·k < |ps| (no feasible partition).
func (s *Solver) Optimal(t float64) (Result, bool) {
	if !s.haveZ {
		panic("assign: Optimal before SetCenters")
	}
	if !s.unit {
		panic("assign: Optimal on a Bind solver (use Fractional)")
	}
	n, k := s.n, s.k
	if n == 0 {
		return Result{Assign: nil, Sizes: make([]float64, k)}, true
	}
	capPer := math.Floor(t + 1e-9)
	if capPer*float64(k) < float64(n) {
		return Infeasible, false
	}
	mSolves.Inc()
	t0 := obs.NowNano()
	defer mSolveNS.ObserveSince(t0)
	for _, id := range s.sinkID {
		s.g.SetCap(id, capPer)
	}
	s.g.ClearFlows()
	f, cost := s.fs.MinCostFlow(s.g, s.src, s.sink, float64(n))
	if f < float64(n)-1e-6 {
		return Infeasible, false
	}
	flows := s.g.FlowsByID()
	res := Result{Assign: make([]int, n), Cost: cost, Sizes: make([]float64, k)}
	for i := 0; i < n; i++ {
		res.Assign[i] = -1
		for j := 0; j < k; j++ {
			if flows[s.arcID[i*k+j]] > 0.5 {
				res.Assign[i] = j
				res.Sizes[j]++
				break
			}
		}
		if res.Assign[i] < 0 {
			return Infeasible, false // should not happen at full flow
		}
	}
	return res, true
}

// Unconstrained computes cost^{(r)}(Q, Z, w) — every point served by its
// nearest center — from the engine's distance block, sharing it with the
// capacitated solves on the same center set. For r ∈ {1, 2} the
// arithmetic mirrors UnconstrainedCost operation for operation, so the
// result is bit-identical to the per-call path; the block for a general
// r holds distsq^{r/2} while UnconstrainedCost computes (√distsq)^r —
// not the same float — so that case falls back to the scalar path.
func (s *Solver) Unconstrained() float64 {
	if !s.haveZ {
		panic("assign: Unconstrained before SetCenters")
	}
	if s.r != 1 && s.r != 2 {
		if s.unit {
			return UnconstrainedCost(geo.UnitWeights(s.ps), s.lastZ, s.r)
		}
		return UnconstrainedCost(s.ws, s.lastZ, s.r)
	}
	var c float64
	k := s.k
	for i := 0; i < s.n; i++ {
		row := s.costs[i*k : (i+1)*k]
		best := math.Inf(1)
		for _, v := range row {
			if v < best {
				best = v
			}
		}
		w := 1.0
		if !s.unit {
			w = s.ws[i].W
		}
		// Mirror UnconstrainedCost exactly: it takes d = √(min DistSq)
		// from DistToSet and applies PowR(d, r).
		switch s.r {
		case 2:
			d := math.Sqrt(best) // block holds DistSq
			c += w * (d * d)
		case 1:
			c += w * best // block holds Dist already
		}
	}
	return c
}
