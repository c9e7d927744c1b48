package assign

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/flow"
	"streambalance/internal/geo"
)

// sspFractional is the oracle for the transportation kernel: the
// bipartite source → points → centers → sink network solved by
// successive shortest paths over all n+k+2 nodes, as FractionalCost did
// before the kernel.
func sspFractional(ws []geo.Weighted, Z []geo.Point, t, r float64) (float64, bool) {
	n, k := len(ws), len(Z)
	if n == 0 {
		return 0, true
	}
	total := geo.TotalWeight(ws)
	if t*float64(k) < total-1e-9 {
		return math.Inf(1), false
	}
	g := flow.NewGraph(n + k + 2)
	src, sink := 0, n+k+1
	for i, w := range ws {
		g.AddEdge(src, 1+i, w.W, 0)
		for j, z := range Z {
			g.AddEdge(1+i, n+1+j, w.W, geo.DistR(w.P, z, r))
		}
	}
	for j := 0; j < k; j++ {
		g.AddEdge(n+1+j, sink, t, 0)
	}
	f, cost := g.MinCostFlow(src, sink, total)
	if f < total-1e-6*math.Max(1, total) {
		return math.Inf(1), false
	}
	return cost, true
}

// checkTransport solves one instance with FractionalCost and the SSP
// oracle and checks they agree on feasibility and cost, and that the
// kernel's flows are a feasible transportation plan.
func checkTransport(t *testing.T, name string, ws []geo.Weighted, Z []geo.Point, tCap, r float64) bool {
	t.Helper()
	got, x, ok := FractionalCost(ws, Z, tCap, r)
	want, wantOK := sspFractional(ws, Z, tCap, r)
	if ok != wantOK {
		t.Fatalf("%s: ok %v, SSP %v", name, ok, wantOK)
	}
	if !ok {
		return false
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: cost %v, SSP %v (rel Δ %g)", name, got, want, (got-want)/math.Max(1, math.Abs(want)))
	}
	total := geo.TotalWeight(ws)
	tol := 1e-9 * math.Max(1, total)
	cols := make([]float64, len(Z))
	for i, row := range x {
		var sum float64
		for j, v := range row {
			if v < 0 {
				t.Fatalf("%s: x[%d][%d] = %v < 0", name, i, j, v)
			}
			sum += v
			cols[j] += v
		}
		if math.Abs(sum-ws[i].W) > tol {
			t.Fatalf("%s: row %d sums to %v, weight %v", name, i, sum, ws[i].W)
		}
	}
	for j, c := range cols {
		if c > tCap+tol {
			t.Fatalf("%s: center %d load %v > capacity %v", name, j, c, tCap)
		}
	}
	return true
}

// transportInstance draws n weighted points and k centers. With grid set,
// coordinates come from a 6×6 grid, so points repeat and distances tie;
// with integer set, weights are whole numbers.
func transportInstance(rng *rand.Rand, n, k int, grid, integer bool) ([]geo.Weighted, []geo.Point) {
	coord := func() int64 {
		if grid {
			return 1 + rng.Int63n(6)
		}
		return 1 + rng.Int63n(1000)
	}
	ws := make([]geo.Weighted, n)
	for i := range ws {
		w := 0.25 + rng.Float64()*4
		if integer {
			w = float64(1 + rng.Intn(5))
		}
		ws[i] = geo.Weighted{P: geo.Point{coord(), coord()}, W: w}
	}
	Z := make([]geo.Point, k)
	for j := range Z {
		Z[j] = geo.Point{coord(), coord()}
	}
	return ws, Z
}

// TestAssignTransportMatchesSSP pins the k-sink transportation kernel to
// the bipartite SSP oracle across weight kinds, tie-heavy grids, cost
// exponents, center counts (including k² > n) and capacities from
// exactly Σw/k up to 10×, plus infeasible capacities just below Σw/k.
func TestAssignTransportMatchesSSP(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var feasible, infeasible int
	for _, r := range []float64{1, 2, 3} {
		for k := 1; k <= 8; k++ {
			for _, grid := range []bool{false, true} {
				for _, integer := range []bool{false, true} {
					n := 5 + rng.Intn(60)
					ws, Z := transportInstance(rng, n, k, grid, integer)
					b := geo.TotalWeight(ws) / float64(k)
					for _, mult := range []float64{0.97, 1, 1.001, 1.1, 1.5, 3, 10} {
						if checkTransport(t, "random", ws, Z, b*mult, r) {
							feasible++
						} else {
							infeasible++
						}
					}
				}
			}
		}
		// k² > n: more center pairs than points.
		ws, Z := transportInstance(rng, 9, 8, true, true)
		b := geo.TotalWeight(ws) / 8
		for _, mult := range []float64{1, 1.2, 2} {
			checkTransport(t, "k²>n", ws, Z, b*mult, r)
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("vacuous: %d feasible, %d infeasible solves", feasible, infeasible)
	}
}

// FuzzAssignTransportMatchesSSP checks the kernel against the SSP oracle
// on instances drawn from the fuzzed seed and shape.
func FuzzAssignTransportMatchesSSP(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), uint8(0), false, false)
	f.Add(int64(2), uint8(40), uint8(3), uint8(1), uint8(1), true, false)
	f.Add(int64(3), uint8(12), uint8(8), uint8(2), uint8(0), true, true)
	f.Add(int64(4), uint8(64), uint8(5), uint8(0), uint8(3), false, true)
	f.Add(int64(5), uint8(7), uint8(6), uint8(1), uint8(200), true, true)
	f.Fuzz(func(t *testing.T, seed int64, n, k, rSel, slack uint8, grid, integer bool) {
		rng := rand.New(rand.NewSource(seed))
		nn, kk := 1+int(n%96), 1+int(k%8)
		r := []float64{1, 2, 3}[rSel%3]
		ws, Z := transportInstance(rng, nn, kk, grid, integer)
		// slack 0 is exactly Σw/k; 255 is 10×; the fuzzer also tries
		// capacities just below Σw/k through the infeasible factor.
		mult := 1 + 9*float64(slack)/255
		if slack%17 == 16 {
			mult = 0.99
		}
		checkTransport(t, "fuzz", ws, Z, geo.TotalWeight(ws)/float64(kk)*mult, r)
	})
}

// TestAssignEliminateCyclesLeavesForest checks the Section 3.3 rounding
// step on kernel flows: after cycle elimination the support is a forest
// with at most k−1 split points, row and column sums are unchanged and
// the cost has not risen.
func TestAssignEliminateCyclesLeavesForest(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(6)
		ws, Z := transportInstance(rng, 10+rng.Intn(80), k, trial%2 == 0, trial%3 == 0)
		s := NewSolver()
		s.Bind(ws, 2)
		s.SetCenters(Z)
		tCap := geo.TotalWeight(ws) / float64(k) * (1 + rng.Float64())
		before, ok := s.Fractional(tCap)
		if !ok {
			t.Fatalf("trial %d: infeasible at t=%g", trial, tCap)
		}
		n, x := len(ws), s.tr.x
		rows, cols := make([]float64, n), make([]float64, k)
		for a, v := range x {
			rows[a/k] += v
			cols[a%k] += v
		}
		eliminateCycles(x, s.costs, n, k)
		if cyc := findSupportCycle(x, n, k); cyc != nil {
			t.Fatalf("trial %d: support still has cycle %v", trial, cyc)
		}
		var after float64
		split := 0
		for i := 0; i < n; i++ {
			var sum float64
			deg := 0
			for j := 0; j < k; j++ {
				v := x[i*k+j]
				sum += v
				cols[j] -= v
				after += v * s.costs[i*k+j]
				if v > flow.Eps {
					deg++
				}
			}
			if deg > 1 {
				split++
			}
			if math.Abs(sum-rows[i]) > 1e-9*math.Max(1, rows[i]) {
				t.Fatalf("trial %d: row %d moved from %v to %v", trial, i, rows[i], sum)
			}
		}
		for j, d := range cols {
			if math.Abs(d) > 1e-9*math.Max(1, tCap) {
				t.Fatalf("trial %d: column %d moved by %v", trial, j, d)
			}
		}
		if split > k-1 {
			t.Fatalf("trial %d: %d split points, want ≤ k−1 = %d", trial, split, k-1)
		}
		if after > before+1e-9*math.Max(1, before) {
			t.Fatalf("trial %d: cost rose from %v to %v", trial, before, after)
		}
	}
}
