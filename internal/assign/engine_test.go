package assign

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/flow"
	"streambalance/internal/geo"
)

// freshOptimal is the per-call integral solve the Solver is pinned
// against: it builds its own flow graph for one center set and computes
// the optimal capacitated assignment of unit-weight (or uniformly
// weighted) points to centers Z under per-center capacity t
// (in points), i.e. cost^{(r)}_t(Q, Z). By transportation integrality the
// min-cost flow solution is integral, so the result is the exact optimum.
// ok is false when ⌊t⌋·k < |ps| (no feasible partition).
func freshOptimal(ps geo.PointSet, Z []geo.Point, t float64, r float64) (Result, bool) {
	n, k := len(ps), len(Z)
	if n == 0 {
		return Result{Assign: nil, Sizes: make([]float64, k)}, true
	}
	capPer := math.Floor(t + 1e-9)
	if capPer*float64(k) < float64(n) {
		return Infeasible, false
	}
	// Nodes: 0 = S, 1..n = points, n+1..n+k = centers, n+k+1 = T.
	g := flow.NewGraph(n + k + 2)
	src, sink := 0, n+k+1
	edgeID := make([][]int, n)
	for i, p := range ps {
		g.AddEdge(src, 1+i, 1, 0)
		edgeID[i] = make([]int, k)
		for j, z := range Z {
			edgeID[i][j] = g.AddEdge(1+i, n+1+j, 1, geo.DistR(p, z, r))
		}
	}
	for j := 0; j < k; j++ {
		g.AddEdge(n+1+j, sink, capPer, 0)
	}
	f, cost := g.MinCostFlow(src, sink, float64(n))
	if f < float64(n)-1e-6 {
		return Infeasible, false
	}
	flows := g.FlowsByID()
	res := Result{Assign: make([]int, n), Cost: cost, Sizes: make([]float64, k)}
	for i := 0; i < n; i++ {
		res.Assign[i] = -1
		for j := 0; j < k; j++ {
			if flows[edgeID[i][j]] > 0.5 {
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

func randWeighted(rng *rand.Rand, n, d int, delta int64) []geo.Weighted {
	ws := make([]geo.Weighted, n)
	for i := range ws {
		p := make(geo.Point, d)
		for c := range p {
			p[c] = 1 + rng.Int63n(delta)
		}
		ws[i] = geo.Weighted{P: p, W: 0.25 + rng.Float64()*4}
	}
	return ws
}

func randCenters(rng *rand.Rand, k, d int, delta int64) []geo.Point {
	Z := make([]geo.Point, k)
	for i := range Z {
		p := make(geo.Point, d)
		for c := range p {
			p[c] = 1 + rng.Int63n(delta)
		}
		Z[i] = p
	}
	return Z
}

// TestAssignEngineColdMatchesFresh pins the arena to the per-call path:
// rebinding centers and solving cold must reproduce FractionalCost
// bit-for-bit (cost and every arc flow), across center sets of varying k
// reusing one engine.
func TestAssignEngineColdMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, r := range []float64{1, 2, 1.5} {
		ws := randWeighted(rng, 40, 2, 64)
		eng := NewSolver()
		eng.Bind(ws, r)
		total := geo.TotalWeight(ws)
		for trial := 0; trial < 12; trial++ {
			k := 2 + rng.Intn(4)
			Z := randCenters(rng, k, 2, 64)
			eng.SetCenters(Z)
			// Include a near-tight, a loose, and an infeasible capacity.
			for _, tCap := range []float64{total / float64(k) * 0.9, total / float64(k) * 1.03, total / float64(k) * 2.5} {
				got, gotOK := eng.Fractional(tCap)
				want, x, wantOK := FractionalCost(ws, Z, tCap, r)
				if gotOK != wantOK {
					t.Fatalf("r=%g trial %d t=%g: ok %v, fresh %v", r, trial, tCap, gotOK, wantOK)
				}
				if !wantOK {
					continue
				}
				if got != want {
					t.Fatalf("r=%g trial %d t=%g: cost %v != fresh %v (Δ=%g)", r, trial, tCap, got, want, got-want)
				}
				flows := eng.tr.x
				for i := range ws {
					for j := range Z {
						f := flows[i*k+j]
						want := x[i][j]
						// FractionalCost zeroes sub-Eps dust in x.
						if f <= 1e-9 && want == 0 {
							continue
						}
						if f != want {
							t.Fatalf("r=%g trial %d t=%g: flow[%d][%d] %v != fresh %v", r, trial, tCap, i, j, f, want)
						}
					}
				}
			}
		}
	}
}

// TestAssignEngineWarmAfterShrink checks a non-monotone capacity sequence
// on one center set: every solve reuses the workspace of the previous
// one and must still match the fresh path.
func TestAssignEngineWarmAfterShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ws := randWeighted(rng, 30, 2, 64)
	Z := randCenters(rng, 4, 2, 64)
	total := geo.TotalWeight(ws)
	b := total / 4
	eng := NewSolver()
	eng.Bind(ws, 2)
	eng.SetCenters(Z)
	seq := []float64{b * 1.02, b * 2, b * 1.1, b * 3, b * 1.5}
	for _, tCap := range seq {
		got, gotOK := eng.Fractional(tCap)
		want, _, wantOK := FractionalCost(ws, Z, tCap, 2)
		if gotOK != wantOK {
			t.Fatalf("t=%g: ok %v, fresh %v", tCap, gotOK, wantOK)
		}
		if !wantOK {
			continue
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("t=%g: cost %v != fresh %v (Δ=%g)", tCap, got, want, got-want)
		}
	}
}

// TestAssignEngineWeightedMatchesFresh pins the rounded assignment of a
// reused engine — workspace carried across center sets of varying k and
// capacities, as in capacitated Lloyd — to a fresh per-call Weighted.
func TestAssignEngineWeightedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	ws := randWeighted(rng, 45, 2, 64)
	total := geo.TotalWeight(ws)
	eng := NewSolver()
	eng.Bind(ws, 2)
	for trial := 0; trial < 12; trial++ {
		k := 2 + rng.Intn(5)
		Z := randCenters(rng, k, 2, 64)
		eng.SetCenters(Z)
		for _, tCap := range []float64{total / float64(k) * 0.95, total / float64(k) * 1.02, total / float64(k) * 3} {
			got, gotOK := eng.Weighted(tCap)
			want, wantOK := Weighted(ws, Z, tCap, 2)
			if gotOK != wantOK {
				t.Fatalf("trial %d t=%g: ok %v, fresh %v", trial, tCap, gotOK, wantOK)
			}
			if got.Cost != want.Cost && !(math.IsInf(got.Cost, 1) && math.IsInf(want.Cost, 1)) {
				t.Fatalf("trial %d t=%g: cost %v != fresh %v", trial, tCap, got.Cost, want.Cost)
			}
			for i := range want.Assign {
				if got.Assign[i] != want.Assign[i] {
					t.Fatalf("trial %d t=%g: assign[%d] %d != fresh %d", trial, tCap, i, got.Assign[i], want.Assign[i])
				}
			}
			for j := range want.Sizes {
				if got.Sizes[j] != want.Sizes[j] {
					t.Fatalf("trial %d t=%g: sizes[%d] %v != fresh %v", trial, tCap, j, got.Sizes[j], want.Sizes[j])
				}
			}
		}
	}
}

// TestAssignEngineOptimalMatchesFresh pins the integral path: the engine's
// Optimal must reproduce the fresh-graph oracle freshOptimal exactly — cost,
// assignment vector, and sizes — since downstream experiments consume the
// tie-broken assignment itself.
func TestAssignEngineOptimalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, r := range []float64{1, 2} {
		ps := make(geo.PointSet, 32)
		for i := range ps {
			ps[i] = geo.Point{1 + rng.Int63n(48), 1 + rng.Int63n(48)}
		}
		eng := NewSolver()
		eng.BindPoints(ps, r)
		for trial := 0; trial < 8; trial++ {
			k := 2 + rng.Intn(4)
			Z := randCenters(rng, k, 2, 48)
			eng.SetCenters(Z)
			for _, tCap := range []float64{float64(len(ps)) / float64(k) * 0.8, float64(len(ps))/float64(k) + 1, float64(len(ps))} {
				got, gotOK := eng.Optimal(tCap)
				want, wantOK := freshOptimal(ps, Z, tCap, r)
				if gotOK != wantOK {
					t.Fatalf("r=%g trial %d t=%g: ok %v, fresh %v", r, trial, tCap, gotOK, wantOK)
				}
				if !wantOK {
					continue
				}
				if got.Cost != want.Cost {
					t.Fatalf("r=%g trial %d t=%g: cost %v != fresh %v", r, trial, tCap, got.Cost, want.Cost)
				}
				for i := range got.Assign {
					if got.Assign[i] != want.Assign[i] {
						t.Fatalf("r=%g trial %d t=%g: assign[%d] %d != fresh %d", r, trial, tCap, i, got.Assign[i], want.Assign[i])
					}
				}
				for j := range got.Sizes {
					if got.Sizes[j] != want.Sizes[j] {
						t.Fatalf("r=%g trial %d t=%g: sizes[%d] %v != fresh %v", r, trial, tCap, j, got.Sizes[j], want.Sizes[j])
					}
				}
			}
		}
	}
}

// TestAssignEngineUnconstrainedMatchesFresh pins the nearest-center cost
// read off the shared distance block to the scalar path.
func TestAssignEngineUnconstrainedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, r := range []float64{1, 2, 1.5} {
		ws := randWeighted(rng, 50, 3, 100)
		eng := NewSolver()
		eng.Bind(ws, r)
		for trial := 0; trial < 6; trial++ {
			Z := randCenters(rng, 5, 3, 100)
			eng.SetCenters(Z)
			got := eng.Unconstrained()
			want := UnconstrainedCost(ws, Z, r)
			if got != want {
				t.Fatalf("r=%g trial %d: %v != fresh %v (Δ=%g)", r, trial, got, want, got-want)
			}
		}
	}
}
