package assign

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/geo"
)

// bruteForceCapacitated enumerates all k^n assignments respecting the
// per-center capacity and returns the optimal cost (∞ if infeasible).
// optimal is one integral solve on a Solver: bind ps, install Z, solve
// at capacity t.
func optimal(ps geo.PointSet, Z []geo.Point, t, r float64) (Result, bool) {
	s := NewSolver()
	s.BindPoints(ps, r)
	s.SetCenters(Z)
	return s.Optimal(t)
}

func bruteForceCapacitated(ps geo.PointSet, Z []geo.Point, t float64, r float64) float64 {
	n, k := len(ps), len(Z)
	best := math.Inf(1)
	asg := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			cnt := make([]int, k)
			cost := 0.0
			for idx, c := range asg {
				cnt[c]++
				cost += geo.DistR(ps[idx], Z[c], r)
			}
			for _, c := range cnt {
				if float64(c) > t {
					return
				}
			}
			if cost < best {
				best = cost
			}
			return
		}
		for c := 0; c < k; c++ {
			asg[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func randPts(rng *rand.Rand, n, d int, delta int64) geo.PointSet {
	ps := make(geo.PointSet, n)
	for i := range ps {
		ps[i] = make(geo.Point, d)
		for j := range ps[i] {
			ps[i][j] = 1 + rng.Int63n(delta)
		}
	}
	return ps
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(4) // 4..7
		k := 2 + rng.Intn(2) // 2..3
		ps := randPts(rng, n, 2, 50)
		Z := randPts(rng, k, 2, 50)
		tcap := float64(int(math.Ceil(float64(n)/float64(k))) + rng.Intn(2))
		for _, r := range []float64{1, 2} {
			want := bruteForceCapacitated(ps, Z, tcap, r)
			res, ok := optimal(ps, Z, tcap, r)
			if math.IsInf(want, 1) {
				if ok {
					t.Fatalf("trial %d: expected infeasible", trial)
				}
				continue
			}
			if !ok {
				t.Fatalf("trial %d r=%v: unexpectedly infeasible (t=%v)", trial, r, tcap)
			}
			if math.Abs(res.Cost-want) > 1e-6*(1+want) {
				t.Fatalf("trial %d r=%v: cost %v, brute force %v", trial, r, res.Cost, want)
			}
			// Capacity respected.
			for _, s := range res.Sizes {
				if s > tcap+1e-9 {
					t.Fatalf("trial %d: capacity violated: %v > %v", trial, s, tcap)
				}
			}
		}
	}
}

func TestOptimalInfeasible(t *testing.T) {
	ps := geo.PointSet{{1, 1}, {2, 2}, {3, 3}}
	Z := []geo.Point{{1, 1}}
	if _, ok := optimal(ps, Z, 2, 2); ok {
		t.Fatal("3 points, 1 center, capacity 2 must be infeasible")
	}
	if _, ok := optimal(ps, Z, 3, 2); !ok {
		t.Fatal("capacity 3 must be feasible")
	}
}

func TestOptimalUnconstrainedEqualsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := randPts(rng, 30, 3, 100)
	Z := randPts(rng, 4, 3, 100)
	res, ok := optimal(ps, Z, float64(len(ps)), 2)
	if !ok {
		t.Fatal("infeasible")
	}
	want := UnconstrainedCost(geo.UnitWeights(ps), Z, 2)
	if math.Abs(res.Cost-want) > 1e-6*(1+want) {
		t.Fatalf("unconstrained: %v vs nearest %v", res.Cost, want)
	}
}

func TestTighterCapacityCostsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Imbalanced input: most points near one center.
	ps := geo.PointSet{}
	for i := 0; i < 12; i++ {
		ps = append(ps, geo.Point{1 + rng.Int63n(5), 1 + rng.Int63n(5)})
	}
	for i := 0; i < 4; i++ {
		ps = append(ps, geo.Point{90 + rng.Int63n(5), 90 + rng.Int63n(5)})
	}
	Z := []geo.Point{{3, 3}, {92, 92}}
	loose, _ := optimal(ps, Z, 16, 2)
	tight, ok := optimal(ps, Z, 8, 2)
	if !ok {
		t.Fatal("tight capacity infeasible")
	}
	if tight.Cost <= loose.Cost {
		t.Fatalf("balanced constraint should cost more: tight %v vs loose %v", tight.Cost, loose.Cost)
	}
	if tight.Sizes[0] != 8 || tight.Sizes[1] != 8 {
		t.Fatalf("tight sizes = %v, want perfectly balanced", tight.Sizes)
	}
}

func TestFractionalLowerBoundsIntegral(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n, k := 8, 3
		ps := randPts(rng, n, 2, 60)
		Z := randPts(rng, k, 2, 60)
		tcap := 3.0
		intres, ok := optimal(ps, Z, tcap, 2)
		if !ok {
			continue
		}
		frac, _, fok := FractionalCost(geo.UnitWeights(ps), Z, tcap, 2)
		if !fok {
			t.Fatalf("trial %d: fractional infeasible but integral feasible", trial)
		}
		if frac > intres.Cost+1e-6*(1+intres.Cost) {
			t.Fatalf("trial %d: fractional %v exceeds integral %v", trial, frac, intres.Cost)
		}
		// Transportation integrality: with unit weights and integer caps
		// they must coincide.
		if math.Abs(frac-intres.Cost) > 1e-6*(1+intres.Cost) {
			t.Fatalf("trial %d: integrality gap %v vs %v", trial, frac, intres.Cost)
		}
	}
}

func TestWeightedUnitMatchesOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		ps := randPts(rng, 10, 2, 40)
		Z := randPts(rng, 3, 2, 40)
		tcap := 4.0
		want, ok := optimal(ps, Z, tcap, 2)
		if !ok {
			continue
		}
		got, gok := Weighted(geo.UnitWeights(ps), Z, tcap, 2)
		if !gok {
			t.Fatalf("trial %d: Weighted infeasible", trial)
		}
		// Weighted may exceed t by (k−1)·max w = 2 after split rounding,
		// but with unit weights the fractional optimum is integral, so the
		// costs must match.
		if math.Abs(got.Cost-want.Cost) > 1e-6*(1+want.Cost) {
			t.Fatalf("trial %d: Weighted cost %v, Optimal %v", trial, got.Cost, want.Cost)
		}
	}
}

func TestWeightedCapacitySlackBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		n, k := 12, 3
		ws := make([]geo.Weighted, n)
		var maxW, tot float64
		for i := range ws {
			w := 0.5 + rng.Float64()*3
			ws[i] = geo.Weighted{P: randPts(rng, 1, 2, 80)[0], W: w}
			if w > maxW {
				maxW = w
			}
			tot += w
		}
		tcap := tot / float64(k) * 1.2
		res, ok := Weighted(ws, nil2(randPts(rng, k, 2, 80)), tcap, 2)
		if !ok {
			continue
		}
		slack := float64(k-1) * maxW
		for j, s := range res.Sizes {
			if s > tcap+slack+1e-6 {
				t.Fatalf("trial %d: center %d size %v exceeds t+slack %v", trial, j, s, tcap+slack)
			}
		}
		// Every point assigned.
		for i, a := range res.Assign {
			if a < 0 || a >= k {
				t.Fatalf("point %d unassigned", i)
			}
		}
	}
}

func nil2(ps geo.PointSet) []geo.Point { return ps }

func TestWeightedInfeasible(t *testing.T) {
	ws := []geo.Weighted{{P: geo.Point{1, 1}, W: 10}}
	Z := []geo.Point{{2, 2}}
	if _, ok := Weighted(ws, Z, 5, 2); ok {
		t.Fatal("total weight 10 > k·t = 5 must be infeasible")
	}
}

func TestCostHelpers(t *testing.T) {
	ws := []geo.Weighted{
		{P: geo.Point{1, 1}, W: 2},
		{P: geo.Point{4, 5}, W: 1},
	}
	Z := []geo.Point{{1, 1}, {4, 1}}
	if got := UnconstrainedCost(ws, Z, 2); got != 16 {
		t.Fatalf("UnconstrainedCost = %v, want 16", got) // (4,5): nearest (4,1) dist² 16
	}
	pi := []int{1, 0}
	// (1,1)→(4,1): 9·2=18 ; (4,5)→(1,1): (9+16)·1=25
	if got := CostOfAssignment(ws, Z, pi, 2); got != 43 {
		t.Fatalf("CostOfAssignment = %v, want 43", got)
	}
	s := sizeVector(ws, pi, 2)
	if s[0] != 1 || s[1] != 2 {
		t.Fatalf("sizeVector = %v", s)
	}
	// Skipped entries.
	if got := CostOfAssignment(ws, Z, []int{-1, 0}, 2); got != 25 {
		t.Fatalf("CostOfAssignment with skip = %v, want 25", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	res, ok := optimal(nil, []geo.Point{{1, 1}}, 1, 2)
	if !ok || res.Cost != 0 {
		t.Fatal("empty Optimal")
	}
	wres, wok := Weighted(nil, []geo.Point{{1, 1}}, 1, 2)
	if !wok || wres.Cost != 0 {
		t.Fatal("empty Weighted")
	}
	c, _, fok := FractionalCost(nil, []geo.Point{{1, 1}}, 1, 2)
	if !fok || c != 0 {
		t.Fatal("empty FractionalCost")
	}
}

func TestWeightedForcedSplit(t *testing.T) {
	// Two heavy points, two centers, capacity forces a split: weight 3
	// each, capacity 4 → fractional optimum splits one point 2/1... The
	// integral rounding must still assign each point to one center with
	// bounded violation.
	ws := []geo.Weighted{
		{P: geo.Point{1, 1}, W: 3},
		{P: geo.Point{1, 2}, W: 3},
	}
	Z := []geo.Point{{1, 1}, {50, 50}}
	res, ok := Weighted(ws, Z, 4, 2)
	if !ok {
		t.Fatal("infeasible")
	}
	// Both points are near center 0; after rounding, sizes[0] may reach
	// 6 = t + (k−1)·maxw = 4 + 3 = 7 bound.
	if res.Sizes[0] > 7+1e-9 {
		t.Fatalf("slack bound violated: %v", res.Sizes[0])
	}
	if res.Assign[0] < 0 || res.Assign[1] < 0 {
		t.Fatal("unassigned point")
	}
}

// sizeVector computes s(π): total assigned weight per center.
func sizeVector(ws []geo.Weighted, pi []int, k int) []float64 {
	s := make([]float64, k)
	for i, w := range ws {
		if pi[i] >= 0 {
			s[pi[i]] += w.W
		}
	}
	return s
}
