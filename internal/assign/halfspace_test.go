package assign

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/geo"
)

func TestPairKeyAntisymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := randPts(rng, 1, 3, 100)[0]
		zi := randPts(rng, 1, 3, 100)[0]
		zj := randPts(rng, 1, 3, 100)[0]
		for _, r := range []float64{1, 2, 3} {
			a := PairKey(p, zi, zj, r)
			b := PairKey(p, zj, zi, r)
			if math.Abs(a+b) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("κ_ij ≠ −κ_ji: %v vs %v", a, b)
			}
		}
	}
}

func TestVerifySeparationOnOptimalAssignments(t *testing.T) {
	// The Figures 1–3 / Lemma 3.8 property: optimal capacitated
	// assignments are pairwise separable by curved ℓ_r hyperplanes.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(10)
		k := 2 + rng.Intn(3)
		ps := randPts(rng, n, 2, 1000)
		Z := randPts(rng, k, 2, 1000)
		tcap := math.Ceil(float64(n)/float64(k)) + float64(rng.Intn(3))
		for _, r := range []float64{1, 2, 3} {
			res, ok := optimal(ps, Z, tcap, r)
			if !ok {
				continue
			}
			rep := VerifySeparation(ps, res.Assign, Z, r, 1e-6)
			if !rep.Separable {
				t.Fatalf("trial %d r=%v: optimal assignment not separable (violation %v)",
					trial, r, rep.WorstViolation)
			}
		}
	}
}

func TestVerifySeparationDetectsBadAssignment(t *testing.T) {
	// Deliberately crossed assignment must be flagged.
	ps := geo.PointSet{{1, 1}, {100, 100}}
	Z := []geo.Point{{1, 1}, {100, 100}}
	crossed := []int{1, 0} // each point to the far center
	rep := VerifySeparation(ps, crossed, Z, 2, 1e-9)
	if rep.Separable {
		t.Fatal("crossed assignment reported separable")
	}
	good := []int{0, 1}
	if rep2 := VerifySeparation(ps, good, Z, 2, 1e-9); !rep2.Separable {
		t.Fatal("natural assignment reported non-separable")
	}
}

func TestFromAssignmentRegionsReproduceAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mismatches := 0
	for trial := 0; trial < 20; trial++ {
		n, k := 14, 3
		ps := randPts(rng, n, 2, 100000)
		Z := randPts(rng, k, 2, 100000)
		tcap := 5.0
		res, ok := optimal(ps, Z, tcap, 2)
		if !ok {
			continue
		}
		hs, sep := FromAssignment(ps, res.Assign, Z, 2)
		if !sep {
			continue // exact κ ties; the paper resolves them by switching
		}
		for i, p := range ps {
			reg := hs.Region(p)
			if reg != res.Assign[i] {
				// Allowed only if p sits exactly on a threshold.
				onBoundary := false
				for j := 0; j < k; j++ {
					if j == res.Assign[i] {
						continue
					}
					a, b := res.Assign[i], j
					var key, thr float64
					if a < b {
						key, thr = PairKey(p, Z[a], Z[b], 2), hs.A[a][b]
					} else {
						key, thr = PairKey(p, Z[b], Z[a], 2), hs.A[b][a]
					}
					if math.Abs(key-thr) < 1e-9 {
						onBoundary = true
					}
				}
				if !onBoundary {
					mismatches++
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d interior points disagree with their half-space region", mismatches)
	}
}

func TestRegionCounts(t *testing.T) {
	Z := []geo.Point{{10, 10}, {90, 90}}
	hs := NewHalfSpaceSet(Z, 2)
	// Threshold at κ = 0: the perpendicular bisector.
	hs.A[0][1] = 0
	ws := []geo.Weighted{
		{P: geo.Point{5, 5}, W: 1},   // near z0
		{P: geo.Point{20, 15}, W: 2}, // near z0
		{P: geo.Point{95, 95}, W: 4}, // near z1
	}
	b := hs.RegionCounts(ws)
	if b[0] != 0 {
		t.Fatalf("region 0 weight = %v", b[0])
	}
	if b[1] != 3 || b[2] != 4 {
		t.Fatalf("region weights = %v", b)
	}
}

func TestRegionResidual(t *testing.T) {
	// With contradictory thresholds a point can fall in no region (R_0).
	Z := []geo.Point{{10, 10}, {90, 90}}
	hs := NewHalfSpaceSet(Z, 2)
	hs.A[0][1] = math.Inf(-1) // nobody is in H_(0,1) ... every p has κ > −∞? κ finite ⇒ all fail
	p := geo.Point{5, 5}
	if reg := hs.Region(p); reg != 1 {
		// p not in H_(0,1) ⇒ not region 0; p in H_(1,0) = complement ⇒ region 1.
		t.Fatalf("region = %d, want 1", reg)
	}
}

func TestTransferredAssignmentSmallRegionsCollapse(t *testing.T) {
	// Definition 3.11: regions with b_i < 2ξT collapse into the largest
	// region's center.
	Z := []geo.Point{{10, 10}, {50, 50}, {90, 90}}
	hs := NewHalfSpaceSet(Z, 2)
	hs.A[0][1] = 0
	hs.A[0][2] = 0
	hs.A[1][2] = 0
	ws := []geo.Weighted{
		{P: geo.Point{10, 11}, W: 1},  // region 0 (tiny)
		{P: geo.Point{50, 51}, W: 50}, // region 1 (huge)
		{P: geo.Point{51, 50}, W: 50}, // region 1
		{P: geo.Point{90, 91}, W: 1},  // region 2 (tiny)
	}
	B := hs.RegionCounts(ws)
	xi, T := 0.05, 100.0 // 2ξT = 10: regions of weight 1 are "small"
	pi := TransferredAssignment(ws, hs, B, xi, T)
	if pi[1] != 1 || pi[2] != 1 {
		t.Fatalf("large region reassigned: %v", pi)
	}
	if pi[0] != 1 || pi[3] != 1 {
		t.Fatalf("small regions must collapse to i* = 1: %v", pi)
	}
	// With a low threshold nothing collapses.
	pi2 := TransferredAssignment(ws, hs, B, 0.001, T)
	if pi2[0] != 0 || pi2[3] != 2 {
		t.Fatalf("low threshold must preserve regions: %v", pi2)
	}
}

func TestTransferredAssignmentBadB(t *testing.T) {
	Z := []geo.Point{{1, 1}}
	hs := NewHalfSpaceSet(Z, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong-length B")
		}
	}()
	TransferredAssignment(nil, hs, []float64{1, 2, 3}, 0.1, 1)
}

func TestTransferPreservesCostAndSizesApproximately(t *testing.T) {
	// Lemma 3.12 shape: when H is valid for P and all regions are large,
	// the transferred assignment equals the original one.
	rng := rand.New(rand.NewSource(5))
	ps := randPts(rng, 30, 2, 1000)
	Z := randPts(rng, 3, 2, 1000)
	res, ok := optimal(ps, Z, 12, 2)
	if !ok {
		t.Skip("infeasible draw")
	}
	hs, sep := FromAssignment(ps, res.Assign, Z, 2)
	if !sep {
		t.Skip("tied draw")
	}
	ws := geo.UnitWeights(ps)
	B := hs.RegionCounts(ws)
	pi := TransferredAssignment(ws, hs, B, 1e-9, float64(len(ps)))
	for i := range pi {
		if pi[i] != res.Assign[i] && hs.Region(ps[i]) == res.Assign[i] {
			t.Fatalf("transfer changed an interior large-region point %d", i)
		}
	}
}

func TestCanonicalizeTiesSwapsAlphabetically(t *testing.T) {
	// Two points exactly on the bisector of z0,z1, assigned "crosswise":
	// the switching of Lemma 3.8 must reorder them alphabetically without
	// changing cost or sizes.
	Z := []geo.Point{{1, 3}, {5, 3}}
	ps := geo.PointSet{{3, 1}, {3, 5}} // κ = 0 for both
	pi := []int{1, 0}                  // (3,1)→z1, (3,5)→z0
	costBefore := CostOfAssignment(geo.UnitWeights(ps), Z, pi, 2)
	swaps := CanonicalizeTies(ps, pi, Z, 2)
	if swaps != 1 {
		t.Fatalf("swaps = %d, want 1", swaps)
	}
	if pi[0] != 0 || pi[1] != 1 {
		t.Fatalf("pi = %v, want [0 1]", pi)
	}
	costAfter := CostOfAssignment(geo.UnitWeights(ps), Z, pi, 2)
	if math.Abs(costBefore-costAfter) > 1e-9 {
		t.Fatalf("switching changed cost: %v → %v", costBefore, costAfter)
	}
}

func TestCanonicalizeTiesNoOpOnSeparated(t *testing.T) {
	Z := []geo.Point{{1, 1}, {100, 100}}
	ps := geo.PointSet{{2, 2}, {99, 99}}
	pi := []int{0, 1}
	if swaps := CanonicalizeTies(ps, pi, Z, 2); swaps != 0 {
		t.Fatalf("swaps = %d on already-canonical assignment", swaps)
	}
}
