package assign

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/geo"
)

// TestLemma312TransferBounds verifies the quantitative conclusion of
// Lemma 3.12 on random instances: when the half-spaces H are valid for a
// part P (all points within a cell of diameter √d·g) and the region
// estimates B are good to (±ξT or 1±ξ), the transferred assignment π′
// satisfies
//
//	cost(π′) ≤ (1 + 2^{r+4}k²ξ)·cost(π) + ξ·2^{r+1}·k·T·(√d·g)^r
//	‖s(π′) − s(π)‖₁ ≤ 16kξ·Σw(p).
func TestLemma312TransferBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const r = 2.0
	for trial := 0; trial < 25; trial++ {
		g := int64(64)
		n := 20 + rng.Intn(20)
		k := 2 + rng.Intn(2)
		// Part P inside one cell; centers anywhere in a larger domain.
		base := geo.Point{1 + rng.Int63n(1000), 1 + rng.Int63n(1000)}
		ps := make(geo.PointSet, n)
		for i := range ps {
			ps[i] = geo.Point{base[0] + rng.Int63n(g), base[1] + rng.Int63n(g)}
		}
		Z := make([]geo.Point, k)
		for i := range Z {
			Z[i] = geo.Point{1 + rng.Int63n(2048), 1 + rng.Int63n(2048)}
		}
		tcap := math.Ceil(float64(n)/float64(k)) + 1
		res, ok := optimal(ps, Z, tcap, r)
		if !ok {
			continue
		}
		hs, sep := FromAssignment(ps, res.Assign, Z, r)
		if !sep {
			continue // exact ties; the lemma presumes a valid H
		}
		ws := geo.UnitWeights(ps)
		T := 0.9 * float64(n) // the lemma needs Σw ≥ 0.9T
		xi := 1.0 / (100 * float64(k) * 2)

		// Exact region counts perturbed within the allowed band.
		B := hs.RegionCounts(ws)
		for i := range B {
			B[i] += (rng.Float64()*2 - 1) * xi * T * 0.9
			if B[i] < 0 {
				B[i] = 0
			}
		}
		piT := transferredAssignment(ws, hs, B, xi, T)

		costPi := CostOfAssignment(ws, Z, res.Assign, r)
		costPiT := CostOfAssignment(ws, Z, piT, r)
		diag := math.Sqrt(2) * float64(g)
		bound := (1+math.Exp2(r+4)*float64(k*k)*xi)*costPi +
			xi*math.Exp2(r+1)*float64(k)*T*geo.PowR(diag, r)
		if costPiT > bound+1e-6 {
			t.Fatalf("trial %d: transfer cost %v exceeds Lemma 3.12 bound %v (base cost %v)",
				trial, costPiT, bound, costPi)
		}

		s1 := sizeVector(ws, res.Assign, k)
		s2 := sizeVector(ws, piT, k)
		var l1 float64
		for i := range s1 {
			l1 += math.Abs(s1[i] - s2[i])
		}
		if l1 > 16*float64(k)*xi*float64(n)+1e-9 {
			t.Fatalf("trial %d: ‖s(π')−s(π)‖₁ = %v exceeds 16kξ·n = %v",
				trial, l1, 16*float64(k)*xi*float64(n))
		}
	}
}
