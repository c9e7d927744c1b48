package assign

import (
	"math"

	"streambalance/internal/geo"
)

// PairKey computes κ_{ij}(p) = dist^r(p, z_i) − dist^r(p, z_j), the
// quantity whose level sets are the paper's curved hyperplanes
// {x : dist^r(x,z_i) − dist^r(x,z_j) = a} (Section 1.2). For r = 2 the
// level sets are genuine hyperplanes perpendicular to z_i z_j (Figure 1);
// for r ≠ 2 they are curved (e.g. hyperbola branches for r = 1,
// Figure 3).
func PairKey(p, zi, zj geo.Point, r float64) float64 {
	return geo.DistR(p, zi, r) - geo.DistR(p, zj, r)
}

// HalfSpaceSet is a set of assignment half-spaces (Definition 3.7): one
// curved-hyperplane threshold A[i][j] per center pair i < j. A point
// belongs to H_{(i,j)} when κ_{ij}(p) ≤ A[i][j] (ties inside a threshold
// are resolved alphabetically by the construction that produced the
// thresholds, per Definition 2.2; thresholds derived from point data are
// placed strictly between clusters whenever possible, so membership here
// needs no tie-break).
type HalfSpaceSet struct {
	Z []geo.Point
	R float64
	A [][]float64 // upper-triangular: A[i][j] valid for i < j
}

// NewHalfSpaceSet allocates a threshold set for k centers with all
// thresholds at +∞ (every point in H_{(i,j)} for i < j).
func NewHalfSpaceSet(Z []geo.Point, r float64) *HalfSpaceSet {
	k := len(Z)
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k)
		for j := range a[i] {
			a[i][j] = math.Inf(1)
		}
	}
	return &HalfSpaceSet{Z: Z, R: r, A: a}
}

// In reports whether p ∈ H_{(i,j)}. For i < j this tests
// κ_{ij}(p) ≤ A[i][j]; for i > j it is the complement H_{(j,i)}^c per
// Definition 3.7.
func (h *HalfSpaceSet) In(p geo.Point, i, j int) bool {
	if i < j {
		return PairKey(p, h.Z[i], h.Z[j], h.R) <= h.A[i][j]
	}
	return PairKey(p, h.Z[j], h.Z[i], h.R) > h.A[j][i]
}

// Region returns the region index of p under the induced regions of
// Definition 3.10: i ∈ [0, k) if p lies in H_{(i,j)} for every j ≠ i, or
// −1 for the residual region R_0 (no center claims p).
func (h *HalfSpaceSet) Region(p geo.Point) int {
	k := len(h.Z)
	for i := 0; i < k; i++ {
		ok := true
		for j := 0; j < k && ok; j++ {
			if j != i && !h.In(p, i, j) {
				ok = false
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

// RegionCounts returns the total weight of the given points falling in
// each region: index 0 holds region R_0's weight, index i+1 region R_i's
// (matching the B = (b_0, ..., b_k) vector of Definition 3.11).
func (h *HalfSpaceSet) RegionCounts(ws []geo.Weighted) []float64 {
	b := make([]float64, len(h.Z)+1)
	for _, w := range ws {
		r := h.Region(w.P)
		b[r+1] += w.W // r == −1 → b[0]
	}
	return b
}

// FromAssignment derives a HalfSpaceSet consistent with an optimal
// assignment pi of the points ps (Lemma 3.8): for each pair i < j the
// threshold is placed between max{κ_{ij}(p) : π(p)=z_i} and
// min{κ_{ij}(p) : π(p)=z_j}. separable is false if some pair strictly
// interleaves — which contradicts optimality of pi up to ties, so a false
// return on an optimal assignment indicates exact κ ties between
// clusters (resolved by the paper with alphabetical switching; callers
// that need strict separation should call CanonicalizeTies first).
func FromAssignment(ps geo.PointSet, pi []int, Z []geo.Point, r float64) (hs *HalfSpaceSet, separable bool) {
	hs = NewHalfSpaceSet(Z, r)
	separable = true
	k := len(Z)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			maxI := math.Inf(-1)
			minJ := math.Inf(1)
			for idx, p := range ps {
				switch pi[idx] {
				case i:
					if v := PairKey(p, Z[i], Z[j], r); v > maxI {
						maxI = v
					}
				case j:
					if v := PairKey(p, Z[i], Z[j], r); v < minJ {
						minJ = v
					}
				}
			}
			switch {
			case math.IsInf(maxI, -1) && math.IsInf(minJ, 1):
				// Neither cluster populated; keep +∞ (arbitrary).
			case math.IsInf(minJ, 1):
				hs.A[i][j] = maxI
			case math.IsInf(maxI, -1):
				hs.A[i][j] = math.Nextafter(minJ, math.Inf(-1))
			case maxI < minJ:
				hs.A[i][j] = maxI + (minJ-maxI)/2
			case maxI == minJ:
				hs.A[i][j] = maxI // tie: both sides touch the hyperplane
			default:
				separable = false
				hs.A[i][j] = maxI
			}
		}
	}
	return hs, separable
}

// SeparationReport is the outcome of verifying the Lemma 3.8 structure on
// an assignment.
type SeparationReport struct {
	Separable      bool
	WorstViolation float64 // max over pairs of (maxI − minJ) when positive
	PairsChecked   int
}

// VerifySeparation checks that for every pair of clusters (i, j) of the
// assignment pi, max κ_{ij} over cluster i ≤ min κ_{ij} over cluster j
// (within tol) — the defining property of the curved-hyperplane
// separation from Figures 1–3: if it failed strictly, swapping the two
// offending points would reduce the cost without changing cluster sizes,
// contradicting optimality.
func VerifySeparation(ps geo.PointSet, pi []int, Z []geo.Point, r float64, tol float64) SeparationReport {
	rep := SeparationReport{Separable: true}
	k := len(Z)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			rep.PairsChecked++
			maxI := math.Inf(-1)
			minJ := math.Inf(1)
			for idx, p := range ps {
				switch pi[idx] {
				case i:
					if v := PairKey(p, Z[i], Z[j], r); v > maxI {
						maxI = v
					}
				case j:
					if v := PairKey(p, Z[i], Z[j], r); v < minJ {
						minJ = v
					}
				}
			}
			if viol := maxI - minJ; viol > tol {
				rep.Separable = false
				if viol > rep.WorstViolation {
					rep.WorstViolation = viol
				}
			}
		}
	}
	return rep
}

// CanonicalizeTies applies the switching argument of Lemma 3.8 /
// Section 3.3 step 1c to an optimal assignment: whenever two points in
// different clusters have exactly equal pair keys but alphabetically
// inverted order, their centers are swapped. The resulting assignment has
// the same cost and size vector and is strictly consistent with a set of
// assignment half-spaces. pi is modified in place; the number of swaps is
// returned.
func CanonicalizeTies(ps geo.PointSet, pi []int, Z []geo.Point, r float64) int {
	k := len(Z)
	swaps := 0
	for {
		changed := false
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				for a := range ps {
					if pi[a] != j {
						continue
					}
					ka := PairKey(ps[a], Z[i], Z[j], r)
					for b := range ps {
						if pi[b] != i {
							continue
						}
						kb := PairKey(ps[b], Z[i], Z[j], r)
						// π(b)=z_i must precede π(a)=z_j in (κ, alphabetical)
						// order; equal keys with b after a get switched.
						if kb == ka && ps[a].Less(ps[b]) {
							pi[a], pi[b] = pi[b], pi[a]
							swaps++
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return swaps
		}
	}
}
