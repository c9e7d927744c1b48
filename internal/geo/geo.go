// Package geo provides the geometric substrate for streaming balanced
// clustering: integer grid points in [Δ]^d, ℓ2 and ℓ_r distances, weighted
// point sets, and the alphabetical order used by the paper's half-space
// construction (Definition 2.2).
//
// All input and output points live on the integer grid {1, ..., Δ}^d, per
// Section 1.1 of the paper; distances are Euclidean, and the ℓ_r clustering
// cost raises the Euclidean distance to the r-th power (Section 2).
package geo

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Point is a point of the integer grid [Δ]^d. The zero-length Point is
// valid only as a sentinel; all real points have dimension ≥ 1.
type Point []int64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Less reports whether p precedes q in the alphabetical (lexicographic)
// order of Section 2: p < q iff at the first differing coordinate i,
// p_i < q_i. Points of different dimension are ordered by dimension first
// so that Less remains a strict weak ordering on mixed inputs.
func (p Point) Less(q Point) bool {
	if len(p) != len(q) {
		return len(p) < len(q)
	}
	for i := range p {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return false
}

// Compare returns -1, 0, or +1 as p is alphabetically before, equal to, or
// after q.
func (p Point) Compare(q Point) int {
	if c := cmp.Compare(len(p), len(q)); c != 0 {
		return c
	}
	return slices.Compare(p, q)
}

// String renders the point as "(x1,x2,...)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	b.WriteByte(')')
	return b.String()
}

// InRange reports whether every coordinate of p lies in [1, delta].
func (p Point) InRange(delta int64) bool {
	for _, c := range p {
		if c < 1 || c > delta {
			return false
		}
	}
	return true
}

// Check returns an error unless p has dim coordinates, each in
// [1, delta]: a point every grid of that domain places in its root cell.
func (p Point) Check(dim int, delta int64) error {
	if len(p) != dim {
		return fmt.Errorf("point %v has dim %d, want %d", p, len(p), dim)
	}
	if !p.InRange(delta) {
		return fmt.Errorf("point %v is outside [1, %d]^%d", p, delta, dim)
	}
	return nil
}

// DistSq returns the squared Euclidean distance between p and q.
// It panics if the dimensions differ.
func DistSq(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geo: dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := float64(p[i] - q[i])
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 {
	return math.Sqrt(DistSq(p, q))
}

// DistR returns dist(p,q)^r, the ℓ_r clustering cost of serving p from q.
// Fast paths cover the two cases the paper highlights: capacitated
// k-median (r = 1) and capacitated k-means (r = 2).
func DistR(p, q Point, r float64) float64 {
	switch r {
	case 2:
		return DistSq(p, q)
	case 1:
		return Dist(p, q)
	default:
		d := DistSq(p, q)
		if d == 0 {
			return 0
		}
		return math.Pow(d, r/2)
	}
}

// PowR returns d^r for a nonnegative Euclidean distance d, with the same
// fast paths as DistR.
func PowR(d, r float64) float64 {
	switch r {
	case 1:
		return d
	case 2:
		return d * d
	default:
		if d == 0 {
			return 0
		}
		return math.Pow(d, r)
	}
}

// DistRMatrix fills dst — row-major, len(ps)×len(Z) — with the full
// cost block dst[i*len(Z)+j] = DistR(ps[i], Z[j], r) and returns it,
// growing dst only if it is too small. This is the blocked kernel behind
// the assignment engine: the r-switch and the dimension checks are
// hoisted out of the double loop, the r ∈ {1, 2} fast paths never touch
// math.Pow, and d = 2 (the dominant experiment shape) runs an unrolled
// inner loop. Every entry is bit-identical to the scalar DistR — the
// accumulation order per pair is the same — so swapping a scalar loop
// for the kernel never perturbs downstream floats.
func DistRMatrix(ps PointSet, Z []Point, r float64, dst []float64) []float64 {
	return distRBlock(len(ps), func(i int) Point { return ps[i] }, Z, r, dst)
}

// DistRMatrixW is DistRMatrix over the points of a weighted set, without
// materializing the PointSet.
func DistRMatrixW(ws []Weighted, Z []Point, r float64, dst []float64) []float64 {
	return distRBlock(len(ws), func(i int) Point { return ws[i].P }, Z, r, dst)
}

func distRBlock(n int, point func(int) Point, Z []Point, r float64, dst []float64) []float64 {
	k := len(Z)
	need := n * k
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	if need == 0 {
		return dst
	}
	d := len(point(0))
	for i := 0; i < n; i++ {
		if len(point(i)) != d {
			panic(fmt.Sprintf("geo: dimension mismatch %d vs %d", d, len(point(i))))
		}
	}
	for _, z := range Z {
		if len(z) != d {
			panic(fmt.Sprintf("geo: dimension mismatch %d vs %d", d, len(z)))
		}
	}
	// Squared Euclidean block first (the common substrate of every r).
	if d == 2 {
		for i := 0; i < n; i++ {
			p := point(i)
			p0, p1 := p[0], p[1]
			row := dst[i*k : (i+1)*k]
			for j, z := range Z {
				dx := float64(p0 - z[0])
				dy := float64(p1 - z[1])
				s := dx * dx
				s += dy * dy
				row[j] = s
			}
		}
	} else {
		for i := 0; i < n; i++ {
			p := point(i)
			row := dst[i*k : (i+1)*k]
			for j, z := range Z {
				var s float64
				for c := range p {
					dd := float64(p[c] - z[c])
					s += dd * dd
				}
				row[j] = s
			}
		}
	}
	switch r {
	case 2:
		// dst already holds DistSq.
	case 1:
		for i, v := range dst {
			dst[i] = math.Sqrt(v)
		}
	default:
		for i, v := range dst {
			if v == 0 {
				continue
			}
			dst[i] = math.Pow(v, r/2)
		}
	}
	return dst
}

// DistToSet returns min_{z in Z} dist(p, z) and the index of the nearest
// center, breaking ties toward the smaller index. It panics if Z is empty.
func DistToSet(p Point, Z []Point) (float64, int) {
	if len(Z) == 0 {
		panic("geo: DistToSet with empty center set")
	}
	best := math.Inf(1)
	arg := 0
	for i, z := range Z {
		if d := DistSq(p, z); d < best {
			best = d
			arg = i
		}
	}
	return math.Sqrt(best), arg
}

// Weighted is a point with a positive weight, as produced by the coreset
// construction (w' : Q' → R_{>0}).
type Weighted struct {
	P Point
	W float64
}

// PointSet is an ordered multiset of points.
type PointSet []Point

// Clone deep-copies the point set.
func (ps PointSet) Clone() PointSet {
	out := make(PointSet, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

// Dim returns the dimension of the points, or 0 for an empty set.
func (ps PointSet) Dim() int {
	if len(ps) == 0 {
		return 0
	}
	return len(ps[0])
}

// TotalWeight sums the weights of a weighted set.
func TotalWeight(ws []Weighted) float64 {
	var s float64
	for _, w := range ws {
		s += w.W
	}
	return s
}

// Centroid returns the (real-valued) mean of the weighted points. It
// panics on an empty or zero-weight input.
func Centroid(ws []Weighted) []float64 {
	if len(ws) == 0 {
		panic("geo: centroid of empty set")
	}
	d := len(ws[0].P)
	c := make([]float64, d)
	var tot float64
	for _, w := range ws {
		for i := range c {
			c[i] += w.W * float64(w.P[i])
		}
		tot += w.W
	}
	if tot <= 0 {
		panic("geo: centroid of zero-weight set")
	}
	for i := range c {
		c[i] /= tot
	}
	return c
}

// RoundToGrid maps a real point onto the integer grid [1, delta]^d by
// rounding each coordinate to the nearest grid value and clamping.
func RoundToGrid(c []float64, delta int64) Point {
	p := make(Point, len(c))
	for i, v := range c {
		r := int64(math.Round(v))
		if r < 1 {
			r = 1
		}
		if r > delta {
			r = delta
		}
		p[i] = r
	}
	return p
}

// MaxPairwiseDist returns max_{p,q in ps} dist(p,q) by brute force. Meant
// for tests and small parts; O(n² d).
func MaxPairwiseDist(ps PointSet) float64 {
	var m float64
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if d := DistSq(ps[i], ps[j]); d > m {
				m = d
			}
		}
	}
	return math.Sqrt(m)
}

// BoundingBox returns the per-coordinate min and max over the set. It
// panics on an empty set.
func BoundingBox(ps PointSet) (lo, hi Point) {
	if len(ps) == 0 {
		panic("geo: bounding box of empty set")
	}
	d := len(ps[0])
	lo = make(Point, d)
	hi = make(Point, d)
	copy(lo, ps[0])
	copy(hi, ps[0])
	for _, p := range ps[1:] {
		for i := range p {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
	}
	return lo, hi
}

// UnitWeights wraps a plain point set as weighted points of weight 1.
func UnitWeights(ps PointSet) []Weighted {
	out := make([]Weighted, len(ps))
	for i, p := range ps {
		out[i] = Weighted{P: p, W: 1}
	}
	return out
}

// Points extracts the underlying points of a weighted set.
func Points(ws []Weighted) PointSet {
	out := make(PointSet, len(ws))
	for i, w := range ws {
		out[i] = w.P
	}
	return out
}

// MaxCoordRange returns the smallest Δ = 2^L (L ≥ 0) such that every
// coordinate of every point lies in [1, Δ]. The paper assumes Δ is a
// power of two (Section 3.1) without loss of generality.
func MaxCoordRange(ps PointSet) int64 {
	var m int64 = 1
	for _, p := range ps {
		for _, c := range p {
			if c > m {
				m = c
			}
		}
	}
	d := int64(1)
	for d < m {
		d <<= 1
	}
	return d
}
