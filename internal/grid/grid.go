// Package grid implements the randomly shifted hierarchical grids
// G_{-1}, G_0, ..., G_L of Section 3.1. Grid G_i partitions space into
// axis-aligned cells of side length g_i = Δ/2^i; G_{-1} has side 2Δ so a
// single cell contains all of [Δ]^d; G_L has unit cells, so each cell of
// G_L holds at most one distinct location.
//
// The paper shifts the grid by a uniform real vector v ∈ [0,Δ]^d. Because
// all inputs live on the integer grid, shifting by an integer vector
// v ∈ {0,...,Δ−1}^d is distributionally equivalent for every event the
// analysis uses (which cell a point falls in only depends on ⌊v⌋ when
// points are integral); it is also exactly representable, so cell
// membership is computed with pure integer arithmetic.
package grid

import (
	"fmt"
	"math"
	"math/rand"

	"streambalance/internal/geo"
	"streambalance/internal/hashing"
)

// MinLevel is the coarsest grid level, G_{-1}, whose single cell covers
// the whole domain.
const MinLevel = -1

// Grid is a hierarchy of randomly shifted grids over [Δ]^d.
type Grid struct {
	Delta int64   // domain bound; power of two
	L     int     // Δ = 2^L
	Dim   int     // dimension d
	Shift []int64 // integer shift, one entry per coordinate, in [0, Δ)

	fp *hashing.Fingerprint
}

// New creates a grid hierarchy over [delta]^dim with a random shift drawn
// from rng. delta must be a power of two (use geo.MaxCoordRange to round
// up).
func New(delta int64, dim int, rng *rand.Rand) *Grid {
	if delta < 1 || delta&(delta-1) != 0 {
		panic(fmt.Sprintf("grid: delta %d is not a positive power of two", delta))
	}
	if dim < 1 {
		panic("grid: dimension must be >= 1")
	}
	l := 0
	for int64(1)<<l < delta {
		l++
	}
	shift := make([]int64, dim)
	for i := range shift {
		shift[i] = rng.Int63n(delta)
	}
	return &Grid{Delta: delta, L: l, Dim: dim, Shift: shift, fp: hashing.NewFingerprint(rng)}
}

// SideLen returns g_i = Δ/2^i, the side length of cells at level i
// (level −1 yields 2Δ).
func (g *Grid) SideLen(level int) int64 { return g.SideLenInt(level) }

// shiftBits returns log2(g_i) = L − i.
func (g *Grid) shiftBits(level int) uint {
	return uint(g.L - level)
}

// CellIndex returns the integer index vector of the level-i cell that
// contains p: index_j = (p_j + shift_j) >> (L − i).
func (g *Grid) CellIndex(p geo.Point, level int) []int64 {
	return g.CellIndexInto(make([]int64, 0, g.Dim), p, level)
}

// CellIndexInto appends the level-i cell index of p to dst and returns the
// extended slice — the allocation-free form of CellIndex for callers that
// reuse a scratch buffer (the batched ingestion pipeline computes one cell
// index per op per level this way).
func (g *Grid) CellIndexInto(dst []int64, p geo.Point, level int) []int64 {
	g.checkLevel(level)
	if len(p) != g.Dim {
		panic(fmt.Sprintf("grid: point dim %d != grid dim %d", len(p), g.Dim))
	}
	b := g.shiftBits(level)
	for j := range p {
		dst = append(dst, (p[j]+g.Shift[j])>>b)
	}
	return dst
}

// CellIndexN fills dst[t*Dim : (t+1)*Dim] with the level-i cell index of
// pts[t] for every point — the columnar form of CellIndexInto for the
// batched ingestion pipeline. The level range and the destination length
// are validated once per batch instead of once per point, and the inner
// loop is pure shift-add arithmetic; per-point dimension mismatches
// still panic (the check is a single compare). Bit-identical to
// len(pts) CellIndexInto calls, with the checked scalar API retained
// for external callers (TestCellIndexNNoAlloc pins both at 0 allocs).
func (g *Grid) CellIndexN(dst []int64, pts []geo.Point, level int) {
	g.checkLevel(level)
	d := g.Dim
	if len(dst) < len(pts)*d {
		panic(fmt.Sprintf("grid: CellIndexN dst length %d < %d points × dim %d", len(dst), len(pts), d))
	}
	b := g.shiftBits(level)
	shift := g.Shift
	for t, p := range pts {
		if len(p) != d {
			panic(fmt.Sprintf("grid: point dim %d != grid dim %d", len(p), d))
		}
		o := t * d
		for j := 0; j < d; j++ {
			dst[o+j] = (p[j] + shift[j]) >> b
		}
	}
}

// ParentIndex maps a level-i cell index to its level-(i−1) parent index.
func ParentIndex(idx []int64) []int64 {
	out := make([]int64, len(idx))
	for j, v := range idx {
		out[j] = v >> 1
	}
	return out
}

// ParentKeys fills keys[i] for i = level..0 with the cell key of the
// level-i ancestor of the cell idx, deriving each coarser index from the
// finer one by a one-bit shift (the ParentIndex relation) instead of
// recomputing every level from the point. idx is consumed: on return it
// holds the level-0 ancestor index. len(keys) must be at least level+1.
func (g *Grid) ParentKeys(keys []uint64, idx []int64, level int) {
	g.checkLevel(level)
	for i := level; i >= 0; i-- {
		keys[i] = g.KeyOf(i, idx)
		if i > 0 {
			for j := range idx {
				idx[j] >>= 1
			}
		}
	}
}

// ParentKeys4 is ParentKeys over four index vectors at once: per level
// it derives the four cell keys through the 4-lane tagged fingerprint
// kernel (hashing.KeyTagged4), so the four ops' Rabin–Karp chains — the
// serial-multiply bottleneck of the key column — overlap instead of
// running back to back. All index vectors are consumed like ParentKeys'
// idx; k0..k3 must each have length at least level+1. Bit-identical to
// four ParentKeys calls.
func (g *Grid) ParentKeys4(k0, k1, k2, k3 []uint64, i0, i1, i2, i3 []int64, level int) {
	g.checkLevel(level)
	for i := level; i >= 0; i-- {
		k0[i], k1[i], k2[i], k3[i] = g.fp.KeyTagged4(int64(i)+2, i0, i1, i2, i3)
		if i > 0 {
			for j := range i0 {
				i0[j] >>= 1
				i1[j] >>= 1
				i2[j] >>= 1
				i3[j] >>= 1
			}
		}
	}
}

// CellKey returns a 64-bit fingerprint key identifying the level-i cell
// containing p. Keys are unique across levels (the level is folded into
// the fingerprint) up to the fingerprint collision bound.
// Up to 8 dimensions the index lives in a stack buffer, so the call
// allocates nothing.
func (g *Grid) CellKey(p geo.Point, level int) uint64 {
	if g.Dim <= 8 {
		var buf [8]int64
		return g.KeyOf(level, g.CellIndexInto(buf[:0], p, level))
	}
	return g.KeyOf(level, g.CellIndex(p, level))
}

// PointKeys returns the keys of the level-(i−1) and level-i cells that
// contain p, deriving the parent index from the level-i one by a one-bit
// shift (the ParentIndex relation). Equal to CellKey(p, level−1),
// CellKey(p, level); level must be in 0..L. Up to 8 dimensions it
// allocates nothing.
func (g *Grid) PointKeys(p geo.Point, level int) (parent, key uint64) {
	var buf [8]int64
	idx := buf[:0]
	if g.Dim > 8 {
		idx = make([]int64, 0, g.Dim)
	}
	idx = g.CellIndexInto(idx, p, level)
	key = g.KeyOf(level, idx)
	for j := range idx {
		idx[j] >>= 1
	}
	return g.KeyOf(level-1, idx), key
}

// ParentKey returns the key of the level-(i−1) parent of the level-i cell
// with index idx: KeyOf(level−1, ParentIndex(idx)), without allocating up
// to 8 dimensions. idx is not modified.
func (g *Grid) ParentKey(level int, idx []int64) uint64 {
	var buf [8]int64
	parent := buf[:0]
	if len(idx) > 8 {
		parent = make([]int64, 0, len(idx))
	}
	for _, v := range idx {
		parent = append(parent, v>>1)
	}
	return g.KeyOf(level-1, parent)
}

// KeyOf fingerprints an explicit (level, index) pair. It allocates
// nothing: the level tag (offset by 2 so level −1 is representable as a
// positive value) is folded into the fingerprint directly.
func (g *Grid) KeyOf(level int, idx []int64) uint64 {
	return g.fp.KeyTagged(int64(level)+2, idx)
}

// Diameter returns the diameter bound √d·g_i for cells at level i: any
// two points in the same level-i cell are within this distance.
func (g *Grid) Diameter(level int) float64 {
	return math.Sqrt(float64(g.Dim)) * float64(g.SideLenInt(level))
}

// SideLenInt returns g_i exactly as an int64.
func (g *Grid) SideLenInt(level int) int64 {
	g.checkLevel(level)
	return int64(1) << g.shiftBits(level)
}

// Levels returns the number of levels 0..L (i.e. L+1); callers iterate
// level = 0 ... L and may additionally use level −1.
func (g *Grid) Levels() int { return g.L + 1 }

func (g *Grid) checkLevel(level int) {
	if level < MinLevel || level > g.L {
		panic(fmt.Sprintf("grid: level %d out of range [%d, %d]", level, MinLevel, g.L))
	}
}

// SameCell reports whether p and q fall in the same level-i cell.
func (g *Grid) SameCell(p, q geo.Point, level int) bool {
	b := g.shiftBits(level)
	for j := range p {
		if (p[j]+g.Shift[j])>>b != (q[j]+g.Shift[j])>>b {
			return false
		}
	}
	return true
}
