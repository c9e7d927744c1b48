package stream

import (
	"math"
	"math/rand"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/sketch"
)

// CostBound is a one-pass, deletion-proof cost estimator in the style of
// the [HSYZ18] component Theorem 4.5 cites for guess selection. It
// maintains, per grid level, an F₀ sketch of the non-empty cells. At
// query time, if all surviving points occupy at most k cells of side
// g_j, then placing one center inside each non-empty cell certifies
// OPT ≤ n·(√d·g_j)^r.
//
// The bound is CERTIFIED from above but can be loose by (g_j/σ)^r when
// clusters are much tighter than the finest qualifying cell — so it
// serves as a pruning device and scan starting point for the guess
// enumeration (Auto), not as a standalone selector; the weight-sanity
// check remains the arbiter.
type CostBound struct {
	g  *grid.Grid
	r  float64
	f0 []*sketch.F0
	n  int64

	// Batch columns on g, filled on the caller by keyBatch and read by the
	// level units of Auto.Apply's pool (applyLevels).
	base []int64  // level-L cell index per op
	keys []uint64 // cell key per op per level, L+1 entries each
}

// NewCostBound creates the estimator. s controls each F₀ ladder's
// per-level sparsity (accuracy ≈ 1/√s; default 256 when 0).
func NewCostBound(rng *rand.Rand, g *grid.Grid, r float64, s int) *CostBound {
	if s == 0 {
		s = 256
	}
	cb := &CostBound{g: g, r: r, f0: make([]*sketch.F0, g.L+1)}
	maxCells := int64(1) << uint(min(62, g.Dim*g.L+1))
	for i := 0; i <= g.L; i++ {
		cb.f0[i] = sketch.NewF0(rng, maxCells, s, 0.01)
	}
	return cb
}

// Insert observes (p, +).
func (cb *CostBound) Insert(p geo.Point) { cb.update(p, 1) }

// Delete observes (p, −).
func (cb *CostBound) Delete(p geo.Point) { cb.update(p, -1) }

func (cb *CostBound) update(p geo.Point, delta int64) {
	cb.n += delta
	for i := 0; i <= cb.g.L; i++ {
		cb.f0[i].Update(cb.g.CellKey(p, i), delta)
	}
}

// keyBatch quantizes a batch's points once on the cost bound's own grid
// and derives every level's cell key (cellKeyColumns), ready for the
// level units of applyLevels; it also advances n by the batch's net
// count. It runs on the caller, before the pool starts.
func (cb *CostBound) keyBatch(b *batch) {
	cb.base, cb.keys = cellKeyColumns(cb.g, cb.base, cb.keys, b.pts)
	for _, sg := range b.sign {
		cb.n += sg
	}
}

// applyLevels applies the batch keyed by keyBatch to the F₀ ladders of
// levels lo..hi: per level the ops are coalesced by cell key (signs
// summed) and the distinct keys go to F0.UpdateN, which hashes the
// column once and filters each ladder level from the one before. Each level owns its ladder, so
// distinct level ranges may run concurrently in Auto.Apply's pool. F₀
// state is an exact linear sum, so the result is bit-identical to
// Insert/Delete of every op in stream order (TestCostBoundApplyMatchesPerOp).
func (cb *CostBound) applyLevels(b *batch, lo, hi int) {
	L := cb.g.L
	co := coalescerPool.Get().(*coalescer)
	defer coalescerPool.Put(co)
	for i := lo; i <= hi; i++ {
		co.reset(len(b.sign))
		for t, sg := range b.sign {
			co.deltas[co.slotOf(cb.keys[t*(L+1)+i], 0)] += sg
		}
		cb.f0[i].UpdateN(co.keys, co.deltas)
	}
}

// UpperBound returns a certified-style upper bound on the optimal
// uncapacitated ℓ_r k-clustering cost of the surviving points: the
// finest level whose estimated non-empty cell count is at most k yields
// n·(√d·g_level)^r. F₀ is exact whenever the count fits the ladder's
// base level, and the counts compared here are O(k). When no level
// qualifies, or the coarsest level is already too populous to count,
// the trivial domain-level bound is returned; an empty stream gives 0.
func (cb *CostBound) UpperBound(k int) float64 {
	if cb.n <= 0 {
		return 0
	}
	best := -1 // grid.MinLevel: the trivial bound
	for i := 0; i <= cb.g.L; i++ {
		c, ok := cb.f0[i].Estimate()
		if !ok {
			// This level is too populous to even count — finer levels are
			// denser still; stop.
			break
		}
		if c <= float64(k)+0.5 {
			best = i
		} else {
			break // cell counts only grow with depth
		}
	}
	diam := math.Sqrt(float64(cb.g.Dim)) * float64(cb.g.SideLen(best))
	return float64(cb.n) * geo.PowR(diam, cb.r)
}

// Guess converts the upper bound into the o a coreset instance should
// use, by the guess rule every selector applies
// (coreset.GuessFromEstimate).
func (cb *CostBound) Guess(k int) float64 {
	return coreset.GuessFromEstimate(cb.UpperBound(k))
}

// Bytes reports the total F₀ sketch footprint.
func (cb *CostBound) Bytes() int64 {
	var b int64
	for _, f := range cb.f0 {
		b += f.Bytes()
	}
	return b
}

// Digest folds n and every F₀ ladder's state into one 64-bit value;
// equal digests on cost bounds built from the same seed mean
// bit-identical state.
func (cb *CostBound) Digest() uint64 {
	d := hashing.Mix64(uint64(cb.n))
	for _, f := range cb.f0 {
		d = hashing.Mix64(d ^ f.Digest())
	}
	return d
}

// N returns the exact surviving-point count.
func (cb *CostBound) N() int64 { return cb.n }
