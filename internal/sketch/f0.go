package sketch

import (
	"math"
	"math/rand"
	"sync"

	"streambalance/internal/hashing"
)

// F0 estimates the number of DISTINCT keys with nonzero net count in a
// dynamic stream (insertions and deletions), in small space. It keeps a
// geometric ladder of sparse-recovery sketches, level j subsampling keys
// with probability 2^{−j} (pairwise-independently): at decode time the
// finest level that decodes gives the distinct count scaled by 2^{j} —
// the classic sparse-recovery realization of F₀ estimation under
// deletions, the primitive the [HSYZ18] streaming cost estimator counts
// non-empty grid cells with. One pairwise hash h assigns every key its
// levels, the usual nested bands: the key reaches level j iff
// h(key) < p≫j, so level j's keys are a subset of level j−1's.
type F0 struct {
	levels  []*SparseRecovery
	samp    *hashing.KWise // the level-assignment hash
	s       int            // per-level sparsity
	maxKeys float64
}

// f0Scratch holds UpdateN's reusable columns. It is pooled rather than
// kept per F0: a ladder set holds one F0 per grid level, and at most one
// UpdateN per worker runs at a time.
type f0Scratch struct {
	rk, he []uint64 // reduced keys and their level-assignment hashes
	dl     []int64  // nonzero deltas
}

var f0ScratchPool = sync.Pool{New: func() any { return new(f0Scratch) }}

// NewF0 creates an estimator able to handle up to maxKeys distinct keys
// with relative error ≈ 1/√s per ladder level.
func NewF0(rng *rand.Rand, maxKeys int64, s int, delta float64) *F0 {
	if s < 16 {
		s = 16
	}
	depth := 2
	for (int64(1)<<(depth-1))*int64(s)/4 < maxKeys {
		depth++
	}
	f := &F0{s: s, maxKeys: float64(maxKeys), samp: hashing.NewKWise(rng, 2)}
	for j := 0; j < depth; j++ {
		f.levels = append(f.levels, NewSparseRecovery(rng, s, delta/float64(depth), 0))
	}
	return f
}

// Update applies a key-count delta to every level whose band holds the
// key's hash: levels 0 through the last j with h(key) < p≫j.
func (f *F0) Update(key uint64, delta int64) {
	key = hashing.Reduce64(key)
	h := f.samp.Eval(key)
	for j := 0; j < len(f.levels) && h < hashing.MersennePrime61>>uint(j); j++ {
		f.levels[j].Update(key, nil, delta)
	}
}

// UpdateN applies a column of key-count deltas — bit-identical to Update
// of every row, in any order, because each ladder level's state is an
// exact linear sum. Rows with a zero delta change nothing (there is no
// payload) and are dropped. The level-assignment hash runs once over the
// column through the 4-lane kernel (KWise.EvalN); each level then writes
// its rows with one UpdateScaledN, and level j's rows are filtered in
// place from level j−1's survivors, so the column shrinks by half per
// level instead of being rescanned whole.
func (f *F0) UpdateN(keys []uint64, deltas []int64) {
	if len(deltas) != len(keys) {
		panic("sketch: F0.UpdateN column length mismatch")
	}
	s := f0ScratchPool.Get().(*f0Scratch)
	defer f0ScratchPool.Put(s)
	rk, dl := s.rk[:0], s.dl[:0]
	for t, d := range deltas {
		if d != 0 {
			rk = append(rk, hashing.Reduce64(keys[t]))
			dl = append(dl, d)
		}
	}
	if cap(s.he) < len(rk) {
		s.he = make([]uint64, len(rk))
	}
	he := s.he[:len(rk)]
	s.rk, s.dl = rk, dl
	f.samp.EvalN(he, rk)
	for j := 0; j < len(f.levels) && len(rk) > 0; j++ {
		band, m := hashing.MersennePrime61>>uint(j), 0
		for t, h := range he {
			if h < band {
				rk[m], dl[m], he[m] = rk[t], dl[t], h
				m++
			}
		}
		rk, dl, he = rk[:m], dl[:m], he[:m]
		f.levels[j].UpdateScaledN(rk, nil, dl)
	}
}

// Estimate returns the estimated distinct-key count. ok is false when
// even the sparsest ladder level is over-full (maxKeys undersized).
func (f *F0) Estimate() (float64, bool) {
	for j := range f.levels {
		items, decoded := f.levels[j].Decode()
		if !decoded {
			continue
		}
		live := 0
		for _, it := range items {
			if it.Count != 0 {
				live++
			}
		}
		if j == 0 {
			return float64(live), true // exact when the full set fits
		}
		return float64(live) * math.Exp2(float64(j)), true
	}
	return 0, false
}

// Digest folds every ladder level's state into one 64-bit value (see
// SparseRecovery.Digest).
func (f *F0) Digest() uint64 {
	var d uint64
	for _, l := range f.levels {
		d = hashing.Mix64(d ^ l.Digest())
	}
	return d
}

// Bytes reports the ladder's memory footprint.
func (f *F0) Bytes() int64 {
	var b int64
	for _, l := range f.levels {
		b += l.Bytes()
	}
	return b
}
