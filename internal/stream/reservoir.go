package stream

import (
	"math/rand"

	"streambalance/internal/geo"
)

// Reservoir maintains a uniform sample of the points inserted so far
// (classic reservoir sampling). It is exact for insertion-only streams;
// any deletion marks it dirty, because a uniform sample of the survivors
// cannot be maintained in small space without ℓ₀-sampling machinery (the
// reason Theorem 4.5 invokes [HSYZ18] for the dynamic case). Auto uses a
// clean reservoir to pick the guess o the way the paper does — from a
// constant-factor OPT estimate — and falls back to FAIL/weight-based
// selection when the reservoir is dirty.
type Reservoir struct {
	size  int
	seen  int64
	items geo.PointSet
	rng   *rand.Rand
	dirty bool
}

// NewReservoir creates a reservoir holding up to size points.
func NewReservoir(size int, seed int64) *Reservoir {
	if size < 1 {
		size = 1
	}
	return &Reservoir{size: size, rng: rand.New(rand.NewSource(seed))}
}

// Insert offers a point. A dirty reservoir only counts it: its sample is
// never read again.
func (rv *Reservoir) Insert(p geo.Point) {
	rv.seen++
	if rv.dirty {
		return
	}
	if len(rv.items) < rv.size {
		rv.items = append(rv.items, p.Clone())
		return
	}
	if j := rv.rng.Int63n(rv.seen); j < int64(rv.size) {
		rv.items[j] = p.Clone()
	}
}

// Delete marks the reservoir dirty and releases its sample: a dirty
// reservoir is never consulted again (Auto selects by estimate only
// while Clean), so there is nothing left to keep in sync.
func (rv *Reservoir) Delete(geo.Point) {
	rv.dirty = true
	rv.items = nil
}

// Clean reports whether the sample is an unbiased uniform sample (no
// deletions seen).
func (rv *Reservoir) Clean() bool { return !rv.dirty }

// Sample returns the current sample (shared backing; callers must not
// mutate); empty once dirty.
func (rv *Reservoir) Sample() geo.PointSet { return rv.items }

// Seen returns the number of insertions offered.
func (rv *Reservoir) Seen() int64 { return rv.seen }
