package stream

import (
	"math/rand"
	"testing"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/workload"
)

func TestCostBoundUpperBoundsOPT(t *testing.T) {
	// The certified direction: UpperBound must exceed the true optimal
	// cost (estimated from above by the cost at the generative centers —
	// which itself upper-bounds OPT, so require UpperBound ≥ OPT via a
	// k-means++ lower-bound proxy: UpperBound ≥ cost at FITTED centers /
	// small constant would be circular; instead check UpperBound ≥
	// cost(truec)/4, generous but directional, plus the band below).
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps, truec := workload.Mixture{N: 3000, D: 2, Delta: 1 << 10, K: 3, Spread: 8, Skew: 2}.Generate(rng)
		g := grid.New(1<<10, 2, rng)
		cb := NewCostBound(rng, g, 2, 256)
		for _, p := range ps {
			cb.Insert(p)
		}
		var ref float64 // an upper bound on OPT (cost at true centers)
		for _, p := range ps {
			d, _ := geo.DistToSet(p, truec)
			ref += d * d
		}
		u := cb.UpperBound(3)
		// The bound is certified from above (OPT ≤ u) but can be loose by
		// (g/σ)^r. Sanity band: not below a quarter of the true-center
		// cost, not uselessly astronomical.
		if u < ref/4 {
			t.Fatalf("seed %d: bound %v below the true-center cost %v/4 — cannot upper-bound OPT", seed, u, ref)
		}
		if u > 1e6*ref {
			t.Fatalf("seed %d: bound %v uselessly loose vs %v", seed, u, ref)
		}
		if o := cb.Guess(3); o > u/4 {
			t.Fatalf("seed %d: guess %v above UpperBound/4 = %v", seed, o, u/4)
		}
	}
}

func TestCostBoundDeletions(t *testing.T) {
	// After deleting a far-away ghost cluster, the bound must contract to
	// the survivors' scale.
	rng := rand.New(rand.NewSource(7))
	g := grid.New(1<<10, 2, rng)
	cb := NewCostBound(rng, g, 2, 256)

	// One tight blob (cheap) + a ghost spread over the whole domain
	// (expensive), then remove the ghost.
	blob, _ := workload.TwoBlobs(rng, 2000, 1<<10, 1.0, 4)
	ghost := workload.UniformBox(rng, 2000, 2, 1<<10)
	for _, p := range blob {
		cb.Insert(p)
	}
	withBlobOnly := cb.UpperBound(2)
	for _, p := range ghost {
		cb.Insert(p)
	}
	withGhost := cb.UpperBound(2)
	for _, p := range ghost {
		cb.Delete(p)
	}
	afterDelete := cb.UpperBound(2)

	if withGhost <= withBlobOnly {
		t.Fatalf("ghost must raise the bound: %v vs %v", withGhost, withBlobOnly)
	}
	// Deletions must bring it back to the blob-only value exactly
	// (linear sketches, same state).
	if afterDelete != withBlobOnly {
		t.Fatalf("bound after deletions %v != blob-only %v", afterDelete, withBlobOnly)
	}
}

func TestCostBoundEmptyAndTrivial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := grid.New(1<<8, 2, rng)
	cb := NewCostBound(rng, g, 2, 64)
	if u := cb.UpperBound(2); u != 0 {
		t.Fatalf("empty: %v", u)
	}
	if cb.Guess(2) != 1 {
		t.Fatal("empty guess must be 1")
	}
	// A single point: some level isolates it; the bound must collapse to
	// a fine level (cost ≈ cell diameter^r, tiny).
	cb.Insert(geo.Point{17, 33})
	if u := cb.UpperBound(2); u > 8 { // n=1 × (√2·1)² = 2 at the unit level
		t.Fatalf("single-point bound %v not at the unit level", u)
	}
}

func TestCostBoundBytesIndependentOfN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := grid.New(1<<10, 2, rng)
	cb := NewCostBound(rng, g, 2, 128)
	before := cb.Bytes()
	for i := 0; i < 20000; i++ {
		cb.Insert(geo.Point{1 + rng.Int63n(1<<10), 1 + rng.Int63n(1<<10)})
	}
	if cb.Bytes() != before {
		t.Fatal("cost bound state grew with the stream")
	}
	if cb.N() != 20000 {
		t.Fatalf("N = %d", cb.N())
	}
}

// TestCostBoundApplyMatchesPerOp: the columnar batch update Auto.Apply
// runs in its pool — keys derived once per batch, ops coalesced per
// level, each F₀ ladder level sampled over the whole column — must leave
// the state bit-identical to Insert/Delete of every op, for batches that
// carry duplicates and +1/−1 pairs (zero-delta rows), whatever the level
// split.
func TestCostBoundApplyMatchesPerOp(t *testing.T) {
	newCB := func() *CostBound {
		rng := rand.New(rand.NewSource(11))
		return NewCostBound(rng, grid.New(1<<10, 2, rng), 2, 64)
	}
	ref, cb := newCB(), newCB()
	gb := grid.New(1<<10, 2, rand.New(rand.NewSource(12)))
	fp := hashing.NewFingerprint(rand.New(rand.NewSource(13)))
	var b batch
	for _, ops := range rateOneBatches(rand.New(rand.NewSource(14)), []int{1, 5, 64, 300, 1000}) {
		for _, op := range ops {
			if op.Delete {
				ref.Delete(op.P)
			} else {
				ref.Insert(op.P)
			}
		}
		b.build(gb, fp, ops)
		cb.keyBatch(&b)
		cb.applyLevels(&b, 0, 3)
		cb.applyLevels(&b, 4, cb.g.L)
		if cb.N() != ref.N() || cb.Digest() != ref.Digest() {
			t.Fatalf("batch of %d: state diverged from per-op replay (N %d vs %d)", len(ops), cb.N(), ref.N())
		}
	}
	if u, v := cb.UpperBound(3), ref.UpperBound(3); u != v {
		t.Fatalf("UpperBound %v vs %v", u, v)
	}
}
