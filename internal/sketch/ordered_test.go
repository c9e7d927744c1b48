package sketch

import (
	"math/rand"
	"testing"
)

// randBatch builds n (key, payload, delta) columns with nKeys distinct
// keys (duplicates guaranteed when n > nKeys) and deltas in [-3, 3]
// including zero.
func randBatch(rng *rand.Rand, n, nKeys, pd int) (keys []uint64, payload []int64, deltas []int64) {
	pool := make([]uint64, nKeys)
	for i := range pool {
		pool[i] = rng.Uint64()
	}
	keys = make([]uint64, n)
	deltas = make([]int64, n)
	if pd > 0 {
		payload = make([]int64, n*pd)
	}
	for t := 0; t < n; t++ {
		keys[t] = pool[rng.Intn(nKeys)]
		deltas[t] = int64(rng.Intn(7)) - 3
		for j := 0; j < pd; j++ {
			payload[t*pd+j] = int64(rng.Intn(2001)) - 1000
		}
	}
	return
}

// TestUpdateNOrderedMatchesScatter pins both write schedules of the
// UpdateScaledN kernel — bucket-ordered (updateOrderedN) and 4-lane
// scatter (updateLanesN), called directly so each runs at every batch
// size — and the size-based dispatch between them against row-at-a-time
// scalar writes: for batch sizes on both sides of the orderedMinRows
// threshold, payload dims 0 and 2, and deltas spanning negative and
// zero, all must leave bit-identical slabs.
func TestUpdateNOrderedMatchesScatter(t *testing.T) {
	for _, pd := range []int{0, 2} {
		for _, n := range []int{1, 3, orderedMinRows - 1, orderedMinRows, 257, 1024} {
			rng := rand.New(rand.NewSource(int64(1000*pd + n)))
			base := NewSparseRecovery(rand.New(rand.NewSource(7)), 32, 0.01, pd)
			keys, payload, deltas := randBatch(rng, n, 5+rng.Intn(n+1), pd)
			scaled := scaleRows(payload, deltas, pd)

			perOp := base.cloneEmpty()
			scalarUpdateN(perOp, keys, payload, deltas)

			ordered := base.cloneEmpty()
			ordered.updateOrderedN(keys, scaled, deltas)
			lanes := base.cloneEmpty()
			lanes.updateLanesN(keys, scaled, deltas)
			kernel := base.cloneEmpty()
			kernel.UpdateScaledN(keys, scaled, deltas)

			for _, tc := range []struct {
				name string
				sr   *SparseRecovery
			}{{"ordered", ordered}, {"lanes", lanes}, {"UpdateScaledN", kernel}} {
				if d1, d2 := perOp.Digest(), tc.sr.Digest(); d1 != d2 {
					t.Fatalf("pd=%d n=%d: %s digest %x != scalar %x", pd, n, tc.name, d2, d1)
				}
			}
		}
	}
}

// TestUpdateScaledNMatchesUpdateN verifies the pre-aggregated contract:
// manually coalescing a batch by key (summing deltas and delta-scaled
// payload rows) and feeding the sums through either write schedule must
// be bit-identical to the raw batch written row at a time — including
// coalesced rows whose delta sum cancels to zero while the payload sum
// does not, the case a naive zero-delta skip would drop.
func TestUpdateScaledNMatchesUpdateN(t *testing.T) {
	const pd = 3
	for _, n := range []int{2, 16, orderedMinRows * 4} {
		rng := rand.New(rand.NewSource(int64(n)))
		base := NewSparseRecovery(rand.New(rand.NewSource(11)), 24, 0.01, pd)
		keys, payload, deltas := randBatch(rng, n, 1+n/4, pd)
		// Force a zero-sum key with non-cancelling payload: +1 with payload
		// p and -1 with payload q != p.
		keys = append(keys, 0xdeadbeef, 0xdeadbeef)
		payload = append(payload, 5, 6, 7, 1, 2, 3)
		deltas = append(deltas, 1, -1)

		raw := base.cloneEmpty()
		scalarUpdateN(raw, keys, payload, deltas)

		// Coalesce by key in first-occurrence order, exactly as the ingest
		// coalescer does.
		idx := make(map[uint64]int)
		var cKeys []uint64
		var cScaled, cDeltas []int64
		for t := range keys {
			i, seen := idx[keys[t]]
			if !seen {
				i = len(cKeys)
				idx[keys[t]] = i
				cKeys = append(cKeys, keys[t])
				cScaled = append(cScaled, make([]int64, pd)...)
				cDeltas = append(cDeltas, 0)
			}
			cDeltas[i] += deltas[t]
			for j := 0; j < pd; j++ {
				cScaled[i*pd+j] += deltas[t] * payload[t*pd+j]
			}
		}

		ordered := base.cloneEmpty()
		ordered.updateOrderedN(cKeys, cScaled, cDeltas)
		lanes := base.cloneEmpty()
		lanes.updateLanesN(cKeys, cScaled, cDeltas)
		for _, co := range []*SparseRecovery{ordered, lanes} {
			if d1, d2 := raw.Digest(), co.Digest(); d1 != d2 {
				t.Fatalf("n=%d ordered=%v: coalesced digest %x != raw %x", n, co == ordered, d2, d1)
			}
		}
	}
}

// TestUpdateNDuplicateHeavyBatch is the dedicated duplicate-heavy
// equivalence case: a large batch concentrated on a handful of keys (the
// coarse-grid-level shape that motivates coalescing) must decode to the
// same items whether written row at a time, bucket-ordered, or via the
// scatter lanes — and the slabs must be bit-identical.
func TestUpdateNDuplicateHeavyBatch(t *testing.T) {
	const n, nKeys, pd = 4096, 7, 2
	rng := rand.New(rand.NewSource(99))
	base := NewSparseRecovery(rand.New(rand.NewSource(13)), 16, 0.001, pd)
	keys, payload, deltas := randBatch(rng, n, nKeys, pd)
	// Keep net counts nonzero so Decode has something to recover.
	for i := 0; i < nKeys; i++ {
		keys = append(keys, keys[i])
		payload = append(payload, int64(i), int64(-i))
		deltas = append(deltas, int64(100+i))
	}
	scaled := scaleRows(payload, deltas, pd)

	perOp := base.cloneEmpty()
	scalarUpdateN(perOp, keys, payload, deltas)
	wantItems, wantOK := perOp.Decode()

	for _, ordered := range []bool{true, false} {
		got := base.cloneEmpty()
		if ordered {
			got.updateOrderedN(keys, scaled, deltas)
		} else {
			got.updateLanesN(keys, scaled, deltas)
		}
		if d1, d2 := perOp.Digest(), got.Digest(); d1 != d2 {
			t.Fatalf("ordered=%v: digest %x != per-op %x", ordered, d2, d1)
		}
		items, ok := got.Decode()
		if ok != wantOK || len(items) != len(wantItems) {
			t.Fatalf("ordered=%v: decode ok=%v n=%d, want ok=%v n=%d",
				ordered, ok, len(items), wantOK, len(wantItems))
		}
	}
}

// TestUpdateNReusedScratchIndependent runs two different batches back to
// back through one sketch's ordered kernel and checks the reused scratch
// buffers leak nothing between calls (second batch smaller than first).
func TestUpdateNReusedScratchIndependent(t *testing.T) {
	const pd = 1
	base := NewSparseRecovery(rand.New(rand.NewSource(21)), 16, 0.01, pd)
	rng := rand.New(rand.NewSource(22))
	k1, p1, d1 := randBatch(rng, 512, 9, pd)
	k2, p2, d2 := randBatch(rng, orderedMinRows+5, 3, pd)

	seq := base.cloneEmpty()
	seq.UpdateScaledN(k1, scaleRows(p1, d1, pd), d1)
	seq.UpdateScaledN(k2, scaleRows(p2, d2, pd), d2)

	perOp := base.cloneEmpty()
	scalarUpdateN(perOp, k1, p1, d1)
	scalarUpdateN(perOp, k2, p2, d2)
	if a, b := seq.Digest(), perOp.Digest(); a != b {
		t.Fatalf("sequential batches digest %x != per-op %x", a, b)
	}
}
