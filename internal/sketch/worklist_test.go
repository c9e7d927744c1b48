package sketch

import (
	"math/rand"
	"sort"
	"testing"

	"streambalance/internal/geo"
	"streambalance/internal/hashing"
)

// sortItems canonicalizes a decode result for comparison: keys are
// unique within a successful decode, so key order is a total order. The
// worklist and reference decoders extract the same item set but in
// different traversal orders.
func sortItems(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
}

func itemsEqual(t *testing.T, ctx string, got, want []Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items vs %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Count != w.Count || len(g.Payload) != len(w.Payload) {
			t.Fatalf("%s item %d: got %+v want %+v", ctx, i, g, w)
		}
		for j := range g.Payload {
			if g.Payload[j] != w.Payload[j] {
				t.Fatalf("%s item %d payload %d: got %d want %d", ctx, i, j, g.Payload[j], w.Payload[j])
			}
		}
	}
}

// TestDecodeWorklistMatchesReference sweeps loads from empty through
// decodable to over-full and pins the worklist decoder to the retained
// reference: same ok-flag, same FAIL cases, same items.
func TestDecodeWorklistMatchesReference(t *testing.T) {
	arena := NewDecodeArena() // shared across all cases: reuse must not leak state
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := 1 + rng.Intn(24)
		pd := rng.Intn(3)
		sr := NewSparseRecovery(rng, s, 0.01, pd)
		n := rng.Intn(4 * s)
		for i := 0; i < n; i++ {
			k := uint64(rng.Int63n(int64(3*s) + 1))
			d := int64(rng.Intn(9) - 4)
			var payload []int64
			if pd > 0 {
				payload = make([]int64, pd)
				for j := range payload {
					payload[j] = int64(k)*7 + int64(j)
				}
			}
			sr.Update(k, payload, d)
		}
		want, wantOK := sr.DecodeReference()
		got, gotOK := sr.DecodeWith(arena)
		if gotOK != wantOK {
			t.Fatalf("seed %d: worklist ok=%v reference ok=%v", seed, gotOK, wantOK)
		}
		if !gotOK {
			continue
		}
		sortItems(want)
		sortItems(got)
		itemsEqual(t, "worklist vs reference", got, want)
		// Decode must not have modified the sketch: both decoders again.
		if d2, ok2 := sr.Decode(); !ok2 || len(d2) != len(got) {
			t.Fatalf("seed %d: second decode diverged (ok=%v n=%d)", seed, ok2, len(d2))
		}
	}
}

// TestDecodeWorklistNegativeAndLargeCounts exercises the inverse-table
// boundary: counts inside the table, at its edge, beyond it (Fermat
// fallback) and negative.
func TestDecodeWorklistNegativeAndLargeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sr := NewSparseRecovery(rng, 8, 0.01, 1)
	counts := []int64{1, -3, invTabSize, invTabSize + 1, -(invTabSize + 5), 1 << 40}
	for i, c := range counts {
		sr.Update(uint64(i+1), []int64{int64(i) * 11}, c)
	}
	want, wantOK := sr.DecodeReference()
	got, gotOK := sr.Decode()
	if !wantOK || !gotOK {
		t.Fatalf("decode failed: ref=%v worklist=%v", wantOK, gotOK)
	}
	sortItems(want)
	sortItems(got)
	itemsEqual(t, "large/negative counts", got, want)
}

// TestInvCountField pins the table (and its negative/fallback branches)
// to the Fermat inverse it replaces.
func TestInvCountField(t *testing.T) {
	invTabOnce.Do(initInvTab)
	cases := []int64{1, 2, 3, 17, 999, invTabSize, invTabSize + 1, invTabSize * 3,
		-1, -2, -invTabSize, -(invTabSize + 1), 1 << 35, -(1 << 35)}
	for _, c := range cases {
		want := hashing.InvMod(hashing.ToField(c))
		if got := invCountField(c); got != want {
			t.Fatalf("invCountField(%d) = %d, want %d", c, got, want)
		}
		if p := hashing.MulMod(invCountField(c), hashing.ToField(c)); p != 1 {
			t.Fatalf("invCountField(%d) is not an inverse (product %d)", c, p)
		}
	}
}

// TestDecodeArenaReuseAcrossShapes checks one arena serving sketches of
// different rows/width/payload shapes back to back.
func TestDecodeArenaReuseAcrossShapes(t *testing.T) {
	arena := NewDecodeArena()
	rng := rand.New(rand.NewSource(5))
	big := NewSparseRecovery(rng, 64, 0.001, 3)
	small := NewSparseRecovery(rng, 2, 0.2, 0)
	for i := 0; i < 50; i++ {
		big.Update(uint64(i+1), []int64{int64(i), -int64(i), 7}, 2)
	}
	small.Update(9, nil, 5)
	for round := 0; round < 3; round++ {
		if items, ok := big.DecodeWith(arena); !ok || len(items) != 50 {
			t.Fatalf("round %d big: ok=%v n=%d", round, ok, len(items))
		}
		if items, ok := small.DecodeWith(arena); !ok || len(items) != 1 || items[0].Key != 9 {
			t.Fatalf("round %d small: ok=%v items=%v", round, ok, items)
		}
	}
}

// TestDecodeResultsOutliveArena pins the ownership rule: items returned
// by DecodeWith must stay intact after the arena is reused for another
// sketch (the Storing cache retains them indefinitely).
func TestDecodeResultsOutliveArena(t *testing.T) {
	arena := NewDecodeArena()
	rng := rand.New(rand.NewSource(6))
	a := NewSparseRecovery(rng, 4, 0.01, 2)
	a.Update(42, []int64{5, -6}, 3)
	got, ok := a.DecodeWith(arena)
	if !ok || len(got) != 1 {
		t.Fatalf("decode: ok=%v n=%d", ok, len(got))
	}
	// Churn the arena with a different decode.
	b := NewSparseRecovery(rng, 16, 0.01, 2)
	for i := 0; i < 16; i++ {
		b.Update(uint64(1000+i), []int64{int64(i), int64(i)}, 1)
	}
	if _, ok := b.DecodeWith(arena); !ok {
		t.Fatal("churn decode failed")
	}
	if got[0].Key != 42 || got[0].Count != 3 || got[0].Payload[0] != 5 || got[0].Payload[1] != -6 {
		t.Fatalf("item corrupted by arena reuse: %+v", got[0])
	}
}

// TestPureAtNoAllocOnImpureCandidate pins the satellite ordering fix:
// probing a bucket that fails fingerprint or divisibility verification
// must not allocate a payload slice, in both decoders' purity tests.
func TestPureAtNoAllocOnImpureCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sr := NewSparseRecovery(rng, 4, 0.01, 2)
	// Two colliding keys in every bucket they share: no bucket holding
	// both is pure.
	sr.Update(1, []int64{1, 2}, 1)
	sr.Update(2, []int64{3, 4}, 1)
	// Find an impure, non-empty bucket.
	var impure []int64
	for i := 0; i < len(sr.slab); i += sr.stride {
		b := sr.slab[i : i+sr.stride]
		if b[0] != 0 {
			if _, ok := sr.pureAt(b); !ok {
				impure = b
				break
			}
		}
	}
	if impure == nil {
		t.Skip("no impure bucket in this layout")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := sr.pureAt(impure); ok {
			t.Fatal("bucket became pure")
		}
	}); allocs != 0 {
		t.Fatalf("pureAt allocates %.1f objects on an impure candidate, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := sr.pureKeyAt(impure); ok {
			t.Fatal("bucket became pure")
		}
	}); allocs != 0 {
		t.Fatalf("pureKeyAt allocates %.1f objects, want 0", allocs)
	}
}

// TestUpdateNMatchesScalar pins the UpdateScaledN kernel and the
// one-row Update wrapper to row-at-a-time scalar writes: same
// keys/payloads/deltas, bit-identical slab digests, across ragged tails
// and zero deltas.
func TestUpdateNMatchesScalar(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 8, 127} {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		ref := NewSparseRecovery(rng, 16, 0.01, 2)
		bat := ref.CloneEmpty()
		one := ref.CloneEmpty()
		keys := make([]uint64, n)
		payload := make([]int64, 2*n)
		deltas := make([]int64, n)
		for i := 0; i < n; i++ {
			keys[i] = rng.Uint64()
			payload[2*i] = rng.Int63n(100) - 50
			payload[2*i+1] = rng.Int63n(100) - 50
			deltas[i] = int64(rng.Intn(7) - 3) // includes zeros
		}
		scalarUpdateN(ref, keys, payload, deltas)
		bat.UpdateScaledN(keys, scaleRows(payload, deltas, 2), deltas)
		for i := 0; i < n; i++ {
			one.Update(keys[i], payload[2*i:2*i+2], deltas[i])
		}
		if ref.Digest() != bat.Digest() {
			t.Fatalf("n=%d: UpdateScaledN digest %x != scalar %x", n, bat.Digest(), ref.Digest())
		}
		if ref.Digest() != one.Digest() {
			t.Fatalf("n=%d: Update digest %x != scalar %x", n, one.Digest(), ref.Digest())
		}
	}
}

// TestStoringUpdateKeyedNMatchesScalar drives both a cell-recovery and
// a point-recovery Storing through the columnar keyed entry point
// (UpdateKeyedScaledN, one row per op) and checks digest equality with
// per-op Insert/Delete.
func TestStoringUpdateKeyedNMatchesScalar(t *testing.T) {
	g := buildGrid(t, 64, 2, 11)
	mk := func(seed int64, kind Kind) (*Storing, *Storing) {
		ref := newStoring(rand.New(rand.NewSource(seed)), g, 2, kind, 32)
		return ref, ref.CloneEmpty()
	}
	const n = 33
	rng := rand.New(rand.NewSource(12))
	cellKeys := make([]uint64, n)
	cellScaled := make([]int64, n*g.Dim)
	pointKeys := make([]uint64, n)
	pointScaled := make([]int64, n*g.Dim)
	deltas := make([]int64, n)
	pts := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		p := geo.Point{rng.Int63n(64), rng.Int63n(64)}
		pts[i] = p
		if i%5 == 0 {
			deltas[i] = -1
		} else {
			deltas[i] = 1
		}
		idx := g.CellIndex(p, 2)
		cellKeys[i] = g.KeyOf(2, idx)
		for j := 0; j < g.Dim; j++ {
			cellScaled[i*g.Dim+j] = deltas[i] * idx[j]
			pointScaled[i*g.Dim+j] = deltas[i] * p[j]
		}
	}
	cellsRef, cellsBat := mk(1, Cells)
	ptsRef, ptsBat := mk(2, Points)
	for i := 0; i < n; i++ {
		pointKeys[i] = ptsRef.fp.Key(pts[i])
		if deltas[i] > 0 {
			cellsRef.Insert(pts[i])
			ptsRef.Insert(pts[i])
		} else {
			cellsRef.Delete(pts[i])
			ptsRef.Delete(pts[i])
		}
	}
	cellsBat.UpdateKeyedScaledN(cellKeys, cellScaled, deltas)
	ptsBat.UpdateKeyedScaledN(pointKeys, pointScaled, deltas)
	if cellsRef.Digest() != cellsBat.Digest() {
		t.Fatal("cell-side UpdateKeyedScaledN digest mismatch")
	}
	if ptsRef.Digest() != ptsBat.Digest() {
		t.Fatal("point-side UpdateKeyedScaledN digest mismatch")
	}
	if cellsRef.NetUpdates() != cellsBat.NetUpdates() {
		t.Fatalf("netUpdates %d vs %d", cellsBat.NetUpdates(), cellsRef.NetUpdates())
	}
}

// FuzzDecodeWorklistMatchesReference drives random insert/delete
// multisets through one sketch and requires the worklist and reference
// decoders to agree exactly: ok-flag, FAIL cases, and (sorted) items.
func FuzzDecodeWorklistMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{1, 1, 2, 1, 3, 1})
	f.Add(int64(2), []byte{1, 1, 1, 255, 2, 3})
	f.Add(int64(3), []byte{})
	f.Add(int64(4), []byte{9, 200, 9, 56, 4, 4, 4, 252, 17, 1, 18, 1, 19, 1, 20, 1, 21, 1})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		s := 1 + int(uint(seed)%12)
		sr := NewSparseRecovery(rng, s, 0.01, 1)
		for i := 0; i+1 < len(script); i += 2 {
			key := uint64(script[i]%64) + 1
			delta := int64(int8(script[i+1]))
			sr.Update(key, []int64{int64(key) * 3}, delta)
		}
		want, wantOK := sr.DecodeReference()
		got, gotOK := sr.Decode()
		if gotOK != wantOK {
			t.Fatalf("worklist ok=%v, reference ok=%v", gotOK, wantOK)
		}
		if !gotOK {
			return
		}
		sortItems(want)
		sortItems(got)
		itemsEqual(t, "fuzz worklist vs reference", got, want)
	})
}

// TestPooledArenaDecodesLikeFresh pins what lets the extraction pipeline
// keep decode arenas in a pool across queries: an arena that has served
// a bailed sparse differential peel and a cold decode (one failed, one
// successful) decodes the next sketch — cold and differentially —
// exactly as a fresh arena does. The sparse peel's buffers must be back
// to all-zero after the bail, since it reads them without clearing.
func TestPooledArenaDecodesLikeFresh(t *testing.T) {
	const s, pd = 16, 2
	rng := rand.New(rand.NewSource(51))
	fill := func(sr *SparseRecovery, from, n int) {
		for i := 0; i < n; i++ {
			k := uint64(from + i)
			sr.Update(k, []int64{int64(k) * 3, -int64(i)}, int64(1+i%3))
		}
	}
	used := NewDecodeArena()

	// A differential peel that bails: ten new keys against an item cap
	// of three leaves written buckets and queued marks behind.
	bail := NewSparseRecovery(rng, s, 0.01, pd)
	fill(bail, 1, 5)
	snap := bail.RefreshSnapshot(nil)
	fill(bail, 100, 10)
	if !bail.DirtySparse() {
		t.Fatal("expected a sparse journal")
	}
	if _, ok := bail.DecodeDeltaWith(used, snap, 3); ok {
		t.Fatal("expected the capped differential peel to bail")
	}
	for i, v := range used.zslab {
		if v != 0 {
			t.Fatalf("sparse slab word %d = %d after the bail", i, v)
		}
	}
	for i, m := range used.zmark {
		if m {
			t.Fatalf("sparse mark %d left set after the bail", i)
		}
	}

	// Cold decodes: an over-full one that FAILs, then one that succeeds,
	// both leaving junk in the full-peel buffers.
	over := NewSparseRecovery(rng, s, 0.01, pd)
	fill(over, 1, 8*s)
	if _, ok := over.DecodeWith(used); ok {
		t.Fatal("expected the over-full cold decode to FAIL")
	}
	ok1 := NewSparseRecovery(rng, s, 0.01, pd)
	fill(ok1, 500, s)
	if _, ok := ok1.DecodeWith(used); !ok {
		t.Fatal("cold decode failed")
	}

	// The next sketch, decoded cold and differentially by the used arena
	// and by fresh ones.
	next := NewSparseRecovery(rng, s, 0.01, pd)
	fill(next, 1000, s/2)
	nsnap := next.RefreshSnapshot(nil)
	fill(next, 2000, s/2)
	next.Update(1000, []int64{3000, 0}, -1) // a delta that cancels part of the base
	if !next.DirtySparse() {
		t.Fatal("expected a sparse journal")
	}
	got, gotOK := next.DecodeDeltaWith(used, nsnap, 2*s)
	want, wantOK := next.DecodeDeltaWith(NewDecodeArena(), nsnap, 2*s)
	if gotOK != wantOK || !gotOK {
		t.Fatalf("differential decode: used arena ok=%v, fresh ok=%v", gotOK, wantOK)
	}
	sortItems(got)
	sortItems(want)
	itemsEqual(t, "differential", got, want)
	got, gotOK = next.DecodeWith(used)
	want, wantOK = next.DecodeWith(NewDecodeArena())
	if gotOK != wantOK || !gotOK {
		t.Fatalf("cold decode: used arena ok=%v, fresh ok=%v", gotOK, wantOK)
	}
	sortItems(got)
	sortItems(want)
	itemsEqual(t, "cold", got, want)
}

// TestSparsePeelRezeroesWritesOutsideJournal: a phantom-pure journaled
// bucket — planted in one row only, so it looks like a single key whose
// other row buckets were never written — makes the sparse peel subtract
// that key from buckets outside the journal. The peel must still leave
// the arena's zero-invariant slab and marks all-zero on exit: its write
// set, not the journal, is what gets re-zeroed. The key's peel-outs
// alternate between the journaled bucket and the other rows, so the
// item-cap bail lands on either side depending on the cap's parity; both
// are checked.
func TestSparsePeelRezeroesWritesOutsideJournal(t *testing.T) {
	const key = 12345
	for itemCap := 1; itemCap <= 4; itemCap++ {
		sr := NewSparseRecovery(rand.New(rand.NewSource(61)), 16, 0.01, 2)
		if sr.rows < 2 {
			t.Fatalf("%d rows: a one-row sketch has no bucket outside the journal", sr.rows)
		}
		snap := sr.RefreshSnapshot(nil) // empty base; starts the journal
		bi := bucketOf(sr.rowHash[0].Eval(key), sr.width)
		copy(sr.slab[bi*sr.stride:], []int64{1, key, int64(sr.fpHash.Eval(key)), 7, -3})
		sr.markDirty(bi)
		if !sr.DirtySparse() {
			t.Fatal("expected a sparse journal")
		}
		a := NewDecodeArena()
		if _, ok := sr.DecodeDeltaWith(a, snap, itemCap); ok {
			t.Fatalf("cap %d: the phantom residual verified", itemCap)
		}
		for i, v := range a.zslab {
			if v != 0 {
				t.Fatalf("cap %d: sparse slab word %d (bucket %d) = %d after the peel", itemCap, i, i/sr.stride, v)
			}
		}
		for i, m := range a.zmark {
			if m {
				t.Fatalf("cap %d: sparse mark %d left set", itemCap, i)
			}
		}
	}
}
