package sketch

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
)

func buildGrid(t *testing.T, delta int64, dim int, seed int64) *grid.Grid {
	t.Helper()
	return grid.New(delta, dim, rand.New(rand.NewSource(seed)))
}

// kinds lists both recovered vectors; the Storing tests run every check
// on each.
var kinds = []struct {
	name string
	kind Kind
}{{"cells", Cells}, {"points", Points}}

// eachKind runs f as one subtest per kind.
func eachKind(t *testing.T, f func(t *testing.T, kind Kind)) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { f(t, k.kind) })
	}
}

// newStoring builds a private-fingerprint instance of the given kind.
func newStoring(rng *rand.Rand, g *grid.Grid, level int, kind Kind, capacity int) *Storing {
	return NewStoring(rng, g, level, kind, capacity, 0.01, nil)
}

// liveVector is the vector st must recover from the surviving multiset
// live: per key the payload it stands for and its multiplicity.
func liveVector(st *Storing, live []geo.Point) map[uint64]Item {
	want := map[uint64]Item{}
	for _, p := range live {
		key, payload := st.fp.Key(p), []int64(p)
		if st.kind == Cells {
			payload = st.g.CellIndex(p, st.level)
			key = st.g.KeyOf(st.level, payload)
		}
		it := want[key]
		it.Key, it.Payload = key, payload
		it.Count++
		want[key] = it
	}
	return want
}

// checkExact fails t unless st decodes to exactly the vector of live,
// sorted by key.
func checkExact(t *testing.T, st *Storing, live []geo.Point) {
	t.Helper()
	items, ok := st.Result()
	if !ok {
		t.Fatal("Result FAILed on in-budget input")
	}
	want := liveVector(st, live)
	if len(items) != len(want) {
		t.Fatalf("got %d items, want %d", len(items), len(want))
	}
	for i, it := range items {
		if i > 0 && items[i-1].Key >= it.Key {
			t.Fatal("items not sorted by key")
		}
		w := want[it.Key]
		if it.Count != w.Count || !slices.Equal(it.Payload, w.Payload) {
			t.Fatalf("key %d: count %d payload %v, want %d %v", it.Key, it.Count, it.Payload, w.Count, w.Payload)
		}
	}
}

func randPoints(rng *rand.Rand, n int, delta int64, dim int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = make(geo.Point, dim)
		for j := range pts[i] {
			pts[i][j] = 1 + rng.Int63n(delta)
		}
	}
	return pts
}

// TestStoringCellCountsExact: 200 points at level 3 of a 64² grid
// decode exactly — cell keys, index payloads that regenerate them and
// counts, or points with their multiplicities.
func TestStoringCellCountsExact(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(1))
		g := buildGrid(t, 64, 2, 1)
		st := newStoring(rng, g, 3, kind, 256)
		pts := randPoints(rng, 200, 64, 2)
		for _, p := range pts {
			st.Insert(p)
		}
		checkExact(t, st, pts)
	})
}

// TestStoringPointRecovery: 20 points in three dimensions decode
// exactly at level 2.
func TestStoringPointRecovery(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(2))
		g := buildGrid(t, 32, 3, 2)
		st := newStoring(rng, g, 2, kind, 32)
		pts := randPoints(rng, 20, 32, 3)
		for _, p := range pts {
			st.Insert(p)
		}
		checkExact(t, st, pts)
	})
}

// TestStoringInsertDeleteChurn: 3000 inserts and the deletion of all but
// 8 restore sparsity, and the decode is exactly the survivors.
func TestStoringInsertDeleteChurn(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(3))
		g := buildGrid(t, 128, 2, 3)
		st := newStoring(rng, g, 4, kind, 16)
		all := randPoints(rng, 3000, 128, 2)
		for _, p := range all {
			st.Insert(p)
		}
		for _, p := range all[:len(all)-8] {
			st.Delete(p)
		}
		checkExact(t, st, all[len(all)-8:])
		if st.netUpdates != 8 {
			t.Fatalf("netUpdates = %d, want 8", st.netUpdates)
		}
	})
}

// TestStoringFailsWhenOverfull: hundreds of fine cells or points in a
// capacity-4 sketch FAIL.
func TestStoringFailsWhenOverfull(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(4))
		g := buildGrid(t, 1024, 2, 4)
		st := newStoring(rng, g, 10, kind, 4)
		for _, p := range randPoints(rng, 500, 1024, 2) {
			st.Insert(p)
		}
		if items, ok := st.Result(); ok {
			t.Fatalf("expected FAIL with capacity 4, got %d items", len(items))
		}
	})
}

// TestStoringNegativeCountFails: an unmatched deletion leaves a negative
// net count, which FAILs rather than reporting it.
func TestStoringNegativeCountFails(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(9))
		g := buildGrid(t, 64, 2, 9)
		st := newStoring(rng, g, 2, kind, 8)
		st.Insert(geo.Point{3, 3})
		st.Delete(geo.Point{40, 40})
		if _, ok := st.Result(); ok {
			t.Fatal("negative net count must FAIL")
		}
	})
}

func TestStoringEmptyStream(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(5))
		g := buildGrid(t, 16, 2, 5)
		st := newStoring(rng, g, 0, kind, 8)
		if items, ok := st.Result(); !ok || len(items) != 0 {
			t.Fatalf("empty stream: ok=%v items=%d", ok, len(items))
		}
	})
}

func TestStoringFullCancellation(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(6))
		g := buildGrid(t, 64, 2, 6)
		st := newStoring(rng, g, 1, kind, 8)
		pts := randPoints(rng, 100, 64, 2)
		for _, p := range pts {
			st.Insert(p)
		}
		for _, p := range pts {
			st.Delete(p)
		}
		items, ok := st.Result()
		if !ok {
			t.Fatal("fully cancelled stream must decode")
		}
		if len(items) != 0 {
			t.Fatalf("fully cancelled stream must be empty: %d items", len(items))
		}
	})
}

// TestStoringLevelMinusOne: the G_{-1} cell sketch sees a single cell
// holding everything. (Point recovery does not depend on the level.)
func TestStoringLevelMinusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildGrid(t, 32, 2, 7)
	st := newStoring(rng, g, grid.MinLevel, Cells, 4)
	for _, p := range randPoints(rng, 50, 32, 2) {
		st.Insert(p)
	}
	items, ok := st.Result()
	if !ok || len(items) != 1 || items[0].Count != 50 {
		t.Fatalf("G_{-1}: ok=%v items=%+v", ok, items)
	}
}

func TestStoringBytesIndependentOfStreamLength(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(8))
		g := buildGrid(t, 64, 2, 8)
		st := newStoring(rng, g, 3, kind, 32)
		before := st.Bytes()
		for _, p := range randPoints(rng, 10000, 64, 2) {
			st.Insert(p)
		}
		if st.Bytes() != before {
			t.Fatalf("sketch grew with the stream: %d -> %d", before, st.Bytes())
		}
	})
}

// TestNewStoringRejectsBadShape: a Storing recovers exactly one vector.
// The signature has one capacity, so "both sides" has no spelling; an
// unknown kind and a capacity below 1 ("neither side") panic, in the
// constructor and in the draw-only skip alike.
func TestNewStoringRejectsBadShape(t *testing.T) {
	g := buildGrid(t, 64, 2, 10)
	cases := []struct {
		kind     Kind
		capacity int
	}{{Cells, 0}, {Points, 0}, {Points, -1}, {Kind(2), 8}, {Kind(-1), 8}}
	for _, c := range cases {
		for name, build := range map[string]func(){
			"NewStoring":  func() { NewStoring(rand.New(rand.NewSource(1)), g, 0, c.kind, c.capacity, 0.01, nil) },
			"SkipStoring": func() { SkipStoring(rand.New(rand.NewSource(1)), g, c.kind, c.capacity, 0.01, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(kind %d, capacity %d) did not panic", name, c.kind, c.capacity)
					}
				}()
				build()
			}()
		}
	}
}

func TestUpdateKeyedMatchesUpdate(t *testing.T) {
	// The keyed entry point with caller-precomputed keys, fed one op per
	// call, must leave bit-identical state to the per-op Insert/Delete
	// path — the contract the batched ingestion pipeline depends on.
	eachKind(t, func(t *testing.T, kind Kind) {
		g := buildGrid(t, 1<<8, 2, 61)
		mk := func() *Storing {
			fp := hashing.NewFingerprint(rand.New(rand.NewSource(63)))
			return NewStoring(rand.New(rand.NewSource(62)), g, 3, kind, 32, 0.01, fp)
		}
		perOp, keyed := mk(), mk()
		rng := rand.New(rand.NewSource(64))
		for i, p := range randPoints(rng, 50, 1<<8, 2) {
			delta := int64(1)
			if i%5 == 4 {
				delta = -1
			}
			if delta > 0 {
				perOp.Insert(p)
			} else {
				perOp.Delete(p)
			}
			key, payload := keyed.fp.Key(p), []int64(p)
			if kind == Cells {
				payload = g.CellIndex(p, 3)
				key = g.KeyOf(3, payload)
			}
			keyed.UpdateKeyedScaledN([]uint64{key}, []int64{delta * payload[0], delta * payload[1]}, []int64{delta})
		}
		if perOp.Digest() != keyed.Digest() {
			t.Fatal("keyed state diverged from per-op Insert/Delete")
		}
		if perOp.netUpdates != keyed.netUpdates {
			t.Fatalf("net updates %d vs %d", perOp.netUpdates, keyed.netUpdates)
		}
	})
}

func TestDigestDetectsDifference(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		g := buildGrid(t, 1<<6, 2, 65)
		st := newStoring(rand.New(rand.NewSource(66)), g, 2, kind, 16)
		sib := st.cloneEmpty()
		if st.Digest() != sib.Digest() {
			t.Fatal("empty siblings must have equal digests")
		}
		st.Insert(geo.Point{5, 9})
		if st.Digest() == sib.Digest() {
			t.Fatal("digest must change after an update")
		}
		sib.Insert(geo.Point{5, 9})
		if st.Digest() != sib.Digest() {
			t.Fatal("identical update streams must give equal digests")
		}
		st.Delete(geo.Point{5, 9})
		sib.Delete(geo.Point{5, 9})
		if st.Digest() != sib.Digest() {
			t.Fatal("digests must track deletions identically")
		}
	})
}

// TestStoringSharedFingerprintSharesPointKeys: point sketches built on
// one fingerprint, at different levels, key every point by that
// fingerprint — so a batch keyed once with fp.Key feeds them all, and
// each decodes the keys it was fed.
func TestStoringSharedFingerprintSharesPointKeys(t *testing.T) {
	g := buildGrid(t, 1<<6, 2, 67)
	fp := hashing.NewFingerprint(rand.New(rand.NewSource(68)))
	a := NewStoring(rand.New(rand.NewSource(69)), g, 1, Points, 8, 0.01, fp)
	b := NewStoring(rand.New(rand.NewSource(70)), g, 4, Points, 8, 0.01, fp)
	pts := []geo.Point{{12, 34}, {5, 6}, {12, 34}}
	keys := []uint64{fp.Key(pts[0]), fp.Key(pts[1])}
	scaled := []int64{2 * 12, 2 * 34, 5, 6}
	deltas := []int64{2, 1}
	for _, st := range []*Storing{a, b} {
		ref := st.cloneEmpty()
		for _, p := range pts {
			ref.Insert(p)
		}
		st.UpdateKeyedScaledN(keys, scaled, deltas)
		if st.Digest() != ref.Digest() {
			t.Fatal("a batch keyed by the shared fingerprint diverged from per-op inserts")
		}
		items, ok := st.Result()
		if !ok || len(items) != 2 {
			t.Fatalf("decode: ok=%v items=%+v", ok, items)
		}
		for _, it := range items {
			if it.Key != fp.Key(geo.Point(it.Payload)) {
				t.Fatalf("item %+v is not keyed by the shared fingerprint", it)
			}
		}
	}
}

// TestSkipStoringConsumesDraws: SkipStoring must leave rng exactly where
// NewStoring leaves it — for both kinds, with a supplied or a private
// fingerprint and a δ that adds rows — so a sketch drawn after a skipped
// one is the sketch drawn after a built one. A skip allocates no slab
// (an s=4096 point sketch is 5·8192·5 words = 1.56 MiB).
func TestSkipStoringConsumesDraws(t *testing.T) {
	g := buildGrid(t, 1<<6, 2, 71)
	fp := hashing.NewFingerprint(rand.New(rand.NewSource(72)))
	cases := []struct {
		kind     Kind
		capacity int
		delta    float64
		fp       *hashing.Fingerprint
	}{
		{Cells, 64, 0.01, fp}, {Points, 4096, 0.01, fp}, {Cells, 32, 0.0001, fp}, {Points, 16, 0.01, nil},
	}
	for _, c := range cases {
		built, skipped := rand.New(rand.NewSource(73)), rand.New(rand.NewSource(73))
		NewStoring(built, g, 3, c.kind, c.capacity, c.delta, c.fp)
		SkipStoring(skipped, g, c.kind, c.capacity, c.delta, c.fp)
		after := NewStoring(built, g, 3, c.kind, c.capacity, c.delta, c.fp)
		twin := NewStoring(skipped, g, 3, c.kind, c.capacity, c.delta, c.fp)
		for i := 0; i < 20; i++ {
			p := geo.Point{int64(i), int64(3 * i)}
			after.Insert(p)
			twin.Insert(p)
		}
		if after.Digest() != twin.Digest() {
			t.Fatalf("kind %d s=%d δ=%v: the sketch drawn after a skip differs from the one drawn after a build", c.kind, c.capacity, c.delta)
		}
		if built.Int63() != skipped.Int63() {
			t.Fatalf("kind %d s=%d δ=%v: SkipStoring left rng at a different position", c.kind, c.capacity, c.delta)
		}
	}
	rng := rand.New(rand.NewSource(74))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 8; i++ {
		SkipStoring(rng, g, Points, 4096, 0.01, fp)
	}
	runtime.ReadMemStats(&ms1)
	if b := ms1.TotalAlloc - ms0.TotalAlloc; b > 64<<10 {
		t.Fatalf("8 skips allocated %d bytes; a skip must allocate no slab", b)
	}
}

func TestStoringEpochAndDecodeCache(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(7))
		g := buildGrid(t, 64, 2, 7)
		st := newStoring(rng, g, 2, kind, 64)

		if st.epoch != 0 || st.CacheFresh() {
			t.Fatal("fresh sketch must have epoch 0 and no cache")
		}
		live := []geo.Point{{3, 5}, {9, 9}}
		st.Insert(live[0])
		st.Insert(live[1])
		if st.epoch != 2 {
			t.Fatalf("epoch %d after 2 updates", st.epoch)
		}

		bytes0, dig0 := st.Bytes(), st.Digest()
		res1, ok := st.Result()
		if !ok {
			t.Fatal("decode FAILed")
		}
		if !st.CacheFresh() {
			t.Fatal("Result must leave a fresh cache")
		}
		if st.CacheBytes() <= 0 {
			t.Fatal("cache bytes must be positive after a successful decode")
		}
		// The cache is derived state: space accounting and digest unchanged.
		if st.Bytes() != bytes0 || st.Digest() != dig0 {
			t.Fatal("Result changed Bytes or Digest")
		}
		res2, ok := st.Result() // cache hit
		if !ok || !slices.EqualFunc(res1, res2, itemEqual) {
			t.Fatal("cached decode differs from the original")
		}

		// A mutation invalidates: the next decode sees the new state.
		st.Delete(live[0])
		if st.CacheFresh() {
			t.Fatal("update must invalidate the cache")
		}
		checkExact(t, st, live[1:])

		// Adding a sibling's state is one mutation: it bumps the epoch and
		// invalidates the cache.
		sib := st.cloneEmpty()
		sib.Insert(geo.Point{17, 23})
		st.Result()
		e := st.epoch
		addStoring(st, sib)
		if st.epoch != e+1 || st.CacheFresh() {
			t.Fatal("adding a sibling's state must bump the epoch and invalidate the cache")
		}
		checkExact(t, st, []geo.Point{{9, 9}, {17, 23}})

		// DropCache releases memory without touching sketch state.
		st.DropCache()
		if st.CacheBytes() != 0 || st.CacheFresh() {
			t.Fatal("DropCache left state behind")
		}
		if st.Bytes() != bytes0 {
			t.Fatal("cache lifecycle changed Bytes")
		}
	})
}

func itemEqual(a, b Item) bool {
	return a.Key == b.Key && a.Count == b.Count && slices.Equal(a.Payload, b.Payload)
}

func TestStoringCachesFailedDecode(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(8))
		g := buildGrid(t, 1024, 2, 8)
		st := newStoring(rng, g, g.L, kind, 2) // trivially over-full
		for _, p := range randPoints(rng, 64, 1024, 2) {
			st.Insert(p)
		}
		if _, ok := st.Result(); ok {
			t.Fatal("64 entries in a capacity-2 sketch must FAIL")
		}
		if !st.CacheFresh() {
			t.Fatal("FAIL outcomes are deterministic and must be cached too")
		}
		if _, ok := st.Result(); ok {
			t.Fatal("cached FAIL must still FAIL")
		}
		st.Insert(geo.Point{1 + rng.Int63n(1024), 1 + rng.Int63n(1024)})
		if st.CacheFresh() {
			t.Fatal("insert must invalidate the cached FAIL")
		}
	})
}

// TestStoringCacheStats pins the decode-cache accounting that DropCache
// decisions are made against: a cold Result is a miss, a repeated one a
// hit, an update in between makes the next Result a stale re-decode —
// answered differentially (a splice) when a base exists — DropCache
// counts as a drop (and a drop on an already-empty cache does not), a
// sibling's state added over a live base keeps it for the next splice
// instead of dropping, and a stale re-decode of a cached FAIL counts as
// StaleCold.
func TestStoringCacheStats(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(11))
		g := buildGrid(t, 1024, 2, 11)
		st := newStoring(rng, g, 4, kind, 256)
		for _, p := range randPoints(rng, 32, 1024, 2) {
			st.Insert(p)
		}

		want := func(s CacheStats) {
			t.Helper()
			if got := st.CacheStats(); got != s {
				t.Fatalf("CacheStats = %+v, want %+v", got, s)
			}
		}
		want(CacheStats{})

		st.Result() // cold decode
		want(CacheStats{Misses: 1})
		st.Result() // cached
		st.Result()
		want(CacheStats{Hits: 2, Misses: 1})

		st.Insert(geo.Point{5, 5}) // epoch bump invalidates
		st.Result()                // stale re-decode: spliced, not a cold miss
		want(CacheStats{Hits: 2, Misses: 1, Stale: 1, Splices: 1})

		st.DropCache()
		want(CacheStats{Hits: 2, Misses: 1, Stale: 1, Drops: 1, Splices: 1})
		st.DropCache() // nothing cached: not a drop
		want(CacheStats{Hits: 2, Misses: 1, Stale: 1, Drops: 1, Splices: 1})
		st.Result() // cold again after the drop (the drop cleared the base too)
		want(CacheStats{Hits: 2, Misses: 2, Stale: 1, Drops: 1, Splices: 1})

		// Adding a sibling's state over a live base drops nothing: the
		// cache goes stale and the next Result splices the added delta.
		sib := st.cloneEmpty()
		sib.Insert(geo.Point{9, 9})
		addStoring(st, sib)
		want(CacheStats{Hits: 2, Misses: 2, Stale: 1, Drops: 1, Splices: 1})
		if st.CacheFresh() {
			t.Fatal("adding a sibling's state must leave the cache stale")
		}
		st.Result()
		want(CacheStats{Hits: 2, Misses: 2, Stale: 2, Drops: 1, Splices: 2})

		// A cached FAIL keeps no base, so its stale re-decode is a full cold
		// peel: Stale and StaleCold both move, Splices does not.
		over := newStoring(rng, g, 4, kind, 4)
		for i := int64(0); i < 16; i++ {
			over.Insert(geo.Point{1 + 64*i, 1 + 64*i})
		}
		if _, ok := over.Result(); ok {
			t.Fatal("16 entries in a capacity-4 sketch must FAIL")
		}
		over.Insert(geo.Point{3, 3})
		over.Result()
		if got, w := over.CacheStats(), (CacheStats{Misses: 1, Stale: 1, StaleCold: 1}); got != w {
			t.Fatalf("over-full CacheStats = %+v, want %+v", got, w)
		}
	})
}

// TestStoringMergeDropCounter pins the obs counters behind CacheStats
// when a sibling's state is added into a Storing (addStoring): the sum
// discards no cache, so sketch_cache_drops_total stays put, whether the
// receiver was never decoded, holds a live base (the next Result moves
// sketch_cache_splices_total) or a cached FAIL (the next Result re-peels
// cold and moves sketch_cache_stale_cold_total). Only an explicit
// DropCache of a cached decode moves the drop counter.
func TestStoringMergeDropCounter(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	drops := obs.C("sketch_cache_drops_total")
	splices := obs.C("sketch_cache_splices_total")
	staleCold := obs.C("sketch_cache_stale_cold_total")

	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(12))
		g := buildGrid(t, 1024, 2, 12)
		st := newStoring(rng, g, 4, kind, 256)
		st.Insert(geo.Point{3, 3})
		add := func(st *Storing, p geo.Point) {
			sib := st.cloneEmpty()
			sib.Insert(p)
			addStoring(st, sib)
		}

		// No cached decode on the receiver.
		before := drops.Load()
		add(st, geo.Point{7, 7})

		// A live base: kept, and the next Result splices.
		st.Result()
		splicesBefore := splices.Load()
		add(st, geo.Point{9, 9})
		st.Result()
		if got := splices.Load(); got != splicesBefore+1 {
			t.Fatalf("sum over a live base: splices %d -> %d, want +1", splicesBefore, got)
		}

		// A cached FAIL has no base to splice from: the next Result is a
		// cold re-peel. Four points in four distinct cells overflow a
		// capacity-2 sketch.
		full := newStoring(rng, g, 4, kind, 2)
		for _, p := range []geo.Point{{3, 3}, {300, 3}, {3, 300}, {300, 300}} {
			full.Insert(p)
		}
		if _, ok := full.Result(); ok {
			t.Fatal("over-full sketch must FAIL")
		}
		coldBefore := staleCold.Load()
		add(full, geo.Point{11, 11})
		full.Result()
		if got := staleCold.Load(); got != coldBefore+1 {
			t.Fatalf("sum over a cached FAIL: stale cold %d -> %d, want +1", coldBefore, got)
		}
		if got := drops.Load(); got != before {
			t.Fatalf("adding a sibling's state moved the drop counter: %d -> %d", before, got)
		}

		// An explicit DropCache of a cached decode is a drop.
		st.DropCache()
		if got := drops.Load(); got != before+1 {
			t.Fatalf("DropCache: drop counter %d -> %d, want +1", before, got)
		}
	})
}
