package sketch

import (
	"math/rand"
	"runtime"
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

func TestStoringCellCountsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := buildGrid(t, 64, 2, 1)
	st := NewStoring(rng, g, 3, 128, 0, 0.01)

	pts := make(geo.PointSet, 200)
	for i := range pts {
		pts[i] = geo.Point{1 + rng.Int63n(64), 1 + rng.Int63n(64)}
		st.Insert(pts[i])
	}
	want := map[uint64]int64{}
	for _, p := range pts {
		want[g.CellKey(p, 3)]++
	}
	res, ok := st.Result()
	if !ok {
		t.Fatal("Result FAILed on in-budget input")
	}
	if len(res.Cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(res.Cells), len(want))
	}
	for _, cc := range res.Cells {
		if want[cc.Key] != cc.Count {
			t.Fatalf("cell %d: count %d, want %d", cc.Key, cc.Count, want[cc.Key])
		}
		// Index payload must regenerate the same key.
		if g.KeyOf(3, cc.Index) != cc.Key {
			t.Fatal("recovered index does not regenerate the cell key")
		}
	}
}

func TestStoringPointRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := buildGrid(t, 32, 3, 2)
	st := NewStoring(rng, g, 2, 64, 32, 0.01)

	inserted := map[string]int64{}
	var pts geo.PointSet
	for i := 0; i < 20; i++ {
		p := geo.Point{1 + rng.Int63n(32), 1 + rng.Int63n(32), 1 + rng.Int63n(32)}
		pts = append(pts, p)
		inserted[p.String()]++
		st.Insert(p)
	}
	res, ok := st.Result()
	if !ok {
		t.Fatal("FAIL on 20 points with beta=32")
	}
	got := map[string]int64{}
	for _, pc := range res.Points {
		got[pc.P.String()] += pc.Count
	}
	if len(got) != len(inserted) {
		t.Fatalf("recovered %d distinct points, want %d", len(got), len(inserted))
	}
	for k, c := range inserted {
		if got[k] != c {
			t.Fatalf("point %s: count %d, want %d", k, got[k], c)
		}
	}
}

func TestStoringInsertDeleteChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := buildGrid(t, 128, 2, 3)
	st := NewStoring(rng, g, 4, 32, 16, 0.01)

	// Heavy churn: insert 3000 points, delete all but 8.
	var all geo.PointSet
	for i := 0; i < 3000; i++ {
		p := geo.Point{1 + rng.Int63n(128), 1 + rng.Int63n(128)}
		all = append(all, p)
		st.Insert(p)
	}
	survivors := map[string]int64{}
	for i, p := range all {
		if i < len(all)-8 {
			st.Delete(p)
		} else {
			survivors[p.String()]++
		}
	}
	res, ok := st.Result()
	if !ok {
		t.Fatal("FAIL after churn restored sparsity")
	}
	got := map[string]int64{}
	var totalCells int64
	for _, pc := range res.Points {
		got[pc.P.String()] += pc.Count
	}
	for _, cc := range res.Cells {
		totalCells += cc.Count
	}
	if totalCells != 8 {
		t.Fatalf("cell counts sum to %d, want 8", totalCells)
	}
	for k, c := range survivors {
		if got[k] != c {
			t.Fatalf("survivor %s: got %d want %d", k, got[k], c)
		}
	}
	if st.NetUpdates() != 8 {
		t.Fatalf("NetUpdates = %d, want 8", st.NetUpdates())
	}
}

func TestStoringFailsWhenOverfull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := buildGrid(t, 1024, 2, 4)
	st := NewStoring(rng, g, 10, 4, 0, 0.01) // alpha=4 cells only
	for i := 0; i < 500; i++ {
		st.Insert(geo.Point{1 + rng.Int63n(1024), 1 + rng.Int63n(1024)})
	}
	if _, ok := st.Result(); ok {
		t.Fatal("expected FAIL with alpha=4 and ~hundreds of non-empty fine cells")
	}
}

func TestStoringEmptyStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := buildGrid(t, 16, 2, 5)
	st := NewStoring(rng, g, 0, 8, 8, 0.01)
	res, ok := st.Result()
	if !ok || len(res.Cells) != 0 || len(res.Points) != 0 {
		t.Fatalf("empty stream: ok=%v cells=%d points=%d", ok, len(res.Cells), len(res.Points))
	}
}

func TestStoringFullCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := buildGrid(t, 64, 2, 6)
	st := NewStoring(rng, g, 1, 8, 8, 0.01)
	var pts geo.PointSet
	for i := 0; i < 100; i++ {
		p := geo.Point{1 + rng.Int63n(64), 1 + rng.Int63n(64)}
		pts = append(pts, p)
		st.Insert(p)
	}
	for _, p := range pts {
		st.Delete(p)
	}
	res, ok := st.Result()
	if !ok {
		t.Fatal("fully cancelled stream must decode")
	}
	if len(res.Cells) != 0 || len(res.Points) != 0 {
		t.Fatalf("fully cancelled stream must be empty: cells=%d points=%d", len(res.Cells), len(res.Points))
	}
}

func TestStoringLevelMinusOne(t *testing.T) {
	// The G_{-1} sketch sees a single cell holding everything.
	rng := rand.New(rand.NewSource(7))
	g := buildGrid(t, 32, 2, 7)
	st := NewStoring(rng, g, grid.MinLevel, 4, 0, 0.01)
	for i := 0; i < 50; i++ {
		st.Insert(geo.Point{1 + rng.Int63n(32), 1 + rng.Int63n(32)})
	}
	res, ok := st.Result()
	if !ok || len(res.Cells) != 1 || res.Cells[0].Count != 50 {
		t.Fatalf("G_{-1}: ok=%v cells=%+v", ok, res.Cells)
	}
}

func TestStoringBytesIndependentOfStreamLength(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := buildGrid(t, 64, 2, 8)
	st := NewStoring(rng, g, 3, 32, 16, 0.01)
	before := st.Bytes()
	for i := 0; i < 10000; i++ {
		st.Insert(geo.Point{1 + rng.Int63n(64), 1 + rng.Int63n(64)})
	}
	if st.Bytes() != before {
		t.Fatalf("sketch grew with the stream: %d -> %d", before, st.Bytes())
	}
}

func TestUpdateKeyedMatchesUpdate(t *testing.T) {
	// The keyed entry point with caller-precomputed keys, fed one op per
	// call, must leave bit-identical state to the per-op Insert/Delete
	// path — the contract the batched ingestion pipeline depends on.
	g := buildGrid(t, 1<<8, 2, 61)
	mk := func() (*Storing, *Storing) {
		rngA := rand.New(rand.NewSource(62))
		rngB := rand.New(rand.NewSource(62))
		fpA := hashing.NewFingerprint(rand.New(rand.NewSource(63)))
		fpB := hashing.NewFingerprint(rand.New(rand.NewSource(63)))
		return NewStoringShared(rngA, g, 3, 32, 32, 0.01, fpA),
			NewStoringShared(rngB, g, 3, 32, 32, 0.01, fpB)
	}
	perOp, keyed := mk()
	rng := rand.New(rand.NewSource(64))
	pts := make([]geo.Point, 50)
	for i := range pts {
		pts[i] = geo.Point{rng.Int63n(1 << 8), rng.Int63n(1 << 8)}
	}
	for i, p := range pts {
		delta := int64(1)
		if i%5 == 4 {
			delta = -1
		}
		if delta > 0 {
			perOp.Insert(p)
		} else {
			perOp.Delete(p)
		}
		idx := g.CellIndex(p, 3)
		keyed.UpdateKeyedScaledN([]uint64{g.KeyOf(3, idx)}, []int64{delta * idx[0], delta * idx[1]},
			[]uint64{keyed.PointKey(p)}, []int64{delta * p[0], delta * p[1]}, []int64{delta})
	}
	if perOp.Digest() != keyed.Digest() {
		t.Fatal("keyed state diverged from per-op Insert/Delete")
	}
	if perOp.NetUpdates() != keyed.NetUpdates() {
		t.Fatalf("net updates %d vs %d", perOp.NetUpdates(), keyed.NetUpdates())
	}
}

func TestDigestDetectsDifference(t *testing.T) {
	g := buildGrid(t, 1<<6, 2, 65)
	rng := rand.New(rand.NewSource(66))
	st := NewStoring(rng, g, 2, 16, 16, 0.01)
	sib := st.CloneEmpty()
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
}

func TestStoringSharedFingerprintSharesPointKeys(t *testing.T) {
	g := buildGrid(t, 1<<6, 2, 67)
	fp := hashing.NewFingerprint(rand.New(rand.NewSource(68)))
	a := NewStoringShared(rand.New(rand.NewSource(69)), g, 1, 8, 8, 0.01, fp)
	b := NewStoringShared(rand.New(rand.NewSource(70)), g, 4, 8, 8, 0.01, fp)
	p := geo.Point{12, 34}
	if a.PointKey(p) != b.PointKey(p) {
		t.Fatal("instances sharing a fingerprint must agree on point keys")
	}
	if a.PointKey(p) != fp.Key(p) {
		t.Fatal("PointKey must be the shared fingerprint key")
	}
}

// TestSkipStoringConsumesDraws: SkipStoring must leave rng exactly where
// NewStoringShared leaves it — for cell-only, point-only and two-sided
// instances, with a supplied or a private fingerprint and a δ that adds
// rows — so a sketch drawn after a skipped one is the sketch drawn after
// a built one. A skip allocates no slab (the s=4096 point side alone is
// 4·8192·5 words = 1.25 MiB).
func TestSkipStoringConsumesDraws(t *testing.T) {
	g := buildGrid(t, 1<<6, 2, 71)
	fp := hashing.NewFingerprint(rand.New(rand.NewSource(72)))
	cases := []struct {
		alpha, beta int
		delta       float64
		fp          *hashing.Fingerprint
	}{
		{64, 0, 0.01, fp}, {0, 4096, 0.01, fp}, {32, 32, 0.0001, fp}, {16, 16, 0.01, nil},
	}
	for _, c := range cases {
		built, skipped := rand.New(rand.NewSource(73)), rand.New(rand.NewSource(73))
		NewStoringShared(built, g, 3, c.alpha, c.beta, c.delta, c.fp)
		SkipStoring(skipped, g, c.alpha, c.beta, c.delta, c.fp)
		after := NewStoringShared(built, g, 3, c.alpha, c.beta, c.delta, c.fp)
		twin := NewStoringShared(skipped, g, 3, c.alpha, c.beta, c.delta, c.fp)
		for i := 0; i < 20; i++ {
			p := geo.Point{int64(i), int64(3 * i)}
			after.Insert(p)
			twin.Insert(p)
		}
		if after.Digest() != twin.Digest() {
			t.Fatalf("α=%d β=%d δ=%v: the sketch drawn after a skip differs from the one drawn after a build", c.alpha, c.beta, c.delta)
		}
		if built.Int63() != skipped.Int63() {
			t.Fatalf("α=%d β=%d δ=%v: SkipStoring left rng at a different position", c.alpha, c.beta, c.delta)
		}
	}
	rng := rand.New(rand.NewSource(74))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 8; i++ {
		SkipStoring(rng, g, 0, 4096, 0.01, fp)
	}
	runtime.ReadMemStats(&ms1)
	if b := ms1.TotalAlloc - ms0.TotalAlloc; b > 64<<10 {
		t.Fatalf("8 skips allocated %d bytes; a skip must allocate no slab", b)
	}
}

func TestStoringEpochAndDecodeCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildGrid(t, 64, 2, 7)
	st := NewStoring(rng, g, 2, 128, 64, 0.01)

	if st.Epoch() != 0 || st.CacheFresh() {
		t.Fatal("fresh sketch must have epoch 0 and no cache")
	}
	p := geo.Point{3, 5}
	st.Insert(p)
	st.Insert(geo.Point{9, 9})
	if st.Epoch() != 2 {
		t.Fatalf("epoch %d after 2 updates", st.Epoch())
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
	if !ok || len(res2.Cells) != len(res1.Cells) || len(res2.Points) != len(res1.Points) {
		t.Fatal("cached decode differs from the original")
	}

	// A mutation invalidates: the next decode sees the new state.
	st.Delete(p)
	if st.CacheFresh() {
		t.Fatal("update must invalidate the cache")
	}
	res3, ok := st.Result()
	if !ok {
		t.Fatal("decode FAILed after delete")
	}
	if len(res3.Points) != len(res1.Points)-1 {
		t.Fatalf("stale decode: %d points, want %d", len(res3.Points), len(res1.Points)-1)
	}

	// Merge invalidates and bumps the epoch on the receiver.
	sib := st.CloneEmpty()
	sib.Insert(geo.Point{17, 23})
	st.Result()
	e := st.Epoch()
	st.Merge(sib)
	if st.Epoch() != e+1 || st.CacheFresh() {
		t.Fatal("Merge must bump the epoch and drop the cache")
	}

	// DropCache releases memory without touching sketch state.
	st.Result()
	st.DropCache()
	if st.CacheBytes() != 0 || st.CacheFresh() {
		t.Fatal("DropCache left state behind")
	}
	if st.Bytes() != bytes0 {
		t.Fatal("cache lifecycle changed Bytes")
	}
}

func TestStoringCachesFailedDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := buildGrid(t, 1024, 2, 8)
	st := NewStoring(rng, g, g.L, 2, 0, 0.01) // alpha=2: trivially over-full
	for i := 0; i < 64; i++ {
		st.Insert(geo.Point{1 + rng.Int63n(1024), 1 + rng.Int63n(1024)})
	}
	if _, ok := st.Result(); ok {
		t.Fatal("64 cells in an alpha=2 sketch must FAIL")
	}
	if !st.CacheFresh() {
		t.Fatal("FAIL outcomes are deterministic and must be cached too")
	}
	if _, ok := st.Result(); ok {
		t.Fatal("cached FAIL must still FAIL")
	}
	// New state can flip a cached FAIL back to success.
	for i := 0; i < 64; i++ {
		// Note: deletes of unseen points would corrupt; instead verify the
		// cache invalidates and re-decodes (still FAIL, but freshly).
		st.Insert(geo.Point{1 + rng.Int63n(1024), 1 + rng.Int63n(1024)})
		if st.CacheFresh() {
			t.Fatal("insert must invalidate the cached FAIL")
		}
		break
	}
}

// TestStoringCacheStats pins the decode-cache accounting that DropCache
// decisions are made against: a cold Result is a miss, a repeated one a
// hit, an update in between makes the next Result a stale re-decode —
// answered differentially (a splice) when a base exists — DropCache
// counts as a drop (and a drop on an already-empty cache does not), a
// pristine-fork Merge is skipped outright, and a real Merge over a live
// base keeps it for the next splice instead of dropping, and a stale
// re-decode of a cached FAIL counts as StaleCold.
func TestStoringCacheStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := buildGrid(t, 1024, 2, 11)
	st := NewStoring(rng, g, 4, 256, 0, 0.01)
	for i := 0; i < 32; i++ {
		st.Insert(geo.Point{1 + rng.Int63n(1024), 1 + rng.Int63n(1024)})
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

	// A pristine fork never updated anything: the merge is a no-op, the
	// cache stays fresh and only MergeSkips moves.
	st.Merge(st.CloneEmpty())
	want(CacheStats{Hits: 2, Misses: 2, Stale: 1, Drops: 1, Splices: 1, MergeSkips: 1})
	if !st.CacheFresh() {
		t.Fatal("pristine-fork Merge must leave the cache fresh")
	}

	// A real merge over a live base keeps it (MergeKeeps, no drop): the
	// next Result splices the merged-in delta instead of re-peeling.
	fork := st.CloneEmpty()
	fork.Insert(geo.Point{9, 9})
	st.Merge(fork)
	want(CacheStats{Hits: 2, Misses: 2, Stale: 1, Drops: 1, Splices: 1, MergeKeeps: 1, MergeSkips: 1})
	if st.CacheFresh() {
		t.Fatal("real Merge must leave the cache stale")
	}
	st.Result()
	want(CacheStats{Hits: 2, Misses: 2, Stale: 2, Drops: 1, Splices: 2, MergeKeeps: 1, MergeSkips: 1})

	// A cached FAIL keeps no base, so its stale re-decode is a full cold
	// peel: Stale and StaleCold both move, Splices does not.
	over := NewStoring(rng, g, 4, 4, 0, 0.01)
	for i := int64(0); i < 16; i++ {
		over.Insert(geo.Point{1 + 64*i, 1 + 64*i})
	}
	if _, ok := over.Result(); ok {
		t.Fatal("16 cells in a 4-cell sketch must FAIL")
	}
	over.Insert(geo.Point{3, 3})
	over.Result()
	if got, w := over.CacheStats(), (CacheStats{Misses: 1, Stale: 1, StaleCold: 1}); got != w {
		t.Fatalf("over-full CacheStats = %+v, want %+v", got, w)
	}
}

// TestStoringMergeDropCounter pins the obs counters behind CacheStats's
// merge fields: a Merge over a live base moves
// sketch_cache_merge_keeps_total and leaves the merge-drop counter
// alone; a Merge over a cached FAIL (no base) discards the cached
// verdict and moves sketch_cache_merge_drops_total exactly once — not
// on merges into an undecoded receiver, and not on explicit DropCache
// calls.
func TestStoringMergeDropCounter(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	drops := obs.C("sketch_cache_merge_drops_total")
	keeps := obs.C("sketch_cache_merge_keeps_total")

	rng := rand.New(rand.NewSource(12))
	g := buildGrid(t, 1024, 2, 12)
	st := NewStoring(rng, g, 4, 256, 0, 0.01)
	st.Insert(geo.Point{3, 3})

	fork := st.CloneEmpty()
	fork.Insert(geo.Point{7, 7})

	// No cached decode on the receiver: the merge invalidates nothing.
	before := drops.Load()
	st.Merge(fork)
	if got := drops.Load(); got != before {
		t.Fatalf("merge into undecoded receiver moved the counter: %d -> %d", before, got)
	}

	// A live base: kept, not dropped.
	st.Result()
	keepsBefore := keeps.Load()
	fork2 := st.CloneEmpty()
	fork2.Insert(geo.Point{9, 9})
	st.Merge(fork2)
	if got := drops.Load(); got != before {
		t.Fatalf("merge over a spliceable base moved the drop counter: %d -> %d", before, got)
	}
	if got := keeps.Load(); got != keepsBefore+1 {
		t.Fatalf("merge over a spliceable base: keeps %d -> %d, want +1", keepsBefore, got)
	}
	if s := st.CacheStats(); s.MergeKeeps != 1 || s.MergeDrops != 0 {
		t.Fatalf("CacheStats = %+v, want MergeKeeps 1, MergeDrops 0", s)
	}

	// A cached FAIL has no base to splice from: the merge discards the
	// verdict and counts exactly one merge drop. Four distinct cells
	// overflow an alpha=2 cell sketch.
	full := NewStoring(rng, g, 4, 2, 0, 0.01)
	for _, p := range []geo.Point{{3, 3}, {300, 3}, {3, 300}, {300, 300}} {
		full.Insert(p)
	}
	if _, ok := full.Result(); ok {
		t.Fatal("over-full sketch must FAIL")
	}
	fork3 := full.CloneEmpty()
	fork3.Insert(geo.Point{11, 11})
	full.Merge(fork3)
	if got := drops.Load(); got != before+1 {
		t.Fatalf("merge over a cached FAIL: counter %d -> %d, want +1", before, got)
	}
	if s := full.CacheStats(); s.MergeDrops != 1 || s.MergeKeeps != 0 {
		t.Fatalf("CacheStats = %+v, want MergeDrops 1, MergeKeeps 0", s)
	}

	// An explicit DropCache is a plain drop, never a merge drop.
	st.Result()
	st.DropCache()
	if got := drops.Load(); got != before+1 {
		t.Fatalf("DropCache moved the merge-drop counter: %d -> %d", before+1, got)
	}
}
