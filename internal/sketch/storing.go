package sketch

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
)

// Telemetry (DESIGN.md §9). Handles are package vars so the hot paths
// never touch the registry; every bump is gated on obs.Enabled inside
// the metric itself. Per-level FAIL counters are created lazily on the
// (rare) FAIL path.
var (
	mCacheHits            = obs.C("sketch_cache_hits_total")
	mCacheMiss            = obs.C("sketch_cache_misses_total")
	mCacheStale           = obs.C("sketch_cache_stale_total")
	mCacheStaleCold       = obs.C("sketch_cache_stale_cold_total")
	mCacheDrops           = obs.C("sketch_cache_drops_total")
	mCacheSplices         = obs.C("sketch_cache_splices_total")
	mCacheSpliceFallbacks = obs.C("sketch_cache_splice_fallbacks_total")
	mDecodeFail           = obs.C("sketch_decode_fail_total")
	vDecodeFail           = obs.CV("sketch_decode_fail_total", "level")
	mDecodeNS             = obs.H("sketch_decode_ns")
)

// Storing is the dynamic-streaming subroutine Storing(G_i, α, β, δ) of
// Lemma 4.2, run for one recovered vector: over a stream of point
// insertions and deletions it maintains, in O(s·d·log) space, enough
// linear-sketch state to report at the end of the stream either
//
//   - Cells: the set C of all non-empty cells of grid level i and the
//     exact number of points f(C) in each cell C ∈ C, or
//   - Points: the set S of surviving points, with multiplicities,
//
// or FAIL. It never reports a wrong answer: if the vector has at most s
// nonzero entries the report succeeds with high probability.
//
// HSYZ18's Storing reports cells and points together, but Algorithm 4
// consumes them from different substreams: h_i and h′_i use only cell
// counts, ĥ_i only points. So each instance recovers one vector, and a
// substream that needs both would run two instances.
//
// The point side's capacity β bounds the surviving points across the
// whole level rather than per cell. That is the regime Algorithm 4
// actually operates the subroutine in: the β̂_i it passes is shown
// (Lemma 4.4) to bound the *total* sampled points of level i with high
// probability, so a flat β-sparse point recovery gives the same
// guarantee with the same FAIL semantics.
type Storing struct {
	g     *grid.Grid
	level int
	kind  Kind
	sr    *SparseRecovery // key: cell or point fingerprint; payload: cell index or coordinates
	fp    *hashing.Fingerprint

	netUpdates int64 // net insertions − deletions; Digest folds it in

	// epoch counts state mutations (updates). Result caches its
	// verdict tagged with the epoch it decoded at, so repeated
	// extraction over an unchanged sketch skips the slab peel entirely,
	// and a stale cache re-decodes differentially: snap holds the slab
	// as of the last successful decode and base that decode, sorted by
	// key, so only the residual cur − snap is peeled and spliced onto
	// base (DESIGN.md §13). A cached success *is* base. Cache and base
	// are derived state: excluded from Bytes (see CacheBytes), absent
	// from Digest. mu serializes concurrent Result calls; updates must
	// still not run concurrently with anything else.
	epoch      uint64
	mu         sync.Mutex
	cacheOK    bool
	cacheEpoch uint64
	cacheValid bool
	stats      CacheStats // guarded by mu; always counted (query path only)

	// Differential-decode base, valid only after a successful decode:
	// base is exactly the decode of snap, so splicing a verified residual
	// delta onto it reproduces the cold decode of the current slab. A
	// cached success implies a valid base, and is it. base holds each
	// item's grid keys beside it (see ResultKeyed): the keys the plan
	// step and assembly look up, computed once per decoded item — a
	// splice carries a base item's keys over and keys only delta items.
	// A splice builds a new Decoded and never writes to base, which views
	// handed out earlier may still read (Decoded).
	baseValid bool
	snap      []int64
	base      *Decoded
}

// Kind selects the vector a Storing recovers.
type Kind int

const (
	// Cells recovers the non-empty cells of the sketch's level: Item.Key
	// is the cell key grid.KeyOf(level, Index), Item.Payload the cell
	// index vector, Item.Count the number of surviving points in it.
	Cells Kind = iota
	// Points recovers the surviving points: Item.Key is the point's
	// fingerprint key, Item.Payload its coordinates, Item.Count its
	// multiplicity.
	Points
)

// CacheStats reports how the decode cache behaved over this instance's
// lifetime; one Storing sketches one grid level, so these are the
// per-level hit/splice counters the stream layer aggregates. Hits are
// Result calls answered from the cache, Misses are decodes with no
// cached entry (cold), Stale are decodes forced because updates advanced
// the epoch past a cached entry (the invalidation count), Drops counts
// DropCache calls that actually discarded a cached decode.
//
// The incremental-decode counters (DESIGN.md §13): Splices counts stale
// re-decodes answered differentially (residual peel + merge onto the
// cached base, including deterministic FAIL verdicts reached that way);
// SpliceFallbacks counts differential attempts that could not prove
// exactness and fell back to a cold peel. StaleCold counts the Stale
// decodes that had no base to splice from — the last decode FAILed, so
// the re-decode is a full cold peel; a ratio of Splices to Misses plus
// SpliceFallbacks alone hides them.
//
// Counting happens on the query path only — never per stream update —
// so it is always on, independent of the obs.Enabled flag; the same
// events also feed the global sketch_cache_* counters.
type CacheStats struct {
	Hits, Misses, Stale, StaleCold, Drops int64
	Splices, SpliceFallbacks              int64
}

// Add adds o's counters to c, field by field.
func (c *CacheStats) Add(o CacheStats) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Stale += o.Stale
	c.StaleCold += o.StaleCold
	c.Drops += o.Drops
	c.Splices += o.Splices
	c.SpliceFallbacks += o.SpliceFallbacks
}

// NewStoring creates a Storing instance for grid level `level` of g
// that recovers one vector of the given kind, at most capacity nonzero
// entries of it (α for Cells, β for Points), with failure probability
// delta. fp is the point fingerprint, shared so that a batched ingestion
// pipeline computes each point's key once and reuses it across every
// level and guess instance (the collision bound is per pair of distinct
// points, union-bounded the same way); nil draws a private one from rng.
// It panics on an unknown kind or a capacity below 1.
func NewStoring(rng *rand.Rand, g *grid.Grid, level int, kind Kind, capacity int, delta float64, fp *hashing.Fingerprint) *Storing {
	st := drawStoring(rng, g, level, kind, capacity, delta, fp)
	st.sr.allocSlab()
	return st
}

// SkipStoring consumes from rng exactly the draws NewStoring would take
// for the same arguments, and allocates no sketch state. A caller that
// lets one instance stand in for another it would have built uses it,
// so that every instance drawn after the skipped one keeps the hash
// functions it would otherwise have had.
func SkipStoring(rng *rand.Rand, g *grid.Grid, kind Kind, capacity int, delta float64, fp *hashing.Fingerprint) {
	drawStoring(rng, g, 0, kind, capacity, delta, fp)
}

// drawStoring is NewStoring without the slab: the hash functions are
// drawn, in NewStoring's order, but no bucket state exists.
//
// The sketch gets failure budget δ/2, the share Lemma 4.2's two-sided
// Storing gives each of its two recoveries. δ sets the row count, so
// the δ/2 keeps every instance's draws, slab and FAIL rate those of the
// two-sided sketch it replaced; the full δ would save one row of five
// at δ = 0.01, a change that waits on a measured FAIL-rate curve.
func drawStoring(rng *rand.Rand, g *grid.Grid, level int, kind Kind, capacity int, delta float64, fp *hashing.Fingerprint) *Storing {
	if kind != Cells && kind != Points {
		panic("sketch: Storing kind must be Cells or Points")
	}
	if capacity < 1 {
		panic("sketch: Storing capacity must be >= 1")
	}
	if fp == nil {
		fp = hashing.NewFingerprint(rng)
	}
	return &Storing{
		g: g, level: level, kind: kind, fp: fp,
		sr: drawSparseRecovery(rng, capacity, delta/2, g.Dim),
	}
}

// Insert processes the stream update (p, +).
func (st *Storing) Insert(p geo.Point) { st.update(p, +1) }

// Delete processes the stream update (p, −). The stream contract of
// Section 4.2 guarantees p is present; the sketch stays linear either way.
func (st *Storing) Delete(p geo.Point) { st.update(p, -1) }

func (st *Storing) update(p geo.Point, delta int64) {
	if st.kind == Cells {
		idx := st.g.CellIndex(p, st.level)
		st.sr.Update(st.g.KeyOf(st.level, idx), idx, delta)
	} else {
		st.sr.Update(st.fp.Key(p), p, delta)
	}
	st.netUpdates += delta
	st.epoch++
}

// UpdateKeyedScaledN is the columnar keyed entry point of the batched
// ingestion pipeline: it applies a batch of key-coalesced updates with
// every key supplied by the caller, which computes them once per op and
// reuses them across the sketches of every level and guess instance.
// Each row is one distinct key with its summed delta (Σ dᵢ) and
// delta-scaled payload sum (Σ dᵢ·payloadᵢ, Dim words per row): for
// Cells the key is g.KeyOf(level, idx) and the payload the cell index,
// for Points the key is the shared fingerprint's key and the payload
// the coordinates. The columns route to SparseRecovery.UpdateScaledN,
// whose exact linear sums make the sketch state bit-identical to
// Insert/Delete of the constituent ops one at a time — including
// zero-delta rows (an op and its deletion coalesced away), which must
// still be applied because their payload sums need not vanish when two
// distinct inputs share a fingerprint key. netUpdates advances by the
// delta sum and the epoch once per non-empty batch.
func (st *Storing) UpdateKeyedScaledN(keys []uint64, scaled []int64, deltas []int64) {
	if len(deltas) == 0 {
		return
	}
	st.sr.UpdateScaledN(keys, scaled, deltas)
	for _, d := range deltas {
		st.netUpdates += d
	}
	st.epoch++
}

// Digest folds the full sketch state into one 64-bit value; equal digests
// on hash-sharing siblings mean bit-identical state.
func (st *Storing) Digest() uint64 {
	return hashing.Mix64(hashing.Mix64(uint64(st.netUpdates)) ^ st.sr.Digest())
}

// Result decodes the sketch into its nonzero entries, sorted by key (see
// Kind for what an Item holds). ok is false on FAIL (too many entries, a
// negative net count, or an internal verification failure); a false
// result carries no partial information, matching Lemma 4.2.
//
// Decoding is deterministic in the sketch state, so Result memoizes its
// outcome (success or FAIL) tagged with the current epoch and returns it
// until the next mutation — periodic extraction over a long stream pays
// only for levels that changed. The returned slice is a fresh copy of
// the cached decode; the item payloads are shared with the cache and
// must be treated as read-only. Result is safe to call from concurrent
// goroutines on distinct or identical instances, but not concurrently
// with updates.
func (st *Storing) Result() ([]Item, bool) {
	d, ok := st.ResultKeyed(nil)
	if !ok {
		return nil, false
	}
	return d.Items(), true
}

// ResultKeyed is Result returning the cached decode itself, as a
// read-only view that no later splice changes (Decoded), and running its
// sparse-recovery decode out of the caller's DecodeArena (nil allocates
// transient scratch) — the extraction pipeline's decode pool keeps one
// arena per worker so cold decode rounds reuse one working slab instead
// of cloning per sketch. The cached items never alias arena memory
// (DecodeWith returns freshly allocated items), so arenas and caches
// have independent lifetimes. A cache hit returns the same *Decoded.
//
// Beside each item the view holds its grid keys, keyStride words per
// item: for a Points item t of a chunk, keys[2t] and keys[2t+1] are the
// keys of the level-(i−1) and level-i cells holding the point
// (grid.PointKeys); for a Cells item t, keys[t] is the key of the cell's
// level-(i−1) parent (grid.ParentKey).
func (st *Storing) ResultKeyed(a *DecodeArena) (*Decoded, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cacheValid && st.cacheEpoch == st.epoch {
		st.stats.Hits++
		mCacheHits.Inc()
		return st.cached()
	}
	if st.cacheValid {
		st.stats.Stale++
		mCacheStale.Inc()
		if !st.baseValid {
			st.stats.StaleCold++
			mCacheStaleCold.Inc()
		}
	} else {
		st.stats.Misses++
		mCacheMiss.Inc()
	}
	t0 := obs.NowNano()
	ok := st.decode(a)
	mDecodeNS.ObserveSince(t0)
	if !ok && obs.Enabled() {
		mDecodeFail.Inc()
		vDecodeFail.Inc(strconv.Itoa(st.level))
	}
	st.cacheOK = ok
	st.cacheEpoch, st.cacheValid = st.epoch, true
	return st.cached()
}

// cached returns the cached verdict: a success is the base decode. mu
// must be held.
func (st *Storing) cached() (*Decoded, bool) {
	if !st.cacheOK {
		return nil, false
	}
	return st.base, true
}

// keyStride is the number of grid keys kept per decoded item: a point's
// two cell keys, or a cell's parent key.
func (st *Storing) keyStride() int {
	if st.kind == Points {
		return 2
	}
	return 1
}

// keyItem writes the keyStride grid keys of it to dst.
func (st *Storing) keyItem(dst []uint64, it *Item) {
	if st.kind == Points {
		dst[0], dst[1] = st.g.PointKeys(geo.Point(it.Payload), st.level)
	} else {
		dst[0] = st.g.ParentKey(st.level, it.Payload)
	}
}

// decode answers a cache miss or a stale query and reports success, in
// which case the base holds the current decode; mu must be held, a may
// be nil (transient scratch). With a valid base it first attempts the
// spliced decode — residual peel plus merge onto the base decode — and
// falls back to the cold full peel only when the splice cannot prove
// exactness (residual denser than 2s, or a combine mismatch, both of
// which only occur under fingerprint collisions or genuinely large
// deltas).
func (st *Storing) decode(a *DecodeArena) bool {
	if st.baseValid {
		if ok, done := st.splice(a); done {
			st.stats.Splices++
			mCacheSplices.Inc()
			return ok
		}
		st.stats.SpliceFallbacks++
		mCacheSpliceFallbacks.Inc()
	}
	return st.decodeCold(a)
}

// decodeCold runs the full sparse-recovery peel and refreshes (or
// clears) the differential base; mu must be held. A negative net count
// (more deletions than insertions: a corrupt stream) FAILs. A peel never
// emits a zero count — pureKeyAt rejects it — so no filter is needed.
func (st *Storing) decodeCold(a *DecodeArena) bool {
	items, ok := st.sr.DecodeWith(a)
	if !ok || anyNegative(items) {
		st.clearBase()
		return false
	}
	sortItemsByKey(items)
	w := st.keyStride()
	keys := make([]uint64, len(items)*w)
	for t := range items {
		st.keyItem(keys[t*w:], &items[t])
	}
	st.setBase(newDecoded(items, keys, w))
	return true
}

// splice is the differential decode (DESIGN.md §13); mu must be held.
// It peels the residual cur − snap — by linearity, a valid sketch of
// exactly the updates applied since the base decode — and merges the
// verified delta onto the base decode (mergeDecoded). done=false means the splice could
// not prove exactness and the caller must fall back to a cold peel;
// done=true carries a definitive verdict: either the spliced success,
// or a deterministic FAIL (combined support past the sparsity budget,
// or a negative net count) that the cold peel would also reach. The
// residual item cap is 2s: a ≤ s-sparse base and a ≤ s-sparse current
// state can differ in at most 2s keys, so a denser residual proves
// nothing and falls back.
func (st *Storing) splice(a *DecodeArena) (ok, done bool) {
	delta, ok := st.sr.DecodeDeltaWith(a, st.snap, 2*st.sr.Sparsity())
	if !ok {
		return false, false
	}
	merged, neg, ok := st.mergeDecoded(delta)
	if !ok {
		return false, false
	}
	if neg || merged.Len() > st.sr.Sparsity() {
		// A FAIL verdict keeps the old base: it is still an exact decode
		// of its snapshot, and deletions may shrink the state back under
		// the budget.
		return false, true
	}
	st.setBase(merged)
	return true, true
}

// anyNegative reports whether a decode holds a negative net count.
func anyNegative(items []Item) bool {
	for i := range items {
		if items[i].Count < 0 {
			return true
		}
	}
	return false
}

// setBase snapshots the live slab and adopts the given decode as the
// differential base; mu must be held. The snapshot
// reuses the previous base's buffer — via the sparse journal-guided
// refresh when one is live, so steady-state splicing copies only the
// changed buckets and allocates only the delta items. Either way the sketch restarts its
// dirty journal here: from this snapshot on, the journal enumerates
// exactly the buckets that diverge from it.
func (st *Storing) setBase(d *Decoded) {
	st.snap = st.sr.RefreshSnapshot(st.snap)
	st.base = d
	st.baseValid = true
}

// clearBase releases the differential base and the dirty journal that
// was tracking against its snapshot; mu must be held.
func (st *Storing) clearBase() {
	st.sr.StopDirtyTracking()
	st.snap, st.base, st.baseValid = nil, nil, false
}

// sortItemsByKey puts a decode's items into the canonical key order.
// Peel order depends on which buckets happened to be pure first; sorting
// makes cold and spliced decodes emit identical lists.
func sortItemsByKey(items []Item) {
	slices.SortFunc(items, func(a, b Item) int { return cmp.Compare(a.Key, b.Key) })
}

// Bytes reports the sketch's memory footprint — the streaming space
// accounted by Theorem 4.5.
func (st *Storing) Bytes() int64 { return st.sr.Bytes() }

// CacheFresh reports whether a decode cached at the current epoch exists
// — i.e. whether the next Result call is free.
func (st *Storing) CacheFresh() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cacheValid && st.cacheEpoch == st.epoch
}

// DropCache discards the decode cache and the differential base
// (releasing their memory). Purely a performance knob: the next Result
// re-decodes cold from the slab.
func (st *Storing) DropCache() {
	st.mu.Lock()
	if st.cacheValid {
		st.stats.Drops++
		mCacheDrops.Inc()
	}
	st.cacheOK, st.cacheEpoch, st.cacheValid = false, 0, false
	st.clearBase()
	st.mu.Unlock()
}

// CacheStats returns this instance's decode-cache behaviour so far.
// Safe to call concurrently with Result.
func (st *Storing) CacheStats() CacheStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// CacheBytes reports the approximate memory held by the decode cache
// and the differential base: the base decode with its grid keys (which
// a cached success returns), the slab snapshot and the dirty journal. It
// is deliberately NOT part of Bytes (and never enters Digest): all of it is derived
// state, reconstructible from the slab at any time, not sketch space —
// the streaming space bound of Theorem 4.5 is about what must be
// retained to answer future updates, and DropCache returns this gauge
// to zero while losing nothing.
func (st *Storing) CacheBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.baseValid {
		return 0
	}
	return int64(len(st.snap))*8 + st.base.bytes() + st.sr.DirtyJournalBytes()
}
