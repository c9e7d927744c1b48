package sketch

import (
	"math/rand"
	"sort"
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
	mCacheMergeDrops      = obs.C("sketch_cache_merge_drops_total")
	mCacheSplices         = obs.C("sketch_cache_splices_total")
	mCacheSpliceFallbacks = obs.C("sketch_cache_splice_fallbacks_total")
	mCacheMergeKeeps      = obs.C("sketch_cache_merge_keeps_total")
	mCacheMergeSkips      = obs.C("sketch_cache_merge_skips_total")
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

	netUpdates int64 // net insertions − deletions, for sanity checks

	// epoch counts state mutations (updates and Merge). Result caches
	// its verdict tagged with the epoch it decoded at, so repeated
	// extraction over an unchanged sketch skips the slab peel entirely,
	// and a stale cache re-decodes differentially: snap holds the slab
	// as of the last successful decode and items that decode, sorted by
	// key, so only the residual cur − snap is peeled and spliced onto
	// items (DESIGN.md §13). A cached success *is* items. Cache and base
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
	// items is exactly the decode of snap, so splicing a verified
	// residual delta onto it reproduces the cold decode of the current
	// slab. A cached success implies a valid base.
	baseValid bool
	snap      []int64
	items     []Item
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
// DropCache calls that actually discarded a cached decode (including
// Merge's internal drop). MergeDrops is the subset of Drops caused by
// Merge — the cache churn a Fork/Merge recombination inflicts on the
// query snapshot; each MergeDrop is also counted in Drops.
//
// The incremental-decode counters (DESIGN.md §13): Splices counts stale
// re-decodes answered differentially (residual peel + merge onto the
// cached base, including deterministic FAIL verdicts reached that way);
// SpliceFallbacks counts differential attempts that could not prove
// exactness and fell back to a cold peel. StaleCold counts the Stale
// decodes that had no base to splice from — the last decode FAILed, so
// the re-decode is a full cold peel; a ratio of Splices to Misses plus
// SpliceFallbacks alone hides them. MergeSkips counts Merge calls
// skipped entirely because the incoming sibling was pristine (zero
// slab), leaving a fresh cache fresh; MergeKeeps counts merges of real
// state that kept the base for the next differential decode instead of
// dropping the cache.
//
// Counting happens on the query path only — never per stream update —
// so it is always on, independent of the obs.Enabled flag; the same
// events also feed the global sketch_cache_* counters.
type CacheStats struct {
	Hits, Misses, Stale, StaleCold, Drops, MergeDrops int64
	Splices, SpliceFallbacks, MergeKeeps, MergeSkips  int64
}

// Add adds o's counters to c, field by field.
func (c *CacheStats) Add(o CacheStats) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Stale += o.Stale
	c.StaleCold += o.StaleCold
	c.Drops += o.Drops
	c.MergeDrops += o.MergeDrops
	c.Splices += o.Splices
	c.SpliceFallbacks += o.SpliceFallbacks
	c.MergeKeeps += o.MergeKeeps
	c.MergeSkips += o.MergeSkips
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
// only for levels that changed. The returned items are shared with the
// cache and must be treated as read-only. Result is safe to call from
// concurrent goroutines on distinct or identical instances, but not
// concurrently with updates.
func (st *Storing) Result() ([]Item, bool) { return st.ResultArena(nil) }

// ResultArena is Result running its sparse-recovery decode out of the
// caller's DecodeArena (nil allocates transient scratch) — the
// extraction pipeline's decode pool keeps one arena per worker so cold
// decode rounds reuse one working slab instead of cloning per sketch.
// The cached items never alias arena memory (DecodeWith returns freshly
// allocated items), so arenas and caches have independent lifetimes.
func (st *Storing) ResultArena(a *DecodeArena) ([]Item, bool) {
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

// cached returns the cached verdict: a success is the base item list.
// mu must be held.
func (st *Storing) cached() ([]Item, bool) {
	if !st.cacheOK {
		return nil, false
	}
	return st.items, true
}

// decode answers a cache miss or a stale query and reports success, in
// which case the base holds the current decode; mu must be held, a may
// be nil (transient scratch). With a valid base it first attempts the
// spliced decode — residual peel plus merge onto the base items — and
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
	st.setBase(items)
	return true
}

// splice is the differential decode (DESIGN.md §13); mu must be held.
// It peels the residual cur − snap — by linearity, a valid sketch of
// exactly the updates applied since the base decode — and merges the
// verified delta onto the base items. done=false means the splice could
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
	merged, ok := mergeDecodedItems(st.items, delta)
	if !ok {
		return false, false
	}
	if len(merged) > st.sr.Sparsity() || anyNegative(merged) {
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

// setBase snapshots the live slab and adopts the given sorted items as
// the differential base; mu must be held. The snapshot reuses the
// previous base's buffer — via the sparse journal-guided refresh when
// one is live, so steady-state splicing copies only the changed buckets
// and allocates only the delta items. Either way the sketch restarts its
// dirty journal here: from this snapshot on, the journal enumerates
// exactly the buckets that diverge from it.
func (st *Storing) setBase(items []Item) {
	st.snap = st.sr.RefreshSnapshot(st.snap)
	st.items = items
	st.baseValid = true
}

// clearBase releases the differential base and the dirty journal that
// was tracking against its snapshot; mu must be held.
func (st *Storing) clearBase() {
	st.sr.StopDirtyTracking()
	st.snap, st.items, st.baseValid = nil, nil, false
}

// sortItemsByKey puts a decode's items into the canonical key order.
// Peel order depends on which buckets happened to be pure first; sorting
// makes cold and spliced decodes emit identical lists.
func sortItemsByKey(items []Item) {
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
}

// mergeDecodedItems combines the base item list (sorted by key) with a
// residual delta decode, producing the sorted item list of the summed
// vector — exactly what a cold peel of the current slab returns, since
// cur = snapshot + residual by linearity. Keys whose net count cancels
// to zero vanish (as they do from a cold peel). A key present in both
// lists must carry a consistent payload: the combined payload sum
// pc·prevP + dc·deltaP must divide evenly by the combined count, and a
// mismatch (only possible under a fingerprint collision) returns
// ok=false so the caller falls back to the cold peel's own verdict.
func mergeDecodedItems(prev, delta []Item) ([]Item, bool) {
	if len(delta) == 0 {
		return prev, true
	}
	sortItemsByKey(delta)
	out := make([]Item, 0, len(prev)+len(delta))
	i, j := 0, 0
	for i < len(prev) || j < len(delta) {
		switch {
		case j >= len(delta) || (i < len(prev) && prev[i].Key < delta[j].Key):
			out = append(out, prev[i])
			i++
		case i >= len(prev) || delta[j].Key < prev[i].Key:
			out = append(out, delta[j])
			j++
		default: // same key on both sides
			pc, dc := prev[i].Count, delta[j].Count
			nc := pc + dc
			if nc != 0 {
				it := Item{Key: prev[i].Key, Count: nc}
				if pd := len(prev[i].Payload); pd > 0 {
					if len(delta[j].Payload) != pd {
						return nil, false
					}
					p := make([]int64, pd)
					for x := 0; x < pd; x++ {
						num := pc*prev[i].Payload[x] + dc*delta[j].Payload[x]
						if num%nc != 0 {
							return nil, false
						}
						p[x] = num / nc
					}
					it.Payload = p
				}
				out = append(out, it)
			}
			i++
			j++
		}
	}
	return out, true
}

// Merge adds another Storing instance's state into st. Both must have
// been created from the same random source position (identical hash
// functions) — i.e. be CloneEmpty siblings; Merge panics on shape
// mismatch. Linearity makes the merged sketch equivalent to one that saw
// both streams interleaved.
//
// A pristine sibling (epoch 0: never updated since birth) has
// an identically zero slab, so merging it is arithmetically a no-op —
// Merge skips the state mutation entirely and a fresh decode cache
// stays fresh. This is what keeps a fork that touched k levels from
// dirtying the other levels' caches on recombination: Stream.Merge
// calls down here for every level, but only the levels the fork
// actually wrote pay anything.
func (st *Storing) Merge(other *Storing) {
	if st.level != other.level || st.kind != other.kind {
		panic("sketch: Storing merge shape mismatch")
	}
	if other.epoch == 0 {
		st.mu.Lock()
		st.stats.MergeSkips++
		mCacheMergeSkips.Inc()
		st.mu.Unlock()
		return
	}
	st.sr.Merge(other.sr)
	st.netUpdates += other.netUpdates
	st.epoch++
	st.invalidateForMerge()
}

// invalidateForMerge is Merge's cache bookkeeping for a real (non-empty)
// merge. With a valid differential base the cache is merely left stale:
// the epoch moved, but by linearity the next query's residual
// cur − snap simply includes the merged-in state, so it splices
// instead of re-peeling from scratch (MergeKeeps). Without a base — the
// last decode FAILed — the cached verdict is discarded; the discard
// counts both as a generic drop and under the merge-specific counters,
// so the cache churn of merge-at-extraction recombination stays
// separable from explicit DropCache calls.
func (st *Storing) invalidateForMerge() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.baseValid {
		st.stats.MergeKeeps++
		mCacheMergeKeeps.Inc()
		return
	}
	if st.cacheValid {
		st.stats.Drops++
		st.stats.MergeDrops++
		mCacheDrops.Inc()
		mCacheMergeDrops.Inc()
	}
	st.cacheOK, st.cacheEpoch, st.cacheValid = false, 0, false
}

// CloneEmpty returns a zeroed Storing sharing st's hash functions, so the
// clone can sketch a second stream and later be Merged back.
func (st *Storing) CloneEmpty() *Storing {
	return &Storing{g: st.g, level: st.level, kind: st.kind, fp: st.fp, sr: st.sr.CloneEmpty()}
}

// Bytes reports the sketch's memory footprint — the streaming space
// accounted by Theorem 4.5.
func (st *Storing) Bytes() int64 { return st.sr.Bytes() }

// Epoch returns the update epoch: a counter bumped by every
// state-mutating operation (Insert, Delete, UpdateKeyedScaledN, Merge).
// Result caches are tagged with it, so equal epochs mean the cached
// decode is current.
func (st *Storing) Epoch() uint64 { return st.epoch }

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
// and the differential base: the base item list (which a cached success
// returns), the slab snapshot and the dirty journal. It is deliberately
// NOT part of Bytes (and never enters Digest): all of it is derived
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
	b := int64(len(st.snap))*8 + int64(len(st.items))*40 + st.sr.DirtyJournalBytes()
	for i := range st.items {
		b += int64(len(st.items[i].Payload)) * 8
	}
	return b
}

// NetUpdates returns the net number of surviving stream updates seen.
func (st *Storing) NetUpdates() int64 { return st.netUpdates }
