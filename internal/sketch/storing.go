package sketch

import (
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

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

// incrementalOn gates the differential decode path of ResultArena (on by
// default). Both settings produce identical reported results — the
// spliced decode falls back to a cold peel whenever it cannot prove
// exactness — so the knob is a perf A/B switch for benchmarks and the
// incremental-vs-cold equivalence suite (DESIGN.md §13).
var incrementalOn = func() *atomic.Bool {
	var b atomic.Bool
	b.Store(true)
	return &b
}()

// SetIncremental enables or disables differential (spliced) decoding,
// returning the previous setting. Safe to call between queries.
func SetIncremental(on bool) bool { return incrementalOn.Swap(on) }

// Storing is the dynamic-streaming subroutine Storing(G_i, α, β, δ) of
// Lemma 4.2: over a stream of point insertions and deletions it maintains,
// in O(αβ·d·log) space, enough linear-sketch state to report at the end of
// the stream
//
//  1. the set C of all non-empty cells of grid level i,
//  2. the exact number of points f(C) in each cell C ∈ C, and
//  3. the set S of surviving points (with multiplicities),
//
// or FAIL. It never reports a wrong answer: if |C| ≤ α (and, when point
// recovery is enabled, at most β points survive in the substream) the
// report succeeds with high probability.
//
// β here bounds the total number of surviving points across the level
// rather than per cell. That is the regime Algorithm 4 actually operates
// the subroutine in: the β̂_i it passes is shown (Lemma 4.4) to bound the
// *total* sampled points of level i with high probability, so a flat
// β-sparse point recovery gives the same guarantee with the same FAIL
// semantics. Pass β = 0 to disable point recovery (the h and h′ substreams
// of Algorithm 4 only consume cell counts).
type Storing struct {
	g     *grid.Grid
	level int
	alpha int
	beta  int

	cells  *SparseRecovery // key: cell fingerprint; payload: cell index vector
	points *SparseRecovery // key: point fingerprint; payload: coordinates
	fp     *hashing.Fingerprint

	netUpdates int64 // net insertions − deletions, for sanity checks

	// epoch counts state mutations (Update/UpdateKeyed/Merge). Result
	// caches its decode tagged with the epoch it decoded at, so repeated
	// extraction over an unchanged sketch skips the slab peel entirely,
	// and a stale cache re-decodes differentially: the base below holds a
	// slab snapshot plus the sorted item list of the last successful
	// decode, so only the residual cur − snapshot is peeled and spliced
	// onto the base (DESIGN.md §13). Cache and base are derived state:
	// excluded from Bytes (see CacheBytes), absent from Digest. mu
	// serializes concurrent Result calls; updates must still not run
	// concurrently with anything else.
	epoch      uint64
	mu         sync.Mutex
	cache      StoringResult
	cacheOK    bool
	cacheEpoch uint64
	cacheValid bool
	stats      CacheStats // guarded by mu; always counted (query path only)

	// Differential-decode base: valid only after a fully successful
	// decode with incremental mode on. Each enabled side keeps the slab
	// snapshot taken at that decode and its exact sorted item list; a
	// later query peels only cur − snapshot and merges the delta in.
	baseValid  bool
	baseCells  sideBase
	basePoints sideBase
}

// sideBase is one substream's differential-decode base: the slab
// snapshot of the last successful decode and the items it decoded to,
// sorted by key. items is exactly the decode of snap, so splicing a
// verified residual delta onto it reproduces the cold decode of the
// current slab.
type sideBase struct {
	snap  []int64
	items []Item
}

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
// exactness and fell back to a cold peel. MergeSkips counts Merge calls
// skipped entirely because the incoming sibling was pristine (zero
// slab), leaving a fresh cache fresh; MergeKeeps counts merges of real
// state that kept the base for the next differential decode instead of
// dropping the cache.
//
// Counting happens on the query path only — never per stream update —
// so it is always on, independent of the obs.Enabled flag; the same
// events also feed the global sketch_cache_* counters.
type CacheStats struct {
	Hits, Misses, Stale, Drops, MergeDrops           int64
	Splices, SpliceFallbacks, MergeKeeps, MergeSkips int64
}

// CellCount is one recovered non-empty cell.
type CellCount struct {
	Key   uint64  // cell key as produced by grid.KeyOf(level, Index)
	Index []int64 // cell index vector at the sketch's level
	Count int64   // number of surviving points in the cell
}

// StoringResult is the end-of-stream report of a Storing instance.
type StoringResult struct {
	Level  int
	Cells  []CellCount
	Points []PointCount // empty when point recovery is disabled
}

// PointCount is a recovered surviving point with its multiplicity.
type PointCount struct {
	P     geo.Point
	Count int64
}

// NewStoring creates a Storing instance for grid level `level` of g. alpha
// bounds the number of distinct non-empty cells (0 disables cell
// recovery — a points-only sketch, as the ĥ-substream of Algorithm 4
// uses), beta the total number of surviving points to recover (0 disables
// point recovery), delta the failure probability.
func NewStoring(rng *rand.Rand, g *grid.Grid, level, alpha, beta int, delta float64) *Storing {
	return NewStoringShared(rng, g, level, alpha, beta, delta, nil)
}

// NewStoringShared is NewStoring with an externally supplied point
// fingerprint (nil draws a private one from rng). Sharing one fingerprint
// across the Storing instances of all levels — and, in the guess
// enumeration, all instances — lets a batched ingestion pipeline compute
// each point's key once and reuse it everywhere; the fingerprint collision
// bound is unchanged (it is per pair of distinct points, union-bounded the
// same way).
func NewStoringShared(rng *rand.Rand, g *grid.Grid, level, alpha, beta int, delta float64, fp *hashing.Fingerprint) *Storing {
	if fp == nil {
		fp = hashing.NewFingerprint(rng)
	}
	st := &Storing{
		g:     g,
		level: level,
		alpha: alpha,
		beta:  beta,
		fp:    fp,
	}
	if alpha > 0 {
		st.cells = NewSparseRecovery(rng, alpha, delta/2, g.Dim)
	}
	if beta > 0 {
		st.points = NewSparseRecovery(rng, beta, delta/2, g.Dim)
	}
	return st
}

// Insert processes the stream update (p, +).
func (st *Storing) Insert(p geo.Point) { st.update(p, +1) }

// Delete processes the stream update (p, −). The stream contract of
// Section 4.2 guarantees p is present; the sketch stays linear either way.
func (st *Storing) Delete(p geo.Point) { st.update(p, -1) }

func (st *Storing) update(p geo.Point, delta int64) {
	if st.cells != nil {
		idx := st.g.CellIndex(p, st.level)
		st.cells.Update(st.g.KeyOf(st.level, idx), idx, delta)
	}
	if st.points != nil {
		st.points.Update(st.fp.Key(p), p, delta)
	}
	st.netUpdates += delta
	st.epoch++
}

// UpdateKeyed applies one update with every derivable key supplied by the
// caller: cellKey/cellIdx must equal g.KeyOf(level, g.CellIndex(p, level))
// and pointKey must equal PointKey(p). The batched ingestion pipeline
// computes these once per op and reuses them across the h/h′/ĥ sketches of
// every level and guess instance; because the values are identical to what
// update would compute, the resulting sketch state is bit-identical to the
// per-op path.
func (st *Storing) UpdateKeyed(cellKey uint64, cellIdx []int64, pointKey uint64, p geo.Point, delta int64) {
	if st.cells != nil {
		st.cells.Update(cellKey, cellIdx, delta)
	}
	if st.points != nil {
		st.points.Update(pointKey, p, delta)
	}
	st.netUpdates += delta
	st.epoch++
}

// UpdateKeyedN is the columnar form of UpdateKeyed: it applies a batch
// of keyed updates through the 4-lane sketch kernels
// (SparseRecovery.UpdateN). cellKeys/cellIdx feed the cell sketch
// (cellIdx flat, Dim words per update); pointKeys/points feed the point
// sketch (flat, Dim words per update). A disabled side's columns may be
// nil; an enabled side's columns must be supplied — single-sided
// instances (the h/h′/ĥ substreams) pass nil for the other side. All
// supplied columns must have len(deltas) rows. Exactly-summed sketch
// state makes the result bit-identical to len(deltas) UpdateKeyed
// calls; the epoch advances once per non-empty batch.
func (st *Storing) UpdateKeyedN(cellKeys []uint64, cellIdx []int64, pointKeys []uint64, points []int64, deltas []int64) {
	if len(deltas) == 0 {
		return
	}
	if st.cells != nil {
		if cellKeys == nil {
			panic("sketch: UpdateKeyedN missing cell columns for a cell-recovery instance")
		}
		st.cells.UpdateN(cellKeys, cellIdx, deltas)
	}
	if st.points != nil {
		if pointKeys == nil {
			panic("sketch: UpdateKeyedN missing point columns for a point-recovery instance")
		}
		st.points.UpdateN(pointKeys, points, deltas)
	}
	for _, d := range deltas {
		st.netUpdates += d
	}
	st.epoch++
}

// UpdateKeyedScaledN is UpdateKeyedN for key-coalesced input: each row
// is one distinct key with its summed delta (Σ dᵢ) and delta-scaled
// payload sum (Σ dᵢ·payloadᵢ), as produced by the ingest coalescer.
// The columns route to SparseRecovery.UpdateScaledN, whose exact
// linear sums make the sketch state bit-identical to applying the
// constituent per-op updates individually — including zero-delta rows
// (an op and its deletion coalesced away), which must still be applied
// because their payload sums need not vanish when two distinct inputs
// share a fingerprint key. netUpdates advances by the delta sum and the
// epoch once per non-empty batch, exactly like UpdateKeyedN.
func (st *Storing) UpdateKeyedScaledN(cellKeys []uint64, cellScaled []int64, pointKeys []uint64, pointScaled []int64, deltas []int64) {
	if len(deltas) == 0 {
		return
	}
	if st.cells != nil {
		if cellKeys == nil {
			panic("sketch: UpdateKeyedScaledN missing cell columns for a cell-recovery instance")
		}
		st.cells.UpdateScaledN(cellKeys, cellScaled, deltas)
	}
	if st.points != nil {
		if pointKeys == nil {
			panic("sketch: UpdateKeyedScaledN missing point columns for a point-recovery instance")
		}
		st.points.UpdateScaledN(pointKeys, pointScaled, deltas)
	}
	for _, d := range deltas {
		st.netUpdates += d
	}
	st.epoch++
}

// PointKey returns the key UpdateKeyed expects for p — st's point
// fingerprint, shared across instances built with NewStoringShared.
func (st *Storing) PointKey(p geo.Point) uint64 { return st.fp.Key(p) }

// Digest folds the full sketch state into one 64-bit value; equal digests
// on hash-sharing siblings mean bit-identical state.
func (st *Storing) Digest() uint64 {
	d := hashing.Mix64(uint64(st.netUpdates))
	if st.cells != nil {
		d = hashing.Mix64(d ^ st.cells.Digest())
	}
	if st.points != nil {
		d = hashing.Mix64(d ^ st.points.Digest())
	}
	return d
}

// Result decodes the sketch. ok is false on FAIL (too many cells or
// points, or an internal verification failure); a false result carries no
// partial information, matching Lemma 4.2.
//
// Decoding is deterministic in the sketch state, so Result memoizes its
// outcome (success or FAIL) tagged with the current epoch and returns it
// until the next mutation — periodic extraction over a long stream pays
// only for levels that changed. The returned slices are shared with the
// cache and must be treated as read-only. Result is safe to call from
// concurrent goroutines on distinct or identical instances, but not
// concurrently with updates.
func (st *Storing) Result() (StoringResult, bool) { return st.ResultArena(nil) }

// ResultArena is Result running its sparse-recovery decodes out of the
// caller's DecodeArena (nil allocates transient scratch) — the
// extraction pipeline's decode pool keeps one arena per worker so cold
// decode rounds reuse one working slab instead of cloning per sketch.
// The cached result never aliases arena memory (DecodeWith returns
// freshly allocated items), so arenas and caches have independent
// lifetimes.
func (st *Storing) ResultArena(a *DecodeArena) (StoringResult, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cacheValid && st.cacheEpoch == st.epoch {
		st.stats.Hits++
		mCacheHits.Inc()
		return st.cache, st.cacheOK
	}
	if st.cacheValid {
		st.stats.Stale++
		mCacheStale.Inc()
	} else {
		st.stats.Misses++
		mCacheMiss.Inc()
	}
	t0 := obs.NowNano()
	res, ok := st.decode(a)
	mDecodeNS.ObserveSince(t0)
	if !ok && obs.Enabled() {
		mDecodeFail.Inc()
		vDecodeFail.Inc(strconv.Itoa(st.level))
	}
	st.cache, st.cacheOK = res, ok
	st.cacheEpoch, st.cacheValid = st.epoch, true
	return res, ok
}

// decode answers a cache miss or a stale query; mu must be held, a may
// be nil (transient scratch). With a valid differential base it first
// attempts the spliced decode — residual peel plus merge onto the base
// item lists — and falls back to the cold full peel only when the
// splice cannot prove exactness (residual denser than 2s, or a combine
// mismatch, both of which only occur under fingerprint collisions or
// genuinely large deltas).
func (st *Storing) decode(a *DecodeArena) (StoringResult, bool) {
	if incrementalOn.Load() && st.baseValid {
		res, ok, done := st.splice(a)
		if done {
			st.stats.Splices++
			mCacheSplices.Inc()
			return res, ok
		}
		st.stats.SpliceFallbacks++
		mCacheSpliceFallbacks.Inc()
	}
	return st.decodeCold(a)
}

// decodeCold runs the full sparse-recovery peel of both sides and
// refreshes (or clears) the differential base; mu must be held.
func (st *Storing) decodeCold(a *DecodeArena) (StoringResult, bool) {
	var cellItems, pointItems []Item
	if st.cells != nil {
		items, ok := st.cells.DecodeWith(a)
		if !ok {
			st.clearBase()
			return StoringResult{}, false
		}
		sortItemsByKey(items)
		cellItems = items
	}
	if st.points != nil {
		items, ok := st.points.DecodeWith(a)
		if !ok {
			st.clearBase()
			return StoringResult{}, false
		}
		sortItemsByKey(items)
		pointItems = items
	}
	res, ok := st.buildResult(cellItems, pointItems)
	if ok && incrementalOn.Load() {
		st.setBase(cellItems, pointItems)
	} else if !ok {
		st.clearBase()
	}
	return res, ok
}

// splice is the differential decode (DESIGN.md §13); mu must be held.
// For each enabled side it peels the residual cur − snapshot — by
// linearity, a valid sketch of exactly the updates applied since the
// base decode — and merges the verified delta onto the base item list.
// done=false means the splice could not prove exactness and the caller
// must fall back to a cold peel; done=true carries a definitive verdict:
// either the spliced success, or a deterministic FAIL (combined support
// past the sparsity budget, or a negative net count) that the cold peel
// would also reach. The residual item cap is 2s: a ≤ s-sparse base and a
// ≤ s-sparse current state can differ in at most 2s keys, so a denser
// residual proves nothing and falls back.
func (st *Storing) splice(a *DecodeArena) (res StoringResult, ok, done bool) {
	var cellItems, pointItems []Item
	if st.cells != nil {
		merged, mok, exact := spliceSide(st.cells, a, &st.baseCells)
		if !exact {
			return StoringResult{}, false, false
		}
		if !mok {
			return StoringResult{}, false, true
		}
		cellItems = merged
	}
	if st.points != nil {
		merged, mok, exact := spliceSide(st.points, a, &st.basePoints)
		if !exact {
			return StoringResult{}, false, false
		}
		if !mok {
			return StoringResult{}, false, true
		}
		pointItems = merged
	}
	res, rok := st.buildResult(cellItems, pointItems)
	if rok {
		// Refresh the base to the current state: snapshot the live slabs
		// and adopt the merged lists. On a FAIL verdict the old base stays
		// — it is still an exact decode of its snapshot, and deletions may
		// shrink the state back under the budget.
		st.setBase(cellItems, pointItems)
	}
	return res, rok, true
}

// spliceSide runs one side's residual peel + merge. exact=false means
// fall back to a cold decode; ok=false (with exact=true) means the
// combined support exceeds the sparsity budget — the deterministic FAIL
// a cold peel of an over-full sketch reports.
func spliceSide(sr *SparseRecovery, a *DecodeArena, base *sideBase) (merged []Item, ok, exact bool) {
	delta, pok := sr.DecodeDeltaWith(a, base.snap, 2*sr.Sparsity())
	if !pok {
		return nil, false, false
	}
	merged, mok := mergeDecodedItems(base.items, delta)
	if !mok {
		return nil, false, false
	}
	if len(merged) > sr.Sparsity() {
		return nil, false, true
	}
	return merged, true, true
}

// buildResult converts the decoded item lists into the reported
// StoringResult, FAILing on any negative net count (more deletions than
// insertions: corrupt stream). The lists are sorted by key, so repeated
// extraction — spliced or cold — reports cells and points in one
// canonical order.
func (st *Storing) buildResult(cellItems, pointItems []Item) (StoringResult, bool) {
	res := StoringResult{Level: st.level}
	if st.cells != nil {
		for _, it := range cellItems {
			if it.Count < 0 {
				return StoringResult{}, false
			}
			if it.Count == 0 {
				continue
			}
			res.Cells = append(res.Cells, CellCount{Key: it.Key, Index: it.Payload, Count: it.Count})
		}
	}
	if st.points != nil {
		for _, it := range pointItems {
			if it.Count < 0 {
				return StoringResult{}, false
			}
			if it.Count == 0 {
				continue
			}
			res.Points = append(res.Points, PointCount{P: geo.Point(it.Payload), Count: it.Count})
		}
	}
	return res, true
}

// setBase snapshots the live slabs and adopts the given sorted item
// lists as the differential base; mu must be held. The snapshots reuse
// the previous base's buffers — via the sparse journal-guided refresh
// when one is live, so steady-state splicing copies only the changed
// buckets and allocates only the delta items. Either way the sketches
// restart their dirty journals here: from this snapshot on, the
// journal enumerates exactly the buckets that diverge from it.
func (st *Storing) setBase(cellItems, pointItems []Item) {
	if st.cells != nil {
		st.baseCells.snap = st.cells.RefreshSnapshot(st.baseCells.snap)
		st.baseCells.items = cellItems
	}
	if st.points != nil {
		st.basePoints.snap = st.points.RefreshSnapshot(st.basePoints.snap)
		st.basePoints.items = pointItems
	}
	st.baseValid = true
}

// clearBase releases the differential base and the dirty journals that
// were tracking against its snapshots; mu must be held.
func (st *Storing) clearBase() {
	if st.cells != nil {
		st.cells.StopDirtyTracking()
	}
	if st.points != nil {
		st.points.StopDirtyTracking()
	}
	st.baseCells = sideBase{}
	st.basePoints = sideBase{}
	st.baseValid = false
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
// A pristine sibling (epoch 0: never updated since birth or Reset) has
// an identically zero slab, so merging it is arithmetically a no-op —
// Merge skips the state mutation entirely and a fresh decode cache
// stays fresh. This is what keeps a fork that touched k levels from
// dirtying the other levels' caches on recombination: Stream.Merge
// calls down here for every level, but only the levels the fork
// actually wrote pay anything.
func (st *Storing) Merge(other *Storing) {
	if st.level != other.level || (st.cells == nil) != (other.cells == nil) ||
		(st.points == nil) != (other.points == nil) {
		panic("sketch: Storing merge shape mismatch")
	}
	if other.epoch == 0 {
		st.mu.Lock()
		st.stats.MergeSkips++
		mCacheMergeSkips.Inc()
		st.mu.Unlock()
		return
	}
	if st.cells != nil {
		st.cells.Merge(other.cells)
	}
	if st.points != nil {
		st.points.Merge(other.points)
	}
	st.netUpdates += other.netUpdates
	st.epoch++
	st.invalidateForMerge()
}

// invalidateForMerge is Merge's cache bookkeeping for a real (non-empty)
// merge. With a valid differential base the cache is merely left stale:
// the epoch moved, but by linearity the next query's residual
// cur − snapshot simply includes the merged-in state, so it splices
// instead of re-peeling from scratch (MergeKeeps). Without a base —
// incremental mode off, or the last decode FAILed — the cached decode is
// discarded as before; the discard counts both as a generic drop and
// under the merge-specific counters, so the cache churn of
// merge-at-extraction recombination stays separable from explicit
// DropCache calls.
func (st *Storing) invalidateForMerge() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if incrementalOn.Load() && st.baseValid {
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
	st.cache, st.cacheOK, st.cacheEpoch, st.cacheValid = StoringResult{}, false, 0, false
}

// CloneEmpty returns a zeroed Storing sharing st's hash functions, so the
// clone can sketch a second stream and later be Merged back.
func (st *Storing) CloneEmpty() *Storing {
	cp := &Storing{g: st.g, level: st.level, alpha: st.alpha, beta: st.beta, fp: st.fp}
	if st.cells != nil {
		cp.cells = st.cells.CloneEmpty()
	}
	if st.points != nil {
		cp.points = st.points.CloneEmpty()
	}
	return cp
}

// Bytes reports the sketch's memory footprint — the streaming space
// accounted by Theorem 4.5.
func (st *Storing) Bytes() int64 {
	var b int64
	if st.cells != nil {
		b += st.cells.Bytes()
	}
	if st.points != nil {
		b += st.points.Bytes()
	}
	return b
}

// Epoch returns the update epoch: a counter bumped by every
// state-mutating operation (Update, UpdateKeyed, Merge). Result caches
// are tagged with it, so equal epochs mean the cached decode is current.
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
// re-decodes cold from the slabs.
func (st *Storing) DropCache() {
	st.mu.Lock()
	if st.cacheValid {
		st.stats.Drops++
		mCacheDrops.Inc()
	}
	st.cache, st.cacheOK, st.cacheEpoch, st.cacheValid = StoringResult{}, false, 0, false
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
// and the differential base: the cached result's cell/point lists, the
// per-level cached item lists, and the base slab snapshots. It is
// deliberately NOT part of Bytes (and never enters Digest): all of it
// is derived state, reconstructible from the slabs at any time, not
// sketch space — the streaming space bound of Theorem 4.5 is about what
// must be retained to answer future updates, and DropCache returns this
// gauge to zero while losing nothing. Payload slices shared between the
// result and the base item lists are counted once per holder; the gauge
// is an upper estimate, not an allocator census.
func (st *Storing) CacheBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var b int64
	if st.cacheValid {
		for i := range st.cache.Cells {
			b += 40 + int64(len(st.cache.Cells[i].Index))*8
		}
		for i := range st.cache.Points {
			b += 32 + int64(len(st.cache.Points[i].P))*8
		}
	}
	if st.baseValid {
		b += int64(len(st.baseCells.snap)+len(st.basePoints.snap)) * 8
		b += itemListBytes(st.baseCells.items)
		b += itemListBytes(st.basePoints.items)
		if st.cells != nil {
			b += st.cells.DirtyJournalBytes()
		}
		if st.points != nil {
			b += st.points.DirtyJournalBytes()
		}
	}
	return b
}

// itemListBytes estimates the memory of a cached decode item list: the
// Item headers (key + count + payload slice header) plus payload words.
func itemListBytes(items []Item) int64 {
	b := int64(len(items)) * 40
	for i := range items {
		b += int64(len(items[i].Payload)) * 8
	}
	return b
}

// Level returns the grid level this instance sketches.
func (st *Storing) Level() int { return st.level }

// NetUpdates returns the net number of surviving stream updates seen.
func (st *Storing) NetUpdates() int64 { return st.netUpdates }
