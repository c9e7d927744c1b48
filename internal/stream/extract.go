// Parallel, incrementally-cached coreset extraction (the query path
// behind Stream.Result and Auto.Result).
//
// Extraction — Theorem 4.5's query step (Algorithm 4 steps 4–6) — is a
// pile of independent sparse-recovery decodes followed by a cheap serial
// assembly: every (guess × level × substream) Storing sketch peels on its
// own state only, mirroring the sparse-recovery query structure of
// Braverman et al. (arXiv:1706.03887), which is embarrassingly parallel.
// The pipeline here exploits that twice:
//
//   - Parallel decode: before the serial assembly runs, the sketches it
//     will consult are decoded across a GOMAXPROCS-sized worker pool
//     (the shard-pool shape of ingest.go). Decoding only warms each
//     sketch's epoch-tagged cache — the assembly then executes the exact
//     serial logic against free cache hits, so results are bit-identical
//     to the serial path by construction. With one worker the pool is
//     skipped entirely and the original lazy path runs unchanged.
//
//   - Epoch cache + differential decode: each Storing tags its decode
//     with an update epoch (sketch.Storing); a repeated Result during a
//     long stream touches only levels whose state changed since the last
//     extraction, and a changed level re-peels only the residual against
//     its cached base — splicing the delta onto the cached item lists —
//     instead of the whole slab (DESIGN.md §13). Merging a fork dirties
//     only the levels the fork actually wrote (pristine levels are
//     skipped outright) and dirtied levels keep their base for the next
//     splice. Cache memory is derived state, excluded from Bytes
//     (DESIGN.md §6) and released by DropDecodeCache.
//
// Auto.Result decodes candidate guesses speculatively — the estimate
// guess first, then the ascending-scan prefix up to the cost-bound cap —
// while the selection rule itself (smallest weight-sane surviving guess)
// stays the serial one, applied in order after the decodes land.
package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/obs"
	"streambalance/internal/partition"
	"streambalance/internal/sketch"
	"streambalance/internal/solve"
)

// extractWorkers sizes the decode pool to the machine.
func extractWorkers() int { return runtime.GOMAXPROCS(0) }

// warmStorings decodes the given sketches across a worker pool of the
// given size, populating each one's epoch-tagged cache. Sketches whose
// cache is already fresh are skipped, so re-warming after a partial
// extraction (or a warm periodic call) spawns no goroutines at all.
// Each sketch is decoded by exactly one worker and decoding touches only
// that sketch's state, so the pool needs no locks beyond the barrier.
// Every worker owns one sketch.DecodeArena for the whole drain — the
// worklist decoder's slab/queue/mark scratch is reused across all the
// sketches that worker decodes instead of reallocated per decode.
func warmStorings(units []*sketch.Storing, workers int) {
	pending := make([]*sketch.Storing, 0, len(units))
	for _, st := range units {
		if st != nil && !st.CacheFresh() {
			pending = append(pending, st)
		}
	}
	if len(pending) == 0 {
		return
	}
	mExtractDecodes.Add(int64(len(pending)))
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 {
		arena := sketch.NewDecodeArena()
		for _, st := range pending {
			st.ResultArena(arena)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := sketch.NewDecodeArena()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				pending[i].ResultArena(arena)
			}
		}()
	}
	wg.Wait()
}

// planTargets appends the h/h′ cell sketches of s — the decode units the
// partition/plan stage may consult — to dst.
func (s *Stream) planTargets(dst []*sketch.Storing) []*sketch.Storing {
	for i := 0; i <= s.g.L; i++ {
		if i <= s.g.L-1 {
			dst = append(dst, s.hStore[i])
		}
		dst = append(dst, s.hpStore[i])
	}
	return dst
}

// Result decodes the sketches and assembles the coreset (steps 4–6 of
// Algorithm 4): heavy cells from the h-substream estimates, part masses
// from the h′-substream, coreset points from the ĥ-substream. It does
// not modify sketch state (N, Bytes, StateDigest are untouched), so it
// may be called repeatedly — e.g. periodically during a long stream —
// and the epoch cache makes such warm calls cost proportional to what
// changed since the previous extraction, not to total sketch state.
func (s *Stream) Result() (*coreset.Coreset, error) { return s.resultWith(extractWorkers()) }

// resultWith is Result with an explicit decode-pool size; one worker
// decodes lazily in the calling goroutine.
func (s *Stream) resultWith(workers int) (*coreset.Coreset, error) {
	if s.n < 0 {
		return nil, errors.New("stream: more deletions than insertions")
	}
	mExtracts.Inc()
	t0 := obs.NowNano()
	sp := obs.StartSpan("stream.extract")
	sp.AttrFloat("o", s.cfg.O)
	sp.AttrInt("workers", int64(workers))
	defer func() {
		mExtractNS.ObserveSince(t0)
		if obs.Enabled() {
			// Space gauges: the Theorem 4.5-accounted sketch state and the
			// derived-state decode cache, sampled once per extraction.
			mSketchBytes.SetInt(s.Bytes())
			mCacheBytes.SetInt(s.DecodeCacheBytes())
		}
		sp.End()
	}()
	// One decode arena serves every lazy (cache-miss) decode of this
	// extraction; the warm pools above and below bring their own
	// per-worker arenas.
	arena := sketch.NewDecodeArena()
	// Stage 1: decode every cell sketch the partition stage may consult,
	// in parallel. The serial assembly below decides lazily which levels
	// matter; pre-decoding the rest only wastes a bounded peel per sketch
	// (and caches its FAIL), never changes what the assembly sees.
	if workers > 1 {
		warmStorings(s.planTargets(nil), workers)
	}
	part, pl, err := s.plan(arena)
	if err != nil {
		return nil, err
	}
	// Levels that actually host included parts.
	needLevel := make([]bool, s.g.L+1)
	for id := range pl.Included {
		needLevel[id.Level] = true
	}
	// Stage 2: decode only the ĥ point sketches of needed levels — these
	// are the large sketches, and the plan has already pruned the rest.
	if workers > 1 {
		units := make([]*sketch.Storing, 0, s.g.L+1)
		for i := 0; i <= s.g.L; i++ {
			if needLevel[i] && s.phi[i] != 0 {
				units = append(units, s.hatStore[i])
			}
		}
		warmStorings(units, workers)
	}
	return s.assemble(part, pl, needLevel, arena)
}

// plan decodes the h/h′ substreams (lazily, via the epoch caches) and
// runs Algorithm 1 + Algorithm 2's inclusion plan. Cache-miss decodes
// run their scratch out of arena.
func (s *Stream) plan(arena *sketch.DecodeArena) (*partition.Partition, *coreset.Plan, error) {
	g := s.g
	p := s.cfg.Params

	rootCell := partition.CellTau{Index: make([]int64, g.Dim), Tau: float64(s.n)}
	rootKey := g.KeyOf(-1, rootCell.Index)
	root := map[uint64]partition.CellTau{rootKey: rootCell}

	// Count sources decode each level's sketch lazily: BuildLazy consults
	// a level only while it can still contain heavy or crucial cells, so
	// on the serial path sketches of levels below the deepest heavy cell
	// — which can be arbitrarily over-full — are never decoded.
	decodeCells := func(st *sketch.Storing, rate float64) (map[uint64]partition.CellTau, bool) {
		res, ok := st.ResultArena(arena)
		if !ok {
			return nil, false
		}
		m := make(map[uint64]partition.CellTau, len(res.Cells))
		for _, cc := range res.Cells {
			m[cc.Key] = partition.CellTau{Index: cc.Index, Tau: float64(cc.Count) / rate}
		}
		return m, true
	}
	counts := func(level int) (map[uint64]partition.CellTau, bool) {
		if level == -1 {
			return root, true
		}
		return decodeCells(s.hStore[level], s.psi[level])
	}
	partCounts := func(level int) (map[uint64]partition.CellTau, bool) {
		if level == -1 {
			return root, true
		}
		return decodeCells(s.hpStore[level], s.psiP[level])
	}

	part, err := partition.BuildLazy(g, p.R, s.cfg.O, counts, partCounts)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSketchFail, err)
	}
	pl := coreset.BuildPlan(part, p)
	if pl.Failed() {
		return nil, nil, fmt.Errorf("%w: %s", ErrPlanFail, pl.FailWhy)
	}
	return part, pl, nil
}

// assemble recovers the ĥ-substream points of every needed level and
// keeps those landing in included parts, weighted by 1/φ_i. Cache-miss
// decodes run their scratch out of arena.
func (s *Stream) assemble(part *partition.Partition, pl *coreset.Plan, needLevel []bool, arena *sketch.DecodeArena) (*coreset.Coreset, error) {
	g := s.g
	cs := &coreset.Coreset{O: s.cfg.O, Grid: g, Part: part, Plan: pl, Params: s.cfg.Params}
	for i := 0; i <= g.L; i++ {
		if !needLevel[i] || s.phi[i] == 0 {
			continue
		}
		res, ok := s.hatStore[i].ResultArena(arena)
		if !ok {
			return nil, fmt.Errorf("%w: ĥ-substream level %d", ErrSketchFail, i)
		}
		for _, pc := range res.Points {
			id, ok := part.PartAt(pc.P, i)
			if !ok || !pl.Included[id] {
				continue
			}
			cs.Points = append(cs.Points, geo.Weighted{
				P: pc.P,
				W: float64(pc.Count) / s.phi[i],
			})
			cs.Levels = append(cs.Levels, i)
		}
	}
	return cs, nil
}

// DropDecodeCache discards every level's decode cache, forcing the next
// extraction to re-decode from the slabs (the cold path). Benchmarks use
// it to separate cold and warm extraction cost; it never changes any
// result, N, Bytes or StateDigest.
func (s *Stream) DropDecodeCache() {
	for i := range s.hpStore {
		if s.hStore[i] != nil {
			s.hStore[i].DropCache()
		}
		s.hpStore[i].DropCache()
		s.hatStore[i].DropCache()
	}
}

// DecodeCacheBytes reports the memory currently held by decode caches
// and differential-decode bases. This is derived state — excluded from
// Bytes, the Theorem 4.5 space accounting — see DESIGN.md §6.
func (s *Stream) DecodeCacheBytes() int64 {
	var b int64
	for i := range s.hpStore {
		if s.hStore[i] != nil {
			b += s.hStore[i].CacheBytes()
		}
		b += s.hpStore[i].CacheBytes()
		b += s.hatStore[i].CacheBytes()
	}
	return b
}

// eachStoring calls f on every decode unit of the stream — the h/h′
// cell sketches and ĥ point sketch of each level.
func (s *Stream) eachStoring(f func(*sketch.Storing)) {
	for i := range s.hpStore {
		if s.hStore[i] != nil {
			f(s.hStore[i])
		}
		f(s.hpStore[i])
		f(s.hatStore[i])
	}
}

// WarmDecodeCache decodes every unit whose cache is not fresh, across
// the worker pool — the serving pre-warm: after it returns, a query
// that consults any unit gets a cache hit, and the next dirty batch is
// answered by differential decodes against the freshly set bases. It
// never changes any result (decoding is read-only on sketch state).
func (s *Stream) WarmDecodeCache() {
	var units []*sketch.Storing
	s.eachStoring(func(st *sketch.Storing) { units = append(units, st) })
	warmStorings(units, extractWorkers())
}

// WarmDecodeCache pre-warms every guess instance (see
// Stream.WarmDecodeCache).
func (a *Auto) WarmDecodeCache() {
	var units []*sketch.Storing
	for _, s := range a.streams {
		s.eachStoring(func(st *sketch.Storing) { units = append(units, st) })
	}
	warmStorings(units, extractWorkers())
}

// CacheStats sums the per-level decode-cache counters (hits, splices,
// merge keeps/skips, …) over every decode unit of the stream.
func (s *Stream) CacheStats() sketch.CacheStats {
	var total sketch.CacheStats
	s.eachStoring(func(st *sketch.Storing) { total = addCacheStats(total, st.CacheStats()) })
	return total
}

// DirtyLevels reports how many of the stream's decode units
// (level × substream sketches) no longer have a fresh cached decode —
// the units the next extraction has to touch — against the total unit
// count. A small dirty/total ratio is exactly the regime where the
// differential decode turns a query into a handful of residual peels.
func (s *Stream) DirtyLevels() (dirty, total int) {
	s.eachStoring(func(st *sketch.Storing) {
		total++
		if !st.CacheFresh() {
			dirty++
		}
	})
	return dirty, total
}

// addCacheStats is the field-wise sum of two CacheStats.
func addCacheStats(a, b sketch.CacheStats) sketch.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Stale += b.Stale
	a.Drops += b.Drops
	a.MergeDrops += b.MergeDrops
	a.Splices += b.Splices
	a.SpliceFallbacks += b.SpliceFallbacks
	a.MergeKeeps += b.MergeKeeps
	a.MergeSkips += b.MergeSkips
	return a
}

// Result selects a guess. On insertion-only streams the reservoir gives
// a constant-factor OPT estimate, and the largest guess ≤ estimate/4 is
// tried first — the selection rule Theorem 4.5 prescribes. If that guess
// fails (or deletions dirtied the reservoir), selection falls back to
// the smallest guess whose Result succeeds with a coreset total weight
// within 30% of the exact point count (both far-off-OPT failure modes
// break this: sketch FAIL below, lost mass above).
//
// With more than one worker the candidate guesses' cell sketches are
// decoded speculatively across the pool before the scan; the scan itself
// runs the serial selection rule against the warmed caches, so the
// selected guess and its coreset are identical to the one-worker path's.
func (a *Auto) Result() (*coreset.Coreset, error) { return a.resultWith(extractWorkers()) }

func (a *Auto) resultWith(workers int) (*coreset.Coreset, error) {
	if a.n < 0 {
		return nil, errors.New("stream: more deletions than insertions")
	}
	sp := obs.StartSpan("stream.select")
	sp.AttrInt("guesses", int64(len(a.streams)))
	defer func() {
		if obs.Enabled() {
			mSketchBytes.SetInt(a.Bytes())
			mCacheBytes.SetInt(a.DecodeCacheBytes())
		}
		sp.End()
	}()
	if a.reservoir.Clean() && len(a.reservoir.Sample()) >= 32 {
		if cs := a.tryEstimateGuess(workers); cs != nil {
			sp.Attr("via", "estimate")
			sp.AttrFloat("o", cs.O)
			mGuessSelected.Set(cs.O)
			markGuess(cs.O, "selected")
			return cs, nil
		}
	}
	// Fallback (deletions dirtied the reservoir, or the estimate guess
	// failed): ascending scan with weight-sanity, pruned from above by
	// the deletion-proof cell-count bound — guesses beyond UpperBound/4
	// exceed OPT by at least the bound's looseness and can only lose
	// quality, so they are never considered. The smallest surviving guess
	// wins: o ≤ OPT is the side the analysis needs (Lemma 3.17); a
	// too-small o merely enlarges the coreset.
	guessCap := math.Inf(1)
	if upper, ok := a.costBound.UpperBound(a.params.K, 0); ok && upper > 0 {
		guessCap = upper / 4
	}
	if workers > 1 {
		// Speculative decode of the whole scan prefix: the scan stops at
		// the first success, but which candidate that is cannot be known
		// without decoding, and the units are independent — so all of
		// them go through the pool at once.
		var units []*sketch.Storing
		for i, s := range a.streams {
			if a.guesses[i] > guessCap {
				break
			}
			units = s.planTargets(units)
		}
		warmStorings(units, workers)
	}
	var firstErr error
	for i, s := range a.streams {
		if a.guesses[i] > guessCap {
			break
		}
		mGuessAttempts.Inc()
		markGuess(a.guesses[i], "attempt")
		cs, err := s.resultWith(workers)
		if err != nil {
			mGuessFails.Inc()
			markGuess(a.guesses[i], "fail")
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		w := cs.TotalWeight()
		if math.Abs(w-float64(a.n)) > 0.3*float64(a.n)+1 {
			mGuessRejects.Inc()
			markGuess(a.guesses[i], "reject")
			continue
		}
		sp.Attr("via", "scan")
		sp.AttrFloat("o", cs.O)
		mGuessSelected.Set(cs.O)
		markGuess(a.guesses[i], "selected")
		return cs, nil
	}
	sp.Attr("via", "none")
	if firstErr != nil {
		return nil, fmt.Errorf("%w (first failure: %v)", ErrNoGuessSucceeded, firstErr)
	}
	return nil, ErrNoGuessSucceeded
}

// tryEstimateGuess picks the guess from the reservoir's OPT estimate and
// returns its coreset if it succeeds and is weight-sane; nil otherwise.
func (a *Auto) tryEstimateGuess(workers int) *coreset.Coreset {
	sample := a.reservoir.Sample()
	rng := rand.New(rand.NewSource(a.params.Seed ^ 0x0e57))
	est := solve.EstimateOPT(rng, geo.UnitWeights(sample), a.params.K, a.params.R, a.delta, 2) *
		float64(a.n) / float64(len(sample))
	target := est / 4
	best := -1
	for i, o := range a.guesses {
		if o <= target {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	mGuessAttempts.Inc()
	markGuess(a.guesses[best], "attempt")
	cs, err := a.streams[best].resultWith(workers)
	if err != nil {
		mGuessFails.Inc()
		markGuess(a.guesses[best], "fail")
		return nil
	}
	if w := cs.TotalWeight(); math.Abs(w-float64(a.n)) > 0.3*float64(a.n)+1 {
		mGuessRejects.Inc()
		markGuess(a.guesses[best], "reject")
		return nil
	}
	return cs
}

// DropDecodeCache discards the decode caches of every guess instance
// (see Stream.DropDecodeCache).
func (a *Auto) DropDecodeCache() {
	for _, s := range a.streams {
		s.DropDecodeCache()
	}
}

// DecodeCacheBytes sums the decode-cache memory over all guess
// instances. Deliberately not part of Bytes — caches are derived state.
func (a *Auto) DecodeCacheBytes() int64 {
	var b int64
	for _, s := range a.streams {
		b += s.DecodeCacheBytes()
	}
	return b
}

// CacheStats sums the decode-cache counters over all guess instances.
func (a *Auto) CacheStats() sketch.CacheStats {
	var total sketch.CacheStats
	for _, s := range a.streams {
		total = addCacheStats(total, s.CacheStats())
	}
	return total
}

// DirtyLevels sums Stream.DirtyLevels over all guess instances.
func (a *Auto) DirtyLevels() (dirty, total int) {
	for _, s := range a.streams {
		d, n := s.DirtyLevels()
		dirty += d
		total += n
	}
	return dirty, total
}
