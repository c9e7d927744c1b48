// Parallel, incrementally-cached coreset extraction (the query path
// behind Stream.Result and Auto.Result).
//
// Extraction — Theorem 4.5's query step (Algorithm 4 steps 4–6) — is a
// pile of independent sparse-recovery decodes followed by a cheap serial
// assembly: every distinct Storing sketch of the ensemble — one per
// (guess × level × substream), except that guesses sampling a substream
// at rate 1 share one — peels on its own state only, mirroring the
// sparse-recovery query structure of Braverman et al.
// (arXiv:1706.03887), which is embarrassingly parallel.
// The pipeline here exploits that independence:
//
//   - Parallel guess scan: Auto.Result's ascending scan over guesses
//     runs on a GOMAXPROCS-sized pool that claims guesses in ascending
//     order (the shard-pool shape of ingest.go). Each worker extracts
//     its guesses lazily — decoding only the sketches that guess's plan
//     consults — out of one worker-owned decode arena, and no worker
//     claims a guess above the smallest success found so far. The
//     winner is then picked in ascending order, so the result is
//     bit-identical to the one-worker scan.
//
//   - Parallel decode within one instance: Stream.Result first decodes
//     the sketches its assembly may consult across the same kind of
//     pool. Decoding only warms each sketch's epoch-tagged cache — the
//     assembly then executes the exact serial logic against free cache
//     hits. With one worker the pool is skipped and the lazy path runs.
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
// A shared Storing serves every guess that consults it: its epoch cache
// and differential base are one, so the first guess to decode it pays
// and the others hit the cache, and its mutex serializes scan workers
// that reach it together.
package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/obs"
	"streambalance/internal/partition"
	"streambalance/internal/sketch"
)

// extractWorkers sizes the decode pool to the machine.
func extractWorkers() int { return runtime.GOMAXPROCS(0) }

// arenaPool keeps decode arenas across queries. An arena's buffers grow
// to the largest sketch it decoded, and the zero-invariant slab of the
// sparse differential peel is a full point-sketch slab: a fresh arena
// per query allocated and zeroed one on the first splice of every query.
// Reuse cannot change a result — the full peel overwrites the buffers it
// reads, and the sparse peel restores its all-zero invariant on every
// exit (sketch.TestPooledArenaDecodesLikeFresh).
var arenaPool = sync.Pool{New: func() any { return sketch.NewDecodeArena() }}

func getArena() *sketch.DecodeArena  { return arenaPool.Get().(*sketch.DecodeArena) }
func putArena(a *sketch.DecodeArena) { arenaPool.Put(a) }

// warmStorings decodes the given sketches across a worker pool of the
// given size, populating each one's epoch-tagged cache. Sketches whose
// cache is already fresh are skipped, so re-warming after a partial
// extraction (or a warm periodic call) spawns no goroutines at all.
// Each sketch is decoded by exactly one worker and decoding touches only
// that sketch's state, so the pool needs no locks beyond the barrier.
// Every worker holds one pooled sketch.DecodeArena for the whole drain —
// the worklist decoder's slab/queue/mark scratch is reused across all
// the sketches that worker decodes, and across queries.
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
		arena := getArena()
		defer putArena(arena)
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
			arena := getArena()
			defer putArena(arena)
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
		if i < s.g.L {
			dst = append(dst, s.h[i].st)
		}
		dst = append(dst, s.hp[i].st)
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
	arena := getArena()
	defer putArena(arena)
	return s.extract(workers, arena)
}

// extract is resultWith running every lazy (cache-miss) decode out of
// arena, so a caller extracting many instances in one goroutine — a
// guess-scan worker — reuses one arena across all of them. The warm
// pools of workers > 1 take their own per-worker arenas from the pool.
func (s *Stream) extract(workers int, arena *sketch.DecodeArena) (*coreset.Coreset, error) {
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
		for i, u := range s.hat {
			if needLevel[i] && u.samp.Phi() != 0 {
				units = append(units, u.st)
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
	decodeCells := func(u unit) (map[uint64]partition.CellTau, bool) {
		cells, ok := u.st.ResultArena(arena)
		if !ok {
			return nil, false
		}
		rate := u.samp.Phi()
		m := make(map[uint64]partition.CellTau, len(cells))
		for _, c := range cells {
			m[c.Key] = partition.CellTau{Index: c.Payload, Tau: float64(c.Count) / rate}
		}
		return m, true
	}
	counts := func(level int) (map[uint64]partition.CellTau, bool) {
		if level == -1 {
			return root, true
		}
		return decodeCells(s.h[level])
	}
	partCounts := func(level int) (map[uint64]partition.CellTau, bool) {
		if level == -1 {
			return root, true
		}
		return decodeCells(s.hp[level])
	}

	part, err := partition.BuildLazy(g, p.R, s.cfg.O, counts, partCounts)
	if err != nil {
		// Both wrapped: callers match ErrSketchFail and can still
		// recover which level FAILed (partition.ErrCounts).
		return nil, nil, fmt.Errorf("%w: %w", ErrSketchFail, err)
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
	for i, u := range s.hat {
		phi := u.samp.Phi()
		if !needLevel[i] || phi == 0 {
			continue
		}
		pts, ok := u.st.ResultArena(arena)
		if !ok {
			return nil, fmt.Errorf("%w: ĥ-substream level %d", ErrSketchFail, i)
		}
		for _, pc := range pts {
			p := geo.Point(pc.Payload)
			id, ok := part.PartAt(p, i)
			if !ok || !pl.Included[id] {
				continue
			}
			cs.Points = append(cs.Points, geo.Weighted{P: p, W: float64(pc.Count) / phi})
			cs.Levels = append(cs.Levels, i)
		}
	}
	return cs, nil
}

// DropDecodeCache discards the decode cache of every unit, forcing the
// next extraction to re-decode from the slabs (the cold path).
// Benchmarks use it to separate cold and warm extraction cost; it never
// changes any result, N, Bytes or StateDigest.
func (ss *sketchSet) DropDecodeCache() {
	for _, u := range ss.units {
		u.st.DropCache()
	}
}

// DecodeCacheBytes reports the memory currently held by decode caches
// and differential-decode bases, a shared Storing's once. This is
// derived state — excluded from Bytes, the Theorem 4.5 space accounting
// — see DESIGN.md §6.
func (ss *sketchSet) DecodeCacheBytes() (b int64) {
	for _, u := range ss.units {
		b += u.st.CacheBytes()
	}
	return b
}

// WarmDecodeCache decodes every unit whose cache is not fresh, across
// the worker pool — the serving pre-warm: after it returns, a query
// that consults any unit gets a cache hit, and the next dirty batch is
// answered by differential decodes against the freshly set bases. A
// shared Storing is decoded once. It never changes any result (decoding
// is read-only on sketch state).
func (ss *sketchSet) WarmDecodeCache() {
	sts := make([]*sketch.Storing, len(ss.units))
	for i, u := range ss.units {
		sts[i] = u.st
	}
	warmStorings(sts, extractWorkers())
}

// CacheStats sums the decode-cache counters (hits, splices, merge
// keeps/skips, …) over every unit. A shared Storing's counters cover
// every guess that consulted it, so a cache hit on it by a second guess
// counts as a hit.
func (ss *sketchSet) CacheStats() (total sketch.CacheStats) {
	for _, u := range ss.units {
		total.Add(u.st.CacheStats())
	}
	return total
}

// DirtyLevels reports how many units (level × substream sketches, a
// shared Storing once) no longer have a fresh cached decode — the units
// the next extraction has to touch — against the total unit count. A
// small dirty/total ratio is exactly the regime where the differential
// decode turns a query into a handful of residual peels.
func (ss *sketchSet) DirtyLevels() (dirty, total int) {
	for _, u := range ss.units {
		if !u.st.CacheFresh() {
			dirty++
		}
	}
	return dirty, len(ss.units)
}

// Result selects a guess: the smallest one whose Result succeeds with
// a coreset total weight within 30% of the exact point count (both
// far-off-OPT failure modes break this: sketch FAIL below, lost mass
// above), scanning upward from the smallest guess. Guesses above a
// quarter of the cost bound's certified upper bound on OPT are never
// tried — they exceed OPT by at least the bound's looseness and can
// only lose quality. The smallest surviving guess wins: o ≤ OPT is the
// side the analysis needs (Lemma 3.17); a too-small o merely enlarges
// the coreset.
//
// The scan runs its guesses in parallel: a pool of min(GOMAXPROCS,
// guesses) workers claims guesses in ascending order, each extracting
// lazily — decoding only the sketches that guess's plan consults — and
// none claims a guess above the smallest weight-sane success found so
// far. The selected guess, its coreset and the error text are those of
// the one-worker scan; the only extra work is the guesses above the
// winner that other workers claimed before the winner's extraction
// finished, which count as attempts.
func (a *Auto) Result() (*coreset.Coreset, error) { return a.resultWith(extractWorkers()) }

// resultWith is Result with an explicit scan-pool size.
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
	guessCap := math.Inf(1)
	if upper, ok := a.costBound.UpperBound(a.params.K, 0); ok && upper > 0 {
		guessCap = upper / 4
	}
	n := 0
	for n < len(a.guesses) && a.guesses[n] <= guessCap {
		n++
	}
	cs, err := a.scan(n, workers)
	if cs != nil {
		sp.Attr("via", "scan")
		sp.AttrFloat("o", cs.O)
		mGuessSelected.Set(cs.O)
		markGuess(cs.O, "selected")
		return cs, nil
	}
	sp.Attr("via", "none")
	if err != nil {
		return nil, fmt.Errorf("%w (first failure: %v)", ErrNoGuessSucceeded, err)
	}
	return nil, ErrNoGuessSucceeded
}

// scan runs the ascending guess scan over the first n guesses on a pool
// of min(workers, n) goroutines and returns the smallest weight-sane
// success or, when there is none, the error of the lowest guess that
// FAILed (nil if every guess was weight-rejected).
//
// Workers claim guess indices in ascending order from one counter, and
// best holds the smallest success index so far; a claim at or above it
// stops the worker. best only falls, so every index below its final
// value was claimed and ran to completion, and the pass after the pool
// reads exactly the outcomes the one-worker scan would have produced.
// Each worker extracts lazily out of one pooled arena for all its
// guesses.
func (a *Auto) scan(n, workers int) (*coreset.Coreset, error) {
	type outcome struct {
		cs  *coreset.Coreset
		err error
	}
	out := make([]outcome, n)
	var next, best atomic.Int64
	best.Store(int64(n))
	run := func() {
		arena := getArena()
		defer putArena(arena)
		for {
			i := next.Add(1) - 1
			if i >= best.Load() {
				return
			}
			cs, err := a.attempt(int(i), arena)
			out[i] = outcome{cs, err}
			if cs != nil {
				for b := best.Load(); i < b && !best.CompareAndSwap(b, i); b = best.Load() {
				}
			}
		}
	}
	if workers = min(workers, n); workers <= 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
	}
	if b := best.Load(); b < int64(n) {
		return out[b].cs, nil
	}
	for _, o := range out {
		if o.err != nil {
			return nil, o.err
		}
	}
	return nil, nil
}

// attempt extracts guess i's coreset lazily out of arena and records
// the attempt and its outcome. It returns the coreset only when it is
// weight-sane; a FAIL returns its error, and a weight reject returns
// neither.
func (a *Auto) attempt(i int, arena *sketch.DecodeArena) (*coreset.Coreset, error) {
	o := a.guesses[i]
	mGuessAttempts.Inc()
	markGuess(o, "attempt")
	cs, err := a.streams[i].extract(1, arena)
	if err != nil {
		mGuessFails.Inc()
		markGuess(o, "fail")
		return nil, err
	}
	if !weightSane(cs.TotalWeight(), a.n) {
		mGuessRejects.Inc()
		markGuess(o, "reject")
		return nil, nil
	}
	return cs, nil
}

// weightSane reports whether a coreset's total weight w is within 30%
// (plus one) of the live point count n.
func weightSane(w float64, n int64) bool {
	return math.Abs(w-float64(n)) <= 0.3*float64(n)+1
}
