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
//     instead of the whole slab (DESIGN.md §13). Cache memory is
//     derived state, excluded from Bytes (DESIGN.md §6) and released by
//     DropDecodeCache.
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
			st.ResultKeyed(arena)
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
				pending[i].ResultKeyed(arena)
			}
		}()
	}
	wg.Wait()
}

// Result decodes the sketches and assembles the coreset (steps 4–6 of
// Algorithm 4, coreset.PlanQuery and Query.Assemble): heavy cells from
// the h-substream estimates, part masses from the h′-substream, coreset
// points from the ĥ-substream. It does not modify sketch state (N,
// Bytes, StateDigest are untouched), so it may be called repeatedly —
// e.g. periodically during a long stream — and the epoch cache makes
// such warm calls cost proportional to what changed since the previous
// extraction, not to total sketch state.
func (s *Stream) Result() (*coreset.Coreset, error) { return s.resultWith(extractWorkers()) }

// resultWith is Result with an explicit decode-pool size; one worker
// decodes lazily in the calling goroutine.
func (s *Stream) resultWith(workers int) (*coreset.Coreset, error) {
	arena := getArena()
	defer putArena(arena)
	return s.extract(workers, arena, nil)
}

// errAbandoned is extract's verdict when its abandon check stopped it
// between the plan step and the assembly.
var errAbandoned = errors.New("stream: assembly abandoned")

// extract is resultWith running every lazy (cache-miss) decode out of
// arena, so a caller extracting many instances in one goroutine — a
// guess-scan worker — reuses one arena across all of them. The warm
// pools of workers > 1 take their own per-worker arenas from the pool.
// A non-nil abandon is asked once the plan step has succeeded; when it
// says so, extract skips the assembly and returns errAbandoned.
func (s *Stream) extract(workers int, arena *sketch.DecodeArena, abandon func() bool) (*coreset.Coreset, error) {
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
	// in parallel. The plan step below decides lazily which levels
	// matter; pre-decoding the rest only wastes a bounded peel per sketch
	// (and caches its FAIL), never changes what the plan step sees.
	if workers > 1 {
		cells := make([]*sketch.Storing, 0, len(s.units))
		for _, u := range s.units {
			if u.sub != 2 {
				cells = append(cells, u.st)
			}
		}
		warmStorings(cells, workers)
	}
	q, err := coreset.PlanQuery(s.g, s.cfg.Params, s.cfg.O, s.n, cellSource(s.h, arena), cellSource(s.hp, arena))
	if err != nil {
		// Both wrapped: callers match ErrSketchFail and can still
		// recover which level FAILed (partition.ErrCounts).
		return nil, fmt.Errorf("%w: %w", ErrSketchFail, err)
	}
	if q.Plan.Failed() {
		return nil, fmt.Errorf("%w: %s", ErrPlanFail, q.Plan.FailWhy)
	}
	if abandon != nil && abandon() {
		return nil, errAbandoned
	}
	// Stage 2: decode only the ĥ point sketches of needed levels — these
	// are the large sketches, and the plan has already pruned the rest.
	if workers > 1 {
		units := make([]*sketch.Storing, 0, s.g.L+1)
		for i, need := range q.Need {
			if need {
				units = append(units, s.hat[i].st)
			}
		}
		warmStorings(units, workers)
	}
	return q.Assemble(func(i int, keep *partition.PartFilter, yield func(geo.Point, int64)) error {
		d, ok := s.hat[i].st.ResultKeyed(arena)
		if !ok {
			return fmt.Errorf("%w: ĥ-substream level %d", ErrSketchFail, i)
		}
		for c := 0; c < d.Chunks(); c++ {
			pts, keys := d.Chunk(c)
			for t := range pts {
				if keep.Keep(keys[2*t], keys[2*t+1]) {
					yield(geo.Point(pts[t].Payload), pts[t].Count)
				}
			}
		}
		return nil
	})
}

// heavyFail runs only the heavy marking of s's plan step (the part-mass
// source is never available, so BuildLazy stops right after it) and
// reports the level whose h sketch it FAILed on, if it did. It is the
// FAIL certificate's probe (Auto.certify): it reaches the same verdict
// as extract's plan step.
func (s *Stream) heavyFail(arena *sketch.DecodeArena) (int, bool) {
	never := func(int) ([]partition.Cell, bool) { return nil, false }
	_, err := coreset.PlanQuery(s.g, s.cfg.Params, s.cfg.O, s.n, cellSource(s.h, arena), never)
	var ce partition.ErrCounts
	if errors.As(err, &ce) && ce.Heavy {
		return ce.Level, true
	}
	return 0, false
}

// cellSource is the plan step's count source over the cell sketches us
// (one per level from 0): a level's decoded cells in the decode's key
// order, with the parent keys cached beside them and each count scaled
// by the inverse of its sampler's rate, or unavailable when the sketch
// FAILs. Decoding is lazy — a cache miss peels out of arena — so on the
// serial path sketches of levels below the deepest heavy cell, which can
// be arbitrarily over-full, are never decoded. The cells are built once
// per decode (cellMemo), however many guesses and certify probes read
// them.
func cellSource(us []unit, arena *sketch.DecodeArena) partition.CountSource {
	return func(level int) ([]partition.Cell, bool) {
		u := us[level]
		d, ok := u.st.ResultKeyed(arena)
		if !ok {
			return nil, false
		}
		return u.cells.get(d, u.samp.Phi()), true
	}
}

// cellMemo holds the cells one cell sketch's current decode yields at
// one rate. Every unit over the same Storing holds the same memo, and
// only guesses sampling at rate 1 share a Storing, so the cells are
// built once per decode for all of them: a decode is a new *Decoded, a
// cache hit the same one. The cells alias the decode's payloads and are
// read-only, like the decode.
type cellMemo struct {
	mu    sync.Mutex
	from  *sketch.Decoded
	rate  float64
	cells []partition.Cell
}

// get returns d's cells with counts scaled by 1/rate, building them
// unless the memo already holds them.
func (m *cellMemo) get(d *sketch.Decoded, rate float64) []partition.Cell {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.from == d && m.rate == rate {
		return m.cells
	}
	cells := make([]partition.Cell, 0, d.Len())
	for c := 0; c < d.Chunks(); c++ {
		items, parents := d.Chunk(c)
		for t, it := range items {
			cells = append(cells, partition.Cell{Key: it.Key, Parent: parents[t],
				CellTau: partition.CellTau{Index: it.Payload, Tau: float64(it.Count) / rate}})
		}
	}
	m.from, m.rate, m.cells = d, rate, cells
	return cells
}

// drop releases the memoised cells.
func (m *cellMemo) drop() {
	m.mu.Lock()
	m.from, m.cells = nil, nil
	m.mu.Unlock()
}

// DropDecodeCache discards the decode cache of every unit, forcing the
// next extraction to re-decode from the slabs (the cold path).
// Benchmarks use it to separate cold and warm extraction cost; it never
// changes any result, N, Bytes or StateDigest.
func (ss *sketchSet) DropDecodeCache() {
	for _, u := range ss.units {
		u.st.DropCache()
		if u.cells != nil {
			u.cells.drop()
		}
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

// CacheStats sums the decode-cache counters (hits, splices, …) over
// every unit. A shared Storing's counters cover every guess that
// consulted it, so a cache hit on it by a second guess counts as a hit.
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
// finished, which count as attempts. Such a guess whose plan step ends
// after the winner is known skips its assembly (abandoned).
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
	if upper := a.costBound.UpperBound(a.params.K); upper > 0 {
		guessCap = upper / 4
	}
	n := 0
	for n < len(a.guesses) && a.guesses[n] <= guessCap {
		n++
	}
	cs, _, err := a.scan(n, workers)
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

// scan runs the ascending guess scan over the first n guesses and
// returns the smallest weight-sane success or, when there is none, the
// error of the lowest guess that FAILed (nil if every guess was
// weight-rejected), and the number of guesses it skipped as certified
// FAILs.
//
// The smallest guess runs first, alone. When its heavy marking FAILs on
// a rate-1 h sketch that larger guesses share, it proves a run of them
// FAILs the same way (certify, DESIGN.md §4); a FAIL of any larger
// guess proves nothing more, since the smallest guess would have hit
// it first. The rest runs on a pool of min(workers, n) goroutines from
// the first guess not yet decided: workers claim guess indices in
// ascending order from one counter, and best holds the smallest success
// index so far; a claim at or above it stops the worker. best only
// falls, so every index below its final value was certified or claimed
// and ran to completion, and the pass after the pool reads exactly the
// outcomes the one-worker full scan would have produced — a certified
// guess's error text is the smallest guess's. A worker whose guess is
// above best once its plan step succeeds skips the assembly: the pass
// never reads that outcome, since best only falls. Each worker extracts
// lazily out of one pooled arena for all its guesses.
func (a *Auto) scan(n, workers int) (*coreset.Coreset, int, error) {
	if n == 0 {
		return nil, 0, nil
	}
	type outcome struct {
		cs  *coreset.Coreset
		err error
	}
	out := make([]outcome, n)
	var next, best atomic.Int64
	best.Store(int64(n))
	claim := func(i int64, arena *sketch.DecodeArena) {
		cs, err := a.attempt(int(i), arena, func() bool { return i > best.Load() })
		out[i] = outcome{cs, err}
		if cs != nil {
			for b := best.Load(); i < b && !best.CompareAndSwap(b, i); b = best.Load() {
			}
		}
	}
	arena := getArena()
	claim(0, arena)
	certified := 1 // guesses below it are decided
	if level, ok := a.sharedHeavyFail(0, out[0].err); ok {
		certified = a.certify(level, n, arena) + 1
	}
	putArena(arena)
	next.Store(int64(certified))
	run := func() {
		arena := getArena()
		defer putArena(arena)
		for {
			i := next.Add(1) - 1
			if i >= best.Load() {
				return
			}
			claim(i, arena)
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
	for i := 1; i < certified; i++ {
		out[i].err = out[0].err
		markGuess(a.guesses[i], "certified")
	}
	mGuessCertified.Add(int64(certified - 1))
	if b := best.Load(); b < int64(n) {
		return out[b].cs, certified - 1, nil
	}
	for _, o := range out {
		if o.err != nil {
			return nil, certified - 1, o.err
		}
	}
	return nil, certified - 1, nil
}

// sharedHeavyFail reports the level at which guess i's heavy marking
// FAILed, when err says so and guess i shares that level's h sketch
// with the smallest guess — as every guess sampling it at rate 1 does.
func (a *Auto) sharedHeavyFail(i int, err error) (int, bool) {
	var ce partition.ErrCounts
	if !errors.As(err, &ce) || !ce.Heavy {
		return 0, false
	}
	u := a.streams[i].h[ce.Level]
	return ce.Level, u.samp.Phi() >= 1 && u.st == a.streams[0].h[ce.Level].st
}

// certify returns the last guess r < n whose heavy marking FAILs at
// level, given that the smallest guess's does on the h sketch shared at
// rate 1. Every guess up to r FAILs there with the same error, and
// every guess above r does not (DESIGN.md §4):
//
//   - ψ_l(o) = min(1, 256/T_l(o)) falls with l and with o, so a
//     guess sharing h_level shares h_0..h_level too, and so does every
//     smaller guess: they see the same exact counts (rate 1) through the
//     same Storings, whose decode verdicts the smallest guess has
//     already drawn.
//   - T_l(o) grows with o, so on equal counts a smaller guess's heavy
//     cells contain a larger one's: if a guess's heavy marking reaches
//     level, every smaller guess's does too, and FAILs there.
//
// So the FAIL is a prefix of the sharers of h_level, and a binary search
// over them finds its end. Each probe (heavyFail) runs only the heavy
// marking, over decodes already cached, and counts as no attempt.
func (a *Auto) certify(level, n int, arena *sketch.DecodeArena) int {
	shared := a.streams[0].h[level].st
	lo, hi := 0, 1 // lo FAILs at level; hi is past the sharers or does not
	for hi < n && a.streams[hi].h[level].st == shared {
		hi++
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if l, ok := a.streams[mid].heavyFail(arena); ok && l == level {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// attempt extracts guess i's coreset lazily out of arena and records
// the attempt and its outcome. It returns the coreset only when it is
// weight-sane; a FAIL returns its error, and a weight reject returns
// neither. A non-nil abandon is asked once the plan step succeeds, and
// true skips the assembly: the attempt is then abandoned and returns
// neither.
func (a *Auto) attempt(i int, arena *sketch.DecodeArena, abandon func() bool) (*coreset.Coreset, error) {
	o := a.guesses[i]
	mGuessAttempts.Inc()
	markGuess(o, "attempt")
	cs, err := a.streams[i].extract(1, arena, abandon)
	if errors.Is(err, errAbandoned) {
		mGuessAbandoned.Inc()
		markGuess(o, "abandoned")
		return nil, nil
	}
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
