package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
	"streambalance/internal/sketch"
)

// Auto runs the guess enumeration of Theorem 4.5: one Stream instance per
// guess o on a geometric grid covering [1, Δ^d·(√d·Δ)^r] (Algorithm 2
// line 1), all fed the same updates in parallel. At the end of the stream
// the smallest guess whose instance succeeds — and whose coreset carries
// approximately the right total weight — is selected, among the guesses
// at most a quarter of the cost bound's certified upper bound on OPT.
//
// The paper selects o with a parallel streaming 2-approximation of OPT
// [HSYZ18]; the capped weight-sanity scan here is the practical
// stand-in (a far-too-large o loses points because the root cell is not
// heavy, a far-too-small o FAILs its sketches). It needs no uniform
// sample of the live points, so it works on insertion-only and dynamic
// streams alike (DESIGN.md §4).
type Auto struct {
	streams []*Stream
	guesses []float64
	n       int64

	// All guess instances share one grid (hence one random shift and one
	// cell-key fingerprint) and one sampling/point fingerprint, so the
	// ingestion pipeline computes each op's key column once for the whole
	// ensemble. At each (substream, level) every instance samples over
	// one shared λ-wise polynomial at its own rate (newColumns), so the
	// pipeline hashes each op once there, and a guess's sampled set
	// contains every larger guess's. Each instance keeps private sketch
	// hash functions, except that guesses sampling a (substream, level)
	// at rate 1 share one Storing there (newShared): a rate-1 substream
	// is the whole stream, the same vector for all of them. The
	// per-instance guarantees of Theorem 4.5 are marginal over each
	// instance's own randomness, so sharing the grid, a polynomial or a
	// sketch only correlates failures across guesses — it never changes
	// any single instance's distribution (DESIGN.md §4).
	g  *grid.Grid
	fp *hashing.Fingerprint
	b  batch // reusable columnar buffer for Apply (not goroutine-safe)

	// sketchSet lists every distinct sketch of the ensemble once: the
	// rate-1 units first (rateOne of them, each under its owner), then
	// the fractional ones, in ascending guess order. Ingest, accounting
	// and cache upkeep iterate it, so a shared sketch is written and
	// counted once.
	sketchSet
	rateOne int

	costBound *CostBound // deletion-proof cell-counting bound ([HSYZ18]-style)
	params    coreset.Params
}

// NewAuto creates the parallel guess grid with ratio oFactor between
// consecutive guesses (≥ 2; the paper uses 2, 4 halves the instance
// count with one extra factor of guess slack). A smaller finite oFactor
// is raised to 2; NaN and ±Inf are errors.
func NewAuto(cfg Config, oFactor float64) (*Auto, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if math.IsNaN(oFactor) || math.IsInf(oFactor, 0) {
		return nil, fmt.Errorf("stream: oFactor must be finite, got %v", oFactor)
	}
	if oFactor < 2 {
		oFactor = 2
	}
	// Upper bound of the guess range: Δ^d·(√d·Δ)^r.
	logUpper := float64(cfg.Dim)*math.Log2(float64(cfg.Delta)) +
		cfg.Params.R*math.Log2(math.Sqrt(float64(cfg.Dim))*float64(cfg.Delta))
	upper := math.Exp2(logUpper)
	rngCB := rand.New(rand.NewSource(cfg.Params.Seed ^ 0xcb))
	gCB := grid.New(cfg.Delta, cfg.Dim, rngCB)
	rngShared := rand.New(rand.NewSource(cfg.Params.Seed))
	a := &Auto{
		g:         grid.New(cfg.Delta, cfg.Dim, rngShared),
		fp:        hashing.NewFingerprint(rngShared),
		costBound: NewCostBound(rngCB, gCB, cfg.Params.R, 256),
		params:    cfg.Params,
	}
	owners, cols := make(rateOneOwners), newColumns(cfg.Params, a.g)
	for o, i := 1.0, 0; o <= upper; o, i = o*oFactor, i+1 {
		c := cfg
		c.O = o
		// Decorrelate instance sketches while keeping the whole ensemble
		// reproducible from one seed; the samplers sample over cols.
		c.Params.Seed = cfg.Params.Seed + int64(i)*1_000_003
		st := newShared(c, a.g, a.fp, rand.New(rand.NewSource(c.Params.Seed)), cols, owners)
		a.streams = append(a.streams, st)
		a.guesses = append(a.guesses, o)
	}
	a.units, a.rateOne = ensembleUnits(a.streams)
	obs.G("stream_guess_instances").SetInt(int64(len(a.streams)))
	return a, nil
}

// ensembleUnits lists every distinct unit of the guess instances once:
// the rate-1 units, then the fractional ones, each in ascending guess
// order, so a shared Storing is listed under its first guess — its
// owner. rateOne counts the rate-1 units.
func ensembleUnits(streams []*Stream) (units []unit, rateOne int) {
	seen := make(map[*sketch.Storing]bool)
	var frac []unit
	for _, s := range streams {
		for _, u := range s.units {
			switch {
			case seen[u.st]:
			case u.samp.Phi() >= 1:
				units = append(units, u)
			default:
				frac = append(frac, u)
			}
			seen[u.st] = true
		}
	}
	return append(units, frac...), len(units)
}

// Guesses returns the guess grid.
func (a *Auto) Guesses() []float64 { return a.guesses }

// Insert feeds (p, +) to every guess instance.
func (a *Auto) Insert(p geo.Point) { a.update(p, false) }

// Delete feeds (p, −) to every guess instance.
func (a *Auto) Delete(p geo.Point) { a.update(p, true) }

// update feeds one op to each distinct unit once and to the cost bound,
// and moves every count — the per-op oracle Apply is pinned against.
func (a *Auto) update(p geo.Point, del bool) {
	checkPoint(p, a.g)
	net := a.sketchSet.update(p, a.fp.Key(p), del)
	a.costBound.update(p, net)
	a.addNet(net)
}

// addNet moves the ensemble's and every guess's point count by net.
func (a *Auto) addNet(net int64) {
	a.n += net
	for _, s := range a.streams {
		s.n += net
	}
}

// Apply feeds a batch of updates to every guess instance through the
// shared-key ingestion pipeline (ingest.go): the per-op key columns are
// computed once — not once per guess — and the sketch work is sharded
// over the ensemble's distinct units across a worker pool sized to the
// machine, so a Storing shared by several guesses takes the batch once.
// The cost bound's F₀ ladders are level-range shards in the same pool;
// only the net counts stay on the caller. Linearity of all sketch state
// makes the result bit-identical to feeding the ops one at a time
// through Insert/Delete. A malformed op panics before anything changes.
func (a *Auto) Apply(ops []Op) {
	if len(ops) == 0 {
		return
	}
	a.addNet(a.b.build(a.g, a.fp, ops))
	a.costBound.keyBatch(&a.b)
	// Claim order: the rate-1 units, which take the whole batch and are
	// the heaviest shards; the cost bound's levels in a few chunks; then
	// the fractional units.
	L := a.costBound.g.L
	chunk := max((L+4)/4, 1)
	a.apply(&a.b, a.rateOne, L/chunk+1, func(j int) {
		a.costBound.applyLevels(&a.b, j*chunk, min(j*chunk+chunk-1, L))
	})
}

// StateDigest folds the sketch state of every distinct unit and the
// cost bound's into one 64-bit value (see Stream.StateDigest).
func (a *Auto) StateDigest() uint64 {
	return a.digest(hashing.Mix64(hashing.Mix64(uint64(a.n)) ^ a.costBound.Digest()))
}

// Bytes sums the sketch state of every distinct unit plus the cost
// bound — the full space cost of the enumeration. A Storing shared by
// several guesses is counted once.
func (a *Auto) Bytes() int64 { return a.costBound.Bytes() + a.bytes() }

// ErrNoGuessSucceeded is returned when every guess instance FAILed or
// produced a weight-inconsistent coreset.
var ErrNoGuessSucceeded = errors.New("stream: no guess o succeeded")

// Result (guess selection + extraction) lives in extract.go.
