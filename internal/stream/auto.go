package stream

import (
	"errors"
	"math"
	"math/rand"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
)

// Auto runs the guess enumeration of Theorem 4.5: one Stream instance per
// guess o on a geometric grid covering [1, Δ^d·(√d·Δ)^r] (Algorithm 2
// line 1), all fed the same updates in parallel. At the end of the stream
// the smallest guess whose instance succeeds — and whose coreset carries
// approximately the right total weight — is selected.
//
// The paper selects o with a parallel streaming 2-approximation of OPT
// [HSYZ18]; the weight-sanity rule here is the practical stand-in (a
// far-too-large o loses points because the root cell is not heavy, a
// far-too-small o FAILs its sketches), documented in DESIGN.md.
type Auto struct {
	streams []*Stream
	guesses []float64
	n       int64

	// All guess instances share one grid (hence one random shift and one
	// cell-key fingerprint) and one sampling/point fingerprint, so the
	// ingestion pipeline computes each op's key column once for the whole
	// ensemble. Each instance keeps private samplers and sketch hash
	// functions; the per-instance guarantees of Theorem 4.5 are marginal
	// over those, so sharing the grid only correlates failures across
	// guesses — it never changes any single instance's distribution.
	g  *grid.Grid
	fp *hashing.Fingerprint
	b  *batch // reusable columnar buffer for Apply (not goroutine-safe)

	reservoir *Reservoir // OPT-estimate sample for guess selection (insert-only)
	costBound *CostBound // deletion-proof cell-counting bound ([HSYZ18]-style)
	params    coreset.Params
	delta     int64
}

// NewAuto creates the parallel guess grid with ratio oFactor between
// consecutive guesses (≥ 2; the paper uses 2, 4 halves the instance
// count with one extra factor of guess slack).
func NewAuto(cfg Config, oFactor float64) (*Auto, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
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
		reservoir: NewReservoir(1000, cfg.Params.Seed^0x5eed),
		costBound: NewCostBound(rngCB, gCB, cfg.Params.R, 256),
		params:    cfg.Params,
		delta:     cfg.Delta,
	}
	for o, i := 1.0, 0; o <= upper; o, i = o*oFactor, i+1 {
		c := cfg
		c.O = o
		// Decorrelate instance samplers and sketches while keeping the
		// whole ensemble reproducible from one seed.
		c.Params.Seed = cfg.Params.Seed + int64(i)*1_000_003
		st := newShared(c, a.g, a.fp, rand.New(rand.NewSource(c.Params.Seed)))
		a.streams = append(a.streams, st)
		a.guesses = append(a.guesses, o)
	}
	obs.G("stream_guess_instances").SetInt(int64(len(a.streams)))
	return a, nil
}

// Guesses returns the guess grid.
func (a *Auto) Guesses() []float64 { return a.guesses }

// Insert feeds (p, +) to every guess instance.
func (a *Auto) Insert(p geo.Point) {
	checkDim(p, a.g.Dim)
	mOps.Inc()
	a.n++
	a.reservoir.Insert(p)
	a.costBound.Insert(p)
	for _, s := range a.streams {
		// update, not Insert: stream_ops_total counts logical updates at
		// the public entry point, not once per guess instance.
		s.update(p, false)
	}
}

// Delete feeds (p, −) to every guess instance.
func (a *Auto) Delete(p geo.Point) {
	checkDim(p, a.g.Dim)
	mOps.Inc()
	mDeletes.Inc()
	a.n--
	a.reservoir.Delete(p)
	a.costBound.Delete(p)
	for _, s := range a.streams {
		s.update(p, true)
	}
}

// Apply feeds a batch of updates to every guess instance through the
// shared-key ingestion pipeline (ingest.go): the per-op key columns are
// computed once — not once per guess — and the sketch work is sharded
// over (guess × level-range) units across a worker pool sized to the
// machine. The cost bound's F₀ ladders are level units in the same pool,
// queued ahead of the guess shards; only the reservoir and the net counts
// stay on the caller. Linearity of all sketch state makes the
// result bit-identical to feeding the ops one at a time through
// Insert/Delete. A malformed op panics before anything changes.
func (a *Auto) Apply(ops []Op) {
	if len(ops) == 0 {
		return
	}
	checkDims(ops, a.g.Dim)
	countBatch(ops)
	var net int64
	for i := range ops {
		if ops[i].Delete {
			net--
			a.reservoir.Delete(ops[i].P)
		} else {
			net++
			a.reservoir.Insert(ops[i].P)
		}
	}
	a.n += net
	if a.b == nil {
		a.b = new(batch)
	}
	a.b.build(a.g, a.fp, ops)
	a.costBound.keyBatch(a.b)
	// Chunk each instance's L+1 levels into a few shards so the pool can
	// balance load even when the instance count is near the core count.
	L := a.g.L
	chunk := max((L+4)/4, 1)
	shards := make([]shard, 0, (len(a.streams)+1)*4)
	shards = levelShards(shards, a.costBound, a.costBound.g.L, chunk)
	for _, s := range a.streams {
		s.n += net
		shards = levelShards(shards, s, L, chunk)
	}
	applyShards(a.b, shards)
}

// StateDigest folds every guess instance's sketch state and the cost
// bound's into one 64-bit value (see Stream.StateDigest).
func (a *Auto) StateDigest() uint64 {
	d := hashing.Mix64(uint64(a.n))
	d = hashing.Mix64(d ^ a.costBound.Digest())
	for _, s := range a.streams {
		d = hashing.Mix64(d ^ s.StateDigest())
	}
	return d
}

// Bytes sums the sketch state over all guess instances plus the guess
// selectors — the full space cost of the enumeration.
func (a *Auto) Bytes() int64 {
	b := a.costBound.Bytes()
	for _, s := range a.streams {
		b += s.Bytes()
	}
	return b
}

// ErrNoGuessSucceeded is returned when every guess instance FAILed or
// produced a weight-inconsistent coreset.
var ErrNoGuessSucceeded = errors.New("stream: no guess o succeeded")

// Result (guess selection + extraction) lives in extract.go.
