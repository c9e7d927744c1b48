// Package stream implements the one-pass dynamic streaming coreset of
// Theorem 4.5 (Algorithm 4): over a stream of point insertions and
// deletions it maintains, in space independent of the stream length,
// enough linear-sketch state to output a strong (η, ε)-coreset for
// capacitated k-clustering in ℓ_r at the end of the stream.
//
// Per grid level i the algorithm runs three independently subsampled
// substreams through Storing sketches (Lemma 4.2):
//
//	h_i  at rate ψ_i  — cell counts for the heavy-cell marking (Algorithm 1),
//	h′_i at rate ψ′_i — cell counts for part masses τ(Q_{i,j}) (Algorithm 2 lines 6, 9),
//	ĥ_i  at rate φ_i  — the actual coreset candidate points (Algorithm 2 line 10).
//
// All state is linear, so deletions are handled by sketch subtraction; a
// deleted point cancels exactly, whatever order updates arrive in.
package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
	"streambalance/internal/sketch"
)

// Telemetry (DESIGN.md §9). Ingestion counters are bumped once per
// logical update or per batch at the public entry points (Insert,
// Delete, Apply on Stream and Auto) — never once per guess instance —
// so stream_ops_total counts what the caller fed in, and
// stream_sketch_updates_total counts the post-sampling fan-out the
// distinct sketches absorbed: a Storing shared by several guesses counts
// once (one atomic add per unit and batch).
var (
	mOps           = obs.C("stream_ops_total")
	mDeletes       = obs.C("stream_deletes_total")
	mBatches       = obs.C("stream_batches_total")
	mBatchOps      = obs.H("stream_batch_ops")
	mSketchUpdates = obs.C("stream_sketch_updates_total")

	mExtracts       = obs.C("stream_extracts_total")
	mExtractNS      = obs.H("stream_extract_ns")
	mExtractDecodes = obs.C("stream_extract_decodes_total")
	mSketchBytes    = obs.G("stream_sketch_bytes")
	mCacheBytes     = obs.G("stream_decode_cache_bytes")

	mGuessAttempts = obs.C("stream_guess_attempts_total")
	mGuessFails    = obs.C("stream_guess_fail_total")
	mGuessRejects  = obs.C("stream_guess_weight_reject_total")
	// Attempts whose assembly the scan skipped because a smaller guess
	// had already succeeded (Auto.scan); they are attempts.
	mGuessAbandoned = obs.C("stream_guess_abandoned_total")
	// Guesses the scan skipped because a shared-sketch FAIL certificate
	// proves they FAIL (Auto.certify); they are not attempts.
	mGuessCertified = obs.C("stream_guess_certified_total")
	mGuessSelected  = obs.G("stream_guess_selected_o")

	// Per-guess outcome breakdown of the selection scan. The scalar
	// mGuess* counters above stay as cheap aggregates; this vector says
	// which guesses the scan burned attempts on and why they lost.
	vGuessOutcome = obs.CV("stream_guess_outcome_total", "guess", "outcome")
)

// markGuess records one selection-scan outcome for guess o. Label
// interning is skipped entirely when telemetry is off.
func markGuess(o float64, outcome string) {
	if !obs.Enabled() {
		return
	}
	vGuessOutcome.Inc(strconv.FormatFloat(o, 'g', -1, 64), outcome)
}

// Op is one dynamic stream update: an insertion, or a deletion of a point
// previously inserted (the stream contract of Section 4.2).
type Op struct {
	P      geo.Point
	Delete bool
}

// Config configures a single-guess streaming coreset instance.
type Config struct {
	Delta  int64          // coordinate range; rounded up to a power of two
	Dim    int            // dimension d
	Params coreset.Params // clustering parameters (k, r, ε, η, seed)
	O      float64        // the guess of OPT^{(r)}_{k-clus}; must be > 0

	// Sketch sizing. CellSparsity is α of each cell-count Storing;
	// PointSparsity is β of each ĥ-level point sketch. Defaults 2048 and
	// 4096. Theorem 4.5's poly(ε⁻¹η⁻¹kd log Δ) bound corresponds to the
	// (much larger) paper values α_i, β̂_i of Algorithm 4 step 3; these
	// calibrated defaults keep the same FAIL-never-wrong contract.
	CellSparsity  int
	PointSparsity int
}

func (c Config) withDefaults() (Config, error) {
	// Zero selects each default below; a value no default can stand in
	// for is an error here, before any sketch or sampler is drawn.
	var err error
	c.Params, c.Delta, err = coreset.ResolveConfig("stream", c.Params, c.Dim, c.Delta,
		coreset.Setting{Name: "CellSparsity", Value: float64(c.CellSparsity)},
		coreset.Setting{Name: "PointSparsity", Value: float64(c.PointSparsity)},
	)
	if err != nil {
		return c, err
	}
	if c.CellSparsity == 0 {
		c.CellSparsity = 2048
	}
	if c.PointSparsity == 0 {
		c.PointSparsity = 4096
	}
	return c, nil
}

// Stream is a one-pass dynamic streaming coreset builder for one guess o.
type Stream struct {
	cfg Config
	g   *grid.Grid

	n int64 // exact net point count (one counter; trivially streamable)

	fp *hashing.Fingerprint // keys the sampling decisions and point identities

	// One unit per level and substream: the sampler and the Storing it
	// feeds. h holds levels 0..L−1 (cell counts for heavy marking), hp
	// and hat levels 0..L (cell counts for part masses, and point
	// recovery). A unit's rate ψ_i, ψ′_i or φ_i is its sampler's Phi.
	h, hp, hat []unit

	// sketchSet lists the units above once, level by level: h_i (levels
	// below L), h′_i, ĥ_i (linkUnits).
	sketchSet

	b batch // reusable columnar buffer for Apply (not goroutine-safe)
}

// New creates a streaming coreset instance. cfg.O must be a positive
// guess of the optimal uncapacitated cost (Theorem 4.5 obtains one from a
// parallel streaming 2-approximation; Auto runs a guess grid instead).
func New(cfg Config) (*Stream, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if !(cfg.O > 0) || math.IsInf(cfg.O, 1) {
		return nil, fmt.Errorf("stream: cfg.O must be finite and > 0, got %v (use NewAuto for guess enumeration)", cfg.O)
	}
	rng := rand.New(rand.NewSource(cfg.Params.Seed))
	g := grid.New(cfg.Delta, cfg.Dim, rng)
	return newShared(cfg, g, hashing.NewFingerprint(rng), rng, nil, nil), nil
}

// rateOneOwners maps a (substream, level) pair to the unit whose Storing
// (and cell memo) the ensemble's guesses sampling it at rate 1 share.
type rateOneOwners map[[2]int]unit

// samplerColumns holds one λ-wise polynomial per (level, substream) —
// cols[i][sub] — that every guess of an ensemble samples at its own
// rate (Bernoulli.AtRate), so each op is hashed once per (substream,
// level) for the whole ensemble (batch.hashes).
type samplerColumns [][3]*hashing.Bernoulli

// newColumns draws an ensemble's sampler polynomials for p on g, level
// by level in the order h, h′, ĥ (the level-L h one is drawn but
// unused, as Rates.Samplers draws it), from an rng stream of their own
// (p.Seed ^ 0x5c), so no guess's sampler or sketch draws move.
func newColumns(p coreset.Params, g *grid.Grid) samplerColumns {
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5c))
	lambda := p.Lambda(g.Dim, g.L)
	cols := make(samplerColumns, g.L+1)
	for i := range cols {
		for sub := range cols[i] {
			cols[i][sub] = hashing.NewBernoulli(rng, lambda, 1)
		}
	}
	return cols
}

// failProb is δ of every Storing sketch newShared builds (Lemma 4.2).
const failProb = 0.01

// newShared builds a Stream over an externally supplied grid and
// fingerprint. Auto uses it to make every guess instance share one grid
// shift and one per-op key function, so the ingestion pipeline can compute
// each op's fingerprint key and cell keys once and reuse them across all
// instances. cfg must already be defaulted and have O > 0; rng seeds the
// samplers, drawn by the rate rule (coreset.Rates), and the instance's
// sketch hash functions.
//
// With non-nil cols, each sampler keeps the rate the rule drew it at
// but samples over the ensemble's polynomial for its (substream, level)
// instead of its own; the draws it replaces are still consumed, so the
// rng sequence is the same either way. Nil cols (the standalone New)
// keeps every sampler's own polynomial.
//
// With a non-nil owners table, a (substream, level) whose sampler has
// rate 1 sketches the whole stream — the same vector for every guess
// sampling it at rate 1 — so the first guess to build it (the owner)
// records its Storing in owners, and every later one adopts it. An
// adopting guess still consumes the draws of the sketch it no longer
// builds (sketch.SkipStoring), so each of its other sketches keeps the
// hash functions it would have had. A nil table (the standalone New)
// keeps every sketch private.
func newShared(cfg Config, g *grid.Grid, fp *hashing.Fingerprint, rng *rand.Rand, cols samplerColumns, owners rateOneOwners) *Stream {
	L := g.L
	s := &Stream{cfg: cfg, g: g, fp: fp}
	newUnit := func(sub, i int, samp *hashing.Bernoulli, kind sketch.Kind, capacity int) unit {
		if cols != nil {
			samp = cols[i][sub].AtRate(samp.Phi())
		}
		u := unit{samp: samp, sub: sub, col: i, hash: sub*(L+1) + i}
		if sub == 2 {
			u.col = L + 1
		} else {
			u.cells = new(cellMemo)
		}
		switch owner, owned := owners[[2]int{sub, i}]; {
		case owners == nil || samp.Phi() < 1:
			u.st = sketch.NewStoring(rng, g, i, kind, capacity, failProb, fp)
		case owned:
			sketch.SkipStoring(rng, g, kind, capacity, failProb, fp)
			u.st, u.cells = owner.st, owner.cells
		default:
			u.st = sketch.NewStoring(rng, g, i, kind, capacity, failProb, fp)
			owners[[2]int{sub, i}] = u
		}
		return u
	}
	rates := coreset.NewRates(cfg.Params, g, cfg.O)
	for i := 0; i <= L; i++ {
		// All three samplers of a level are drawn before its sketches;
		// the level-L h sampler is drawn but unused (h stops at L−1).
		hSamp, hpSamp, hatSamp := rates.Samplers(rng, i)
		if i < L {
			s.h = append(s.h, newUnit(0, i, hSamp, sketch.Cells, cfg.CellSparsity))
		}
		s.hp = append(s.hp, newUnit(1, i, hpSamp, sketch.Cells, cfg.CellSparsity))
		s.hat = append(s.hat, newUnit(2, i, hatSamp, sketch.Points, cfg.PointSparsity))
	}
	s.linkUnits()
	return s
}

// linkUnits lists s's sketches as units, level by level: h_i (levels
// below L), h′_i, ĥ_i. Every fold over them (StateDigest) and the
// ensemble's unit list (ensembleUnits) follow this order.
func (s *Stream) linkUnits() {
	L := s.g.L
	s.units = make([]unit, 0, 3*L+2)
	for i := 0; i <= L; i++ {
		if i < L {
			s.units = append(s.units, s.h[i])
		}
		s.units = append(s.units, s.hp[i], s.hat[i])
	}
}

// Insert processes (p, +).
func (s *Stream) Insert(p geo.Point) { s.update(p, false) }

// Delete processes (p, −).
func (s *Stream) Delete(p geo.Point) { s.update(p, true) }

// Apply processes a batch of updates through the columnar ingestion
// pipeline (ingest.go): per-op keys are computed once and reused across
// the h/h′/ĥ sketches of every level, which take the batch in parallel
// (sketchSet.apply). All sketch state is linear, so the result is
// bit-identical to replaying the ops through Insert/Delete.
func (s *Stream) Apply(ops []Op) {
	if len(ops) == 0 {
		return
	}
	s.n += s.b.build(s.g, s.fp, ops)
	s.apply(&s.b, 0, 0, nil)
}

func (s *Stream) update(p geo.Point, del bool) {
	checkPoint(p, s.g)
	s.n += s.sketchSet.update(p, s.fp.Key(p), del)
}

// N returns the exact current number of points.
func (s *Stream) N() int64 { return s.n }

// StateDigest folds every sketch's state into one 64-bit value. Streams
// with identical configuration and seed have equal digests iff their
// sketch states are bit-identical — the equivalence check for the batched
// ingestion pipeline against per-op replay.
func (s *Stream) StateDigest() uint64 { return s.digest(hashing.Mix64(uint64(s.n))) }

// Bytes returns the total sketch state in bytes — the streaming space
// Theorem 4.5 bounds by poly(ε⁻¹η⁻¹kd log Δ), independent of the stream
// length.
func (s *Stream) Bytes() int64 { return s.bytes() }

// ErrSketchFail is returned when a Storing subroutine FAILs (too many
// non-empty cells or sampled points for the configured sketch budgets) —
// the guess o is too small for this input, or the budgets too tight.
var ErrSketchFail = errors.New("stream: sketch decode FAILed")

// ErrPlanFail is returned when Algorithm 2's FAIL conditions trigger on
// the recovered partition.
var ErrPlanFail = errors.New("stream: coreset plan FAILed")

// Result decodes the sketches and assembles the coreset — see extract.go
// for the extraction pipeline (parallel decode + epoch cache).
