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
	"math"
	"math/rand"
	"strconv"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
	"streambalance/internal/partition"
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
	mGuessSelected = obs.G("stream_guess_selected_o")

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

	// Sampling calibration: ψ_i = min(1, CountRate/T_i(o)) and
	// ψ′_i = min(1, PartRate/(γ·T_i(o))). Defaults 256 and 64. The paper
	// uses 10⁶λ′ for both numerators (Algorithm 3).
	CountRate float64
	PartRate  float64

	FailProb float64 // δ for the sketches (default 0.01)
}

func (c Config) withDefaults() (Config, error) {
	var err error
	c.Params, err = c.Params.Resolve()
	if err != nil {
		return c, err
	}
	if c.Dim < 1 {
		return c, errors.New("stream: Dim must be >= 1")
	}
	if c.Delta < 1 {
		return c, errors.New("stream: Delta must be >= 1")
	}
	d := int64(1)
	for d < c.Delta {
		d <<= 1
	}
	c.Delta = d
	if c.CellSparsity == 0 {
		c.CellSparsity = 2048
	}
	if c.PointSparsity == 0 {
		c.PointSparsity = 4096
	}
	if c.CountRate == 0 {
		c.CountRate = 256
	}
	if c.PartRate == 0 {
		c.PartRate = 64
	}
	if c.FailProb == 0 {
		c.FailProb = 0.01
	}
	return c, nil
}

// Stream is a one-pass dynamic streaming coreset builder for one guess o.
type Stream struct {
	cfg Config
	g   *grid.Grid

	n int64 // exact net point count (one counter; trivially streamable)

	fp            *hashing.Fingerprint // keys the sampling decisions and point identities
	hSamp, hpSamp []*hashing.Bernoulli // ψ_i and ψ′_i samplers, levels 0..L
	hatSamp       []*hashing.Bernoulli // φ_i samplers, levels 0..L

	hStore   []*sketch.Storing // cell counts for heavy marking, levels 0..L−1
	hpStore  []*sketch.Storing // cell counts for part masses, levels 0..L
	hatStore []*sketch.Storing // point recovery, levels 0..L

	// sketchSet lists the units above once, level by level: h_i (levels
	// below L), h′_i, ĥ_i (linkUnits).
	sketchSet

	psi, psiP, phi []float64

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
	if cfg.O <= 0 {
		return nil, errors.New("stream: cfg.O must be > 0 (use NewAuto for guess enumeration)")
	}
	rng := rand.New(rand.NewSource(cfg.Params.Seed))
	g := grid.New(cfg.Delta, cfg.Dim, rng)
	return newShared(cfg, g, hashing.NewFingerprint(rng), rng, nil), nil
}

// rateOneOwners maps a (substream, level) pair to the Storing that the
// ensemble's guesses sampling it at rate 1 share.
type rateOneOwners map[[2]int]*sketch.Storing

// newShared builds a Stream over an externally supplied grid and
// fingerprint. Auto uses it to make every guess instance share one grid
// shift and one per-op key function, so the ingestion pipeline can compute
// each op's fingerprint key and cell keys once and reuse them across all
// instances. cfg must already be defaulted and have O > 0; rng seeds the
// instance-private samplers and sketch hash functions.
//
// With a non-nil owners table, a (substream, level) whose sampler has
// rate 1 sketches the whole stream — the same vector for every guess
// sampling it at rate 1 — so the first guess to build it (the owner)
// records its Storing in owners, and every later one adopts it. An
// adopting guess still consumes the draws of the sketch it no longer
// builds (sketch.SkipStoring), so each of its other sketches keeps the
// hash functions it would have had. A nil table (the standalone New)
// keeps every sketch private.
func newShared(cfg Config, g *grid.Grid, fp *hashing.Fingerprint, rng *rand.Rand, owners rateOneOwners) *Stream {
	L := g.L
	s := &Stream{
		cfg: cfg, g: g,
		fp:       fp,
		hSamp:    make([]*hashing.Bernoulli, L+1),
		hpSamp:   make([]*hashing.Bernoulli, L+1),
		hatSamp:  make([]*hashing.Bernoulli, L+1),
		hStore:   make([]*sketch.Storing, L+1),
		hpStore:  make([]*sketch.Storing, L+1),
		hatStore: make([]*sketch.Storing, L+1),
		psi:      make([]float64, L+1),
		psiP:     make([]float64, L+1),
		phi:      make([]float64, L+1),
	}
	storing := func(sub, i int, samp *hashing.Bernoulli, alpha, beta int) *sketch.Storing {
		if owners == nil || samp.Phi() < 1 {
			return sketch.NewStoringShared(rng, g, i, alpha, beta, cfg.FailProb, fp)
		}
		if st := owners[[2]int{sub, i}]; st != nil {
			sketch.SkipStoring(rng, g, alpha, beta, cfg.FailProb, fp)
			return st
		}
		st := sketch.NewStoringShared(rng, g, i, alpha, beta, cfg.FailProb, fp)
		owners[[2]int{sub, i}] = st
		return st
	}
	p := cfg.Params
	gamma := p.Gamma(g.Dim, L)
	lambda := p.Lambda(g.Dim, L)
	for i := 0; i <= L; i++ {
		T := partition.ThresholdT(g, i, cfg.O, p.R)
		s.psi[i] = math.Min(1, cfg.CountRate/T)
		s.psiP[i] = math.Min(1, cfg.PartRate/(gamma*T))
		s.phi[i] = p.Phi(T, g.Dim, L)
		s.hSamp[i] = hashing.NewBernoulli(rng, lambda, s.psi[i])
		s.hpSamp[i] = hashing.NewBernoulli(rng, lambda, s.psiP[i])
		s.hatSamp[i] = hashing.NewBernoulli(rng, lambda, s.phi[i])
		if i <= L-1 {
			s.hStore[i] = storing(0, i, s.hSamp[i], cfg.CellSparsity, 0)
		}
		s.hpStore[i] = storing(1, i, s.hpSamp[i], cfg.CellSparsity, 0)
		s.hatStore[i] = storing(2, i, s.hatSamp[i], 0, cfg.PointSparsity)
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
			s.units = append(s.units, unit{s.hStore[i], s.hSamp[i], 0, i})
		}
		s.units = append(s.units, unit{s.hpStore[i], s.hpSamp[i], 1, i}, unit{s.hatStore[i], s.hatSamp[i], 2, L + 1})
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
	checkDim(p, s.g.Dim)
	s.n += s.sketchSet.update(p, s.fp.Key(p), del)
}

// N returns the exact current number of points.
func (s *Stream) N() int64 { return s.n }

// Fork returns a zeroed Stream sharing s's configuration, grid and hash
// functions. A fork can process a disjoint shard of the stream (e.g. on
// another goroutine or machine) and be merged back with Merge — the
// linearity of every sketch makes the merged state identical to one pass
// over the interleaved stream.
func (s *Stream) Fork() *Stream {
	cp := &Stream{
		cfg: s.cfg, g: s.g, fp: s.fp,
		hSamp: s.hSamp, hpSamp: s.hpSamp, hatSamp: s.hatSamp,
		hStore:   make([]*sketch.Storing, len(s.hStore)),
		hpStore:  make([]*sketch.Storing, len(s.hpStore)),
		hatStore: make([]*sketch.Storing, len(s.hatStore)),
		psi:      s.psi, psiP: s.psiP, phi: s.phi,
	}
	for i := range s.hStore {
		if s.hStore[i] != nil {
			cp.hStore[i] = s.hStore[i].CloneEmpty()
		}
		cp.hpStore[i] = s.hpStore[i].CloneEmpty()
		cp.hatStore[i] = s.hatStore[i].CloneEmpty()
	}
	cp.linkUnits()
	return cp
}

// Merge folds a fork's state back into s. The fork must have been
// created by s.Fork() (or share its hash functions transitively);
// mismatched shapes panic.
func (s *Stream) Merge(fork *Stream) {
	for i, u := range s.units {
		u.st.Merge(fork.units[i].st)
	}
	s.n += fork.n
}

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
