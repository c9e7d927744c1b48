// Package dist implements the distributed coreset protocol of Theorem 4.7
// in the coordinator model of [KVW14, WZ16, ...]: s machines each hold a
// subset of the input; communication flows only between machines and the
// coordinator; the goal is a strong capacitated-clustering coreset at the
// coordinator with total communication s·poly(ε⁻¹η⁻¹kd log Δ) bits.
//
// The protocol simulates Algorithm 4 (Lemma 4.6 replaces the Storing
// sketches with exact local computation):
//
//	Round 1 (up):   each machine sends its exact local size and a small
//	                uniform sample of its local points — the coordinator's
//	                stand-in for the distributed 2-approximation of OPT the
//	                paper cites ([FL11, BFL+17, HSYZ18]); see DESIGN.md §1.
//	Round 1 (down): the coordinator broadcasts the guess o, the random
//	                grid shift, and the shared-randomness seed from which
//	                every machine reconstructs the identical grids, cell
//	                fingerprints and sampling hashes.
//	Round 2 (up):   per level, each machine sends its local non-empty-cell
//	                counts for the h and h′ substreams and its locally
//	                ĥ-sampled points — or a FAIL when a local cap is
//	                exceeded (Lemma 4.6's contract). The coordinator merges
//	                counts exactly, runs Algorithms 1–2 (consulting only
//	                levels that can matter), and assembles the coreset.
//
// Since the wire-codec rewrite the subsystem is a real message-passing
// system: machines and the coordinator exchange framed, compactly encoded
// messages over a Transport (transport.go), the codec lives in wire.go,
// and the concurrent pipelined driver lives in driver.go (its
// single-goroutine oracle RunSerial in oracle_test.go). Report.Bits is
// the measured length of the encoded frames; Report.FormulaBits retains
// the closed-form pointBits/cellBits accounting the package used before
// the codec, so the two can be compared rather than silently swapped.
package dist

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
	"streambalance/internal/partition"
	"streambalance/internal/solve"
)

// Telemetry (DESIGN.md §9). The wire counters mirror Report.Bits /
// Report.FormulaBits cumulatively across runs, so a live scrape of
// /metrics cross-checks the E5 table without re-running it; FAIL
// frames (Lemma 4.6's per-machine caps) are queryable per kind.
var (
	mRuns        = obs.C("dist_runs_total")
	mFrames      = obs.C("dist_frames_total")
	mWireBits    = obs.C("dist_wire_bits_total")
	mFormulaBits = obs.C("dist_formula_bits_total")
	mFailCells   = obs.C("dist_fail_cells_total")
	mFailPoints  = obs.C("dist_fail_points_total")

	// Per-phase wire bits; the phase set is the protocol's, fixed. The
	// vector interns each phase on first charge under the same
	// dist_wire_bits_total{phase="..."} names the package used to build
	// by hand.
	vPhaseBits = obs.CV("dist_wire_bits_total", "phase")

	vRoundNS   = obs.HV("dist_round_ns", "round")
	mRound1NS  = vRoundNS.With("1")
	mRound2NS  = vRoundNS.With("2")
	mComputeNS = obs.H("dist_machine_compute_ns")
)

// Config configures the distributed protocol.
type Config struct {
	Delta  int64
	Dim    int
	Params coreset.Params

	O float64 // optional: fixed guess, finite and > 0; 0 = estimate in round 1

	// Per-machine, per-level caps (Lemma 4.6's α and β): a machine whose
	// local message would exceed a cap sends FAIL for that level instead.
	CellCap  int // default 4096
	PointCap int // default 8192

	SampleSize int // round-1 per-machine sample for the OPT estimate (default 200)

	// Workers bounds how many machines compute concurrently in Run
	// (0 = one goroutine per machine, fully concurrent). The assembled
	// coreset is bit-identical at every worker count.
	Workers int

	// Transport carries the protocol's framed messages; nil selects the
	// in-memory ChanTransport. PipeTransport runs every frame through
	// loopback net.Conn pairs instead.
	Transport Transport
}

func (c Config) withDefaults() (Config, error) {
	// Zero selects each default below (for O, the round-1 estimate); a
	// value no default can stand in for is an error here, before any
	// sampler is drawn.
	var err error
	c.Params, c.Delta, err = coreset.ResolveConfig("dist", c.Params, c.Dim, c.Delta,
		coreset.Setting{Name: "O", Value: c.O},
		coreset.Setting{Name: "CellCap", Value: float64(c.CellCap)},
		coreset.Setting{Name: "PointCap", Value: float64(c.PointCap)},
		coreset.Setting{Name: "SampleSize", Value: float64(c.SampleSize)},
	)
	if err != nil {
		return c, err
	}
	if c.CellCap == 0 {
		c.CellCap = 4096
	}
	if c.PointCap == 0 {
		c.PointCap = 8192
	}
	if c.SampleSize == 0 {
		c.SampleSize = 200
	}
	return c, nil
}

// Report is the outcome of a protocol run.
type Report struct {
	Coreset *coreset.Coreset
	Bits    int64            // measured communication: Σ 8·len(frame) over the wire
	ByPhase map[string]int64 // measured bits per protocol phase

	// FormulaBits is what the same messages would have been charged under
	// the closed-form pointBits/cellBits accounting that predated the wire
	// codec — kept so measured-vs-formula is reported, not silently
	// swapped.
	FormulaBits    int64
	FormulaByPhase map[string]int64

	Rounds int     // communication rounds (2)
	O      float64 // the guess used
}

// bit costs of the formula accounting.
func pointBits(dim int, delta int64) int64 {
	return int64(dim) * int64(math.Ceil(math.Log2(float64(delta)+1)))
}

func cellBits(dim int, delta int64) int64 {
	// cell index (one per coordinate, range < 2Δ) + a 32-bit count
	return int64(dim)*int64(math.Ceil(math.Log2(float64(2*delta)+1))) + 32
}

// mixSeed derives independent per-role seeds from the configured seed
// (splitmix64 finalizer): salt 0 is the broadcast shared randomness,
// salt 1 the coordinator's OPT-estimate rng, salt j+2 machine j's
// round-1 sample rng.
func mixSeed(seed, salt int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// shared is the state both sides reconstruct from the round-1 broadcast:
// the shifted grid hierarchy, the point fingerprint and the per-level
// samplers of the rate rule (coreset.Rates), all drawn deterministically
// from the broadcast seed.
type shared struct {
	g       *grid.Grid
	fp      *hashing.Fingerprint
	hSamp   []*hashing.Bernoulli
	hpSamp  []*hashing.Bernoulli
	hatSamp []*hashing.Bernoulli
}

func newShared(cfg Config, o float64, seed int64) *shared {
	rng := rand.New(rand.NewSource(seed))
	g := grid.New(cfg.Delta, cfg.Dim, rng)
	L := g.L
	sh := &shared{
		g: g, fp: hashing.NewFingerprint(rng),
		hSamp: make([]*hashing.Bernoulli, L+1), hpSamp: make([]*hashing.Bernoulli, L+1),
		hatSamp: make([]*hashing.Bernoulli, L+1),
	}
	rates := coreset.NewRates(cfg.Params, g, o)
	for i := 0; i <= L; i++ {
		sh.hSamp[i], sh.hpSamp[i], sh.hatSamp[i] = rates.Samplers(rng, i)
	}
	return sh
}

func shiftEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- machine side ----

// machineSample draws machine j's round-1 message: its exact local size
// and a uniform sample from its machine-local rng.
func machineSample(j int, m geo.PointSet, cfg Config) sampleMsg {
	rng := rand.New(rand.NewSource(mixSeed(cfg.Params.Seed, int64(j)+2)))
	k := cfg.SampleSize
	if k > len(m) {
		k = len(m)
	}
	perm := rng.Perm(len(m))
	pts := make([]geo.Point, k)
	for i := 0; i < k; i++ {
		pts[i] = m[perm[i]]
	}
	return sampleMsg{LocalN: int64(len(m)), Pts: pts}
}

// machineCtx is one machine's round-2 compute state. Its points are
// sorted once and collapsed to distinct points with multiplicities, so
// every ĥ payload comes out in canonical order with duplicates already
// summed — no map and no per-level sort. Each level's cell indices and
// keys are computed once and shared by that level's h and h′ messages,
// and every message is built in reused scratch buffers: a message is
// encoded before the next one is built. Every per-level sampler hashes
// the same fingerprint keys, so the machine builds their power column
// once and each sampler reads it (hashing.Bernoulli.SamplePowers).
type machineCtx struct {
	cfg  Config
	env  *shared
	pts  []geo.Point // distinct points, strictly increasing
	mult []int64     // multiplicity of pts[t]
	pow  []uint64    // x⁰…x¹⁶ of pts[t]'s fingerprint x, the samplers' input

	level   int
	cellIdx []int64  // level's cell index of pts[t] at [t·Dim, (t+1)·Dim)
	cellKey []uint64 // level's cell key of pts[t]

	mask  []bool           // sampler verdict per distinct point
	slot  map[uint64]int32 // cell key → position in cells
	cells []wireCell
	hat   []wirePoint
}

func newMachineCtx(cfg Config, env *shared, pts geo.PointSet) *machineCtx {
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, geo.Point.Compare)
	mc := &machineCtx{cfg: cfg, env: env, mult: make([]int64, 0, len(sorted)), slot: map[uint64]int32{}}
	uniq := sorted[:0]
	for _, q := range sorted {
		if n := len(uniq); n > 0 && uniq[n-1].Equal(q) {
			mc.mult[n-1]++
			continue
		}
		uniq = append(uniq, q)
		mc.mult = append(mc.mult, 1)
	}
	n := len(uniq)
	mc.pts = uniq
	keys := make([]uint64, n)
	for t, q := range uniq {
		keys[t] = env.fp.Key(q)
	}
	mc.pow = make([]uint64, hashing.PowerStride*n)
	hashing.PowersN(mc.pow, keys)
	mc.cellIdx = make([]int64, n*env.g.Dim)
	mc.cellKey = make([]uint64, n)
	mc.mask = make([]bool, n)
	return mc
}

// round2 builds every round-2 message of the machine level by level — h
// (levels 0..L−1), h′ and ĥ — and hands each encoded frame to send,
// stopping at the first send error.
func (mc *machineCtx) round2(send func(frame []byte) error) error {
	env := mc.env
	for level := 0; level <= env.g.L; level++ {
		mc.setLevel(level)
		if level < env.g.L {
			if err := send(encodeCells(frameCellsH, mc.cellsAt(env.hSamp[level]))); err != nil {
				return err
			}
		}
		if err := send(encodeCells(frameCellsHP, mc.cellsAt(env.hpSamp[level]))); err != nil {
			return err
		}
		if err := send(encodeHat(mc.hatAt())); err != nil {
			return err
		}
	}
	return nil
}

// setLevel computes every distinct point's cell index and cell key at
// the given level.
func (mc *machineCtx) setLevel(level int) {
	g := mc.env.g
	d := g.Dim
	mc.level = level
	g.CellIndexN(mc.cellIdx, mc.pts, level)
	for t := range mc.cellKey {
		mc.cellKey[t] = g.KeyOf(level, mc.cellIdx[t*d:(t+1)*d])
	}
}

// cellsAt computes the machine's non-empty-cell counts at the current
// level under the given sampler, FAILing when the distinct-cell cap is
// exceeded. The cells alias the level's index buffer; encodeCells sorts
// them.
func (mc *machineCtx) cellsAt(samp *hashing.Bernoulli) cellsMsg {
	d := mc.env.g.Dim
	samp.SamplePowers(mc.mask, mc.pow)
	clear(mc.slot)
	cells := mc.cells[:0]
	defer func() { mc.cells = cells }()
	for t, in := range mc.mask {
		if !in {
			continue
		}
		key := mc.cellKey[t]
		if at, ok := mc.slot[key]; ok {
			cells[at].Count += mc.mult[t]
			continue
		}
		if len(cells) >= mc.cfg.CellCap {
			return cellsMsg{Level: mc.level, Fail: true}
		}
		mc.slot[key] = int32(len(cells))
		cells = append(cells, wireCell{Idx: mc.cellIdx[t*d : (t+1)*d], Count: mc.mult[t]})
	}
	return cellsMsg{Level: mc.level, Cells: cells}
}

// hatAt computes the machine's ĥ point payload at the current level —
// distinct sampled points in canonical order with their multiplicities —
// FAILing when total sampled occurrences exceed the point cap.
func (mc *machineCtx) hatAt() hatMsg {
	mc.env.hatSamp[mc.level].SamplePowers(mc.mask, mc.pow)
	pts := mc.hat[:0]
	defer func() { mc.hat = pts }()
	var occ int64
	for t, in := range mc.mask {
		if !in {
			continue
		}
		occ += mc.mult[t]
		if occ > int64(mc.cfg.PointCap) {
			return hatMsg{Level: mc.level, Fail: true}
		}
		pts = append(pts, wirePoint{P: mc.pts[t], Mult: mc.mult[t]})
	}
	return hatMsg{Level: mc.level, Pts: pts}
}

// ---- coordinator side ----

// levelAgg is one level's merged h or h′ counts. Each distinct cell key
// owns a slot of the flat value slices; counts are exact integers, so the
// merge is order-independent and the pipelined driver's arrival-order
// merging is bit-identical to the serial machine-major merge.
type levelAgg struct {
	reported int
	failed   bool
	slot     map[uint64]int32 // cell key → slot
	keys     []uint64         // cell key of each slot
	idx      []int64          // slot t's index vector at [t·Dim, (t+1)·Dim)
	count    []int64
	final    []partition.Cell // built once, on first consult
}

// hatAgg is one level's ĥ payloads, kept as each machine sent them —
// sorted runs, indexed by machine — until assembly consults the level
// and merges them (mergeHat).
type hatAgg struct {
	reported   int
	failed     int // machines that sent FAIL
	lowestFail int // lowest FAILing machine index, or -1
	runs       [][]wirePoint
}

// coordinator holds the coordinator's merge state, shared by Run and the
// serial test oracle. All mutation goes through the mutex; count sources
// and assembly wait on cond until the levels they consult are complete
// (streamingly in Run, trivially so in the serial oracle).
type coordinator struct {
	cfg Config
	s   int

	mu   sync.Mutex
	cond *sync.Cond
	rep  *Report
	err  error // first protocol error; aborts all waits

	samples []sampleMsg
	total   int64
	o       float64
	env     *shared

	failFrames int64 // round-2 FAIL frames seen (span attribute)

	hAgg   []*levelAgg // levels 0..L-1
	hpAgg  []*levelAgg // levels 0..L
	hatAgg []*hatAgg   // levels 0..L
}

func newCoordinator(cfg Config, s int) *coordinator {
	co := &coordinator{
		cfg: cfg, s: s,
		rep:     &Report{ByPhase: map[string]int64{}, FormulaByPhase: map[string]int64{}, Rounds: 2},
		samples: make([]sampleMsg, s),
	}
	co.cond = sync.NewCond(&co.mu)
	return co
}

func (co *coordinator) chargeLocked(phase string, frameBytes int) {
	bits := int64(frameBytes) * 8
	co.rep.ByPhase[phase] += bits
	co.rep.Bits += bits
	mFrames.Inc()
	mWireBits.Add(bits)
	vPhaseBits.Add(bits, phase)
}

func (co *coordinator) formulaLocked(phase string, bits int64) {
	co.rep.FormulaByPhase[phase] += bits
	co.rep.FormulaBits += bits
	mFormulaBits.Add(bits)
}

// abort records the first protocol error and wakes every waiter.
func (co *coordinator) abort(err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.err == nil && err != nil {
		co.err = err
	}
	co.cond.Broadcast()
}

func (co *coordinator) firstErr() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.err
}

func (co *coordinator) aborted() bool { return co.firstErr() != nil }

// addSample decodes and meters machine j's round-1 frame.
func (co *coordinator) addSample(j int, frame []byte) {
	m, err := decodeSample(frame, co.cfg.Dim)
	if err != nil {
		co.abort(fmt.Errorf("dist: machine %d sample: %w", j, err))
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	co.samples[j] = m
	co.chargeLocked("round1-sample", len(frame))
	co.formulaLocked("round1-sample", int64(len(m.Pts))*pointBits(co.cfg.Dim, co.cfg.Delta)+64)
}

// chargeBroadcast meters one machine's share of the round-1 broadcast.
func (co *coordinator) chargeBroadcast(frameBytes int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.chargeLocked("round1-broadcast", frameBytes)
}

// finishRound1 totals the samples, fixes the guess o, builds the shared
// randomness and returns the encoded broadcast frame.
func (co *coordinator) finishRound1() ([]byte, error) {
	p := co.cfg.Params
	var sample geo.PointSet
	co.total = 0
	for _, m := range co.samples {
		co.total += m.LocalN
		sample = append(sample, m.Pts...)
	}
	if co.total == 0 {
		return nil, errors.New("dist: empty input")
	}
	o := co.cfg.O
	if o == 0 {
		rng := rand.New(rand.NewSource(mixSeed(p.Seed, 1)))
		o = coreset.GuessFromEstimate(solve.EstimateOPT(rng, geo.UnitWeights(sample), p.K, p.R, co.cfg.Delta, 2) *
			float64(co.total) / float64(len(sample)))
	}
	co.o = o
	co.rep.O = o

	seed := mixSeed(p.Seed, 0)
	co.env = newShared(co.cfg, o, seed)
	g := co.env.g
	L := g.L
	co.hAgg = make([]*levelAgg, L+1)
	co.hpAgg = make([]*levelAgg, L+1)
	co.hatAgg = make([]*hatAgg, L+1)
	for i := 0; i <= L; i++ {
		co.hAgg[i] = &levelAgg{slot: map[uint64]int32{}}
		co.hpAgg[i] = &levelAgg{slot: map[uint64]int32{}}
		co.hatAgg[i] = &hatAgg{lowestFail: -1, runs: make([][]wirePoint, co.s)}
	}

	// Formula accounting for the broadcast (shift + 3(L+1) hash seeds of λ
	// field coefficients each + o, per machine) and the exact local sizes.
	seedBits := int64(co.cfg.Dim)*int64(L) + int64(3*(L+1)*p.Lambda(g.Dim, L))*61 + 64
	co.mu.Lock()
	co.formulaLocked("round1-broadcast", seedBits*int64(co.s))
	co.formulaLocked("round2-count", 64*int64(co.s))
	co.mu.Unlock()

	return encodeBroadcast(broadcastMsg{O: o, Seed: seed, Shift: g.Shift}), nil
}

// handleFrame decodes, meters and merges one round-2 frame from machine
// j, stripping any trace-context header first — metering always charges
// the inner frame, so traced runs report the same Bits as untraced ones.
func (co *coordinator) handleFrame(j int, frame []byte) error {
	_, frame, err := detachTrace(frame)
	if err != nil {
		return err
	}
	g := co.env.g
	switch frameType(frame) {
	case frameCellsH:
		m, err := decodeCells(frame, co.cfg.Dim, g.L-1)
		if err != nil {
			return err
		}
		return co.addCells(co.hAgg, "round2-h", m, len(frame))
	case frameCellsHP:
		m, err := decodeCells(frame, co.cfg.Dim, g.L)
		if err != nil {
			return err
		}
		return co.addCells(co.hpAgg, "round2-hp", m, len(frame))
	case frameHat:
		m, err := decodeHat(frame, co.cfg.Dim, g.L)
		if err != nil {
			return err
		}
		return co.addHat(j, m, len(frame))
	default:
		return fmt.Errorf("dist: unexpected frame type %d in round 2", frameType(frame))
	}
}

func (co *coordinator) addCells(aggs []*levelAgg, phase string, m cellsMsg, frameBytes int) error {
	g := co.env.g
	co.mu.Lock()
	defer co.mu.Unlock()
	agg := aggs[m.Level]
	if agg.reported >= co.s {
		return fmt.Errorf("dist: duplicate %s frame for level %d", phase, m.Level)
	}
	co.chargeLocked(phase, frameBytes)
	if m.Fail {
		co.formulaLocked(phase, 1)
		agg.failed = true
		co.failFrames++
		mFailCells.Inc()
	} else {
		co.formulaLocked(phase, int64(len(m.Cells))*cellBits(co.cfg.Dim, co.cfg.Delta)+1)
		for _, c := range m.Cells {
			key := g.KeyOf(m.Level, c.Idx)
			if t, ok := agg.slot[key]; ok {
				agg.count[t] += c.Count
				continue
			}
			agg.slot[key] = int32(len(agg.keys))
			agg.keys = append(agg.keys, key)
			agg.idx = append(agg.idx, c.Idx...)
			agg.count = append(agg.count, c.Count)
		}
	}
	agg.reported++
	if agg.reported == co.s || agg.failed {
		co.cond.Broadcast()
	}
	return nil
}

// addHat meters machine j's ĥ frame and keeps its payload for the lazy
// merge.
func (co *coordinator) addHat(j int, m hatMsg, frameBytes int) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	agg := co.hatAgg[m.Level]
	if agg.reported >= co.s {
		return fmt.Errorf("dist: duplicate hat frame for level %d", m.Level)
	}
	co.chargeLocked("round2-hat", frameBytes)
	if m.Fail {
		co.formulaLocked("round2-hat", 1)
		co.failFrames++
		mFailPoints.Inc()
		agg.failed++
		if agg.lowestFail < 0 || j < agg.lowestFail {
			agg.lowestFail = j
		}
	} else {
		var occ int64
		for _, wp := range m.Pts {
			occ += wp.Mult
		}
		co.formulaLocked("round2-hat", occ*pointBits(co.cfg.Dim, co.cfg.Delta)+1)
		agg.runs[j] = m.Pts
	}
	agg.reported++
	if agg.reported == co.s {
		co.cond.Broadcast()
	}
	return nil
}

// cellSource is the plan step's count source over the merged h or h′
// counts aggs, sampled by samps: waitCells at the level's rate.
func (co *coordinator) cellSource(aggs []*levelAgg, samps []*hashing.Bernoulli) partition.CountSource {
	return func(level int) ([]partition.Cell, bool) {
		return co.waitCells(aggs, level, samps[level].Phi())
	}
}

// waitCells blocks until every machine's frame for (aggs, level) has been
// merged (or a FAIL/abort), then returns the rate-corrected cells sorted
// by key, each with its parent's key.
func (co *coordinator) waitCells(aggs []*levelAgg, level int, rate float64) ([]partition.Cell, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	agg := aggs[level]
	for agg.reported < co.s && !agg.failed && co.err == nil {
		co.cond.Wait()
	}
	if agg.failed || co.err != nil {
		return nil, false
	}
	if agg.final == nil {
		d, g := co.cfg.Dim, co.env.g
		agg.final = make([]partition.Cell, len(agg.keys))
		for t, key := range agg.keys {
			idx := agg.idx[t*d : (t+1)*d : (t+1)*d]
			agg.final[t] = partition.Cell{Key: key, Parent: g.ParentKey(level, idx),
				CellTau: partition.CellTau{Index: idx, Tau: float64(agg.count[t]) / rate}}
		}
		slices.SortFunc(agg.final, func(a, b partition.Cell) int { return cmp.Compare(a.Key, b.Key) })
	}
	return agg.final, true
}

// waitHat blocks until all s of level's ĥ frames are in (machines always
// send every level) or the run aborts, then returns the machines'
// payloads. A FAIL is reported only once the level is complete, naming
// the lowest FAILing machine, so the error text does not depend on
// arrival order.
func (co *coordinator) waitHat(level int) ([][]wirePoint, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	agg := co.hatAgg[level]
	for agg.reported < co.s && co.err == nil {
		co.cond.Wait()
	}
	if co.err != nil {
		return nil, co.err
	}
	if agg.failed > 0 {
		return nil, fmt.Errorf("dist: machine %d exceeded point cap at level %d (%d of %d machines failed)",
			agg.lowestFail, level, agg.failed, co.s)
	}
	return agg.runs, nil
}

// mergeHat merges one level's per-machine ĥ payloads into alphabetical
// order, summing the multiplicities of a point several machines sent, and
// hands each distinct point to yield. Every payload is strictly
// increasing (decodeHat rejects any other), so a min-heap over the s run
// heads yields exactly the sorted distinct points — the same order at
// any worker count and frame arrival order.
func mergeHat(runs [][]wirePoint, yield func(p geo.Point, mult int64)) {
	head := make([]int, len(runs))
	heap := make([]int, 0, len(runs)) // runs with points left, by head point
	less := func(a, b int) bool { return runs[a][head[a]].P.Compare(runs[b][head[b]].P) < 0 }
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for j, run := range runs {
		if len(run) > 0 {
			heap = append(heap, j)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		p := runs[heap[0]][head[heap[0]]].P
		var mult int64
		for len(heap) > 0 {
			j := heap[0]
			if wp := runs[j][head[j]]; !wp.P.Equal(p) {
				break
			} else {
				mult += wp.Mult
			}
			if head[j]++; head[j] == len(runs[j]) {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			down(0)
		}
		yield(p, mult)
	}
}

// buildCoreset runs the plan step (Algorithms 1–2) over the (possibly
// still streaming) merged counts and assembles the coreset in
// deterministic point order: needed levels ascending, each level's merged
// points alphabetically.
func (co *coordinator) buildCoreset() (*coreset.Coreset, error) {
	env := co.env
	q, err := coreset.PlanQuery(env.g, co.cfg.Params, co.o, co.total,
		co.cellSource(co.hAgg, env.hSamp), co.cellSource(co.hpAgg, env.hpSamp))
	if err != nil {
		if ce := co.firstErr(); ce != nil {
			return nil, ce
		}
		return nil, fmt.Errorf("dist: %w (a machine exceeded its level cap)", err)
	}
	if q.Plan.Failed() {
		return nil, fmt.Errorf("dist: plan FAILed: %s", q.Plan.FailWhy)
	}
	cs, err := q.Assemble(func(i int, keep *partition.PartFilter, yield func(geo.Point, int64)) error {
		runs, err := co.waitHat(i)
		if err != nil {
			return err
		}
		mergeHat(runs, func(p geo.Point, mult int64) {
			if keep.Keep(env.g.PointKeys(p, i)) {
				yield(p, mult)
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The kept points still alias their decoded frames; copy them into
	// one compact array so a retained Report does not pin every frame of
	// the consulted levels.
	d := co.cfg.Dim
	coords := make([]int64, len(cs.Points)*d)
	for t := range cs.Points {
		c := coords[t*d : (t+1)*d : (t+1)*d]
		copy(c, cs.Points[t].P)
		cs.Points[t].P = c
	}
	return cs, nil
}
