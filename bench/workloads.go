package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"streambalance"
	"streambalance/internal/workload"
)

// Geometry shared by every workload: the cmd/bcbench ensemble geometry,
// the largest one whose queries succeed today (ROADMAP item 1).
const (
	k       = 4
	dim     = 2
	delta   = 4096
	oFactor = 4

	// Theorem 3.19's parameters at the library defaults (Params.Eps and
	// Params.Eta): strong_ratio must stay within 1+eps.
	eps = 0.3
	eta = 0.3

	setupReps = 7 // set-ups per untraced run; setup_s is their median

	// A run's loop goes on past its seconds until these many rounds are
	// done: bulk_churn's median needs 20 samples, the serving workloads
	// check the coreset of a fixed round so that the check does not depend
	// on how fast the machine is, and place_dist answers every input.
	bulkMinRounds = 20
	serveCheckAt  = 64
	// hot_sites' coreset shrinks in steps as its weight grows, and each
	// seed steps at a slightly different round. Round 10 lies inside the
	// ~2,400-point step at every seed from 1 to 20, so its size varies
	// little from seed to seed; round 16 straddles the drop to ~1,500.
	hotCheckAt     = 10
	placeMinRounds = placeInstances

	// hot_sites replays the same hotEpoch rounds on a fresh ensemble until
	// its seconds are up, and stops only at the end of an epoch. Its round
	// time moves with the coreset's size, which keeps shrinking as the
	// live weight grows, and from round ~100 on differs from seed to seed
	// by up to 2×; queries start to FAIL past round 200 at some seeds. A
	// fixed epoch gives every run the same mix of rounds, however fast the
	// machine, and keeps the loop where no query fails.
	hotEpoch = 64

	bulkPool = 8 // distinct junk batches bulk_churn cycles through

	// hot_sites draws sites with probability ∝ (hotZipfV + rank)^-1.2. At
	// an offset of 1 the top site gets a fifth of all inserts; the
	// estimate-path coreset then drifts past the strong-coreset bound and
	// queries start to fail (README). 16 leaves it under 2%.
	hotZipfV = 16

	machines    = 8
	distWorkers = 2
	// One answer's time varies 3× from input to input, so a place_dist
	// run's median covers many inputs. Every input is answered at least
	// once, which takes 15–27 s on the host measured in README.md; a run
	// answers 24–32 inputs in its 25 s.
	placeInstances   = 24
	placeSetupInputs = 8 // inputs each place_dist set-up runs the protocol on
	// place_dist samples parts more sparsely than the library default, so
	// its coreset is about a quarter of the input and one answer takes
	// ~0.6 s; at the default 512 the coreset keeps ~77% of the input and
	// one solve takes 7–10 s. At 16 the coreset's weight drifts by up to
	// 12% and 2 of 40 seeds fail strong_ratio (up to 2.25); at 32 none of
	// 200 inputs does (at most 1.18).
	placeSamplesPerPart = 32
	placeSlack          = 0.25 // cmd/bcsolve's default capacity slack
)

// sizes scales a workload's inputs and sketch budgets together, so that
// -scale shrinks memory as well as time.
type sizes struct {
	n0            int // bootstrap points; place_dist points per instance
	cellSparsity  int
	pointSparsity int
	bulkBatch     int // bulk_churn junk points per round
	serveBatch    int // serve_churn inserts, and deletes, per round
	hotBatch      int // hot_sites inserts per round
}

func sizesFor(scale float64) sizes {
	s := func(n int) int { return max(1, int(float64(n)*scale)) }
	return sizes{
		n0: s(4096), cellSparsity: s(512), pointSparsity: s(4096),
		bulkBatch: s(4096), serveBatch: s(16), hotBatch: s(512),
	}
}

// env is one run's settings.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
}

// setups is how many times the run sets up: setupReps for setup_s, or
// once in a traced run, which does not report it.
func (e env) setups() int {
	if e.trace {
		return 1
	}
	return setupReps
}

// outcome is what a workload hands back for metrics and checks.
type outcome struct {
	m             *meter
	deadline      time.Time // end of the run's seconds, counted from the start of set-up
	setup         []float64 // seconds per set-up
	coresetPoints float64   // |Q′|; place_dist averages it over its inputs
	strong        float64   // strong_ratio of the checked coreset
	summaryKiB    float64   // sketch state (streaming) or wire traffic (place_dist)
	rssMiB        float64
	cacheMiB      float64 // decode cache at the end of the loop
	wireRatio     float64 // place_dist: measured over formula bits
	checks        []check
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// newOutcome starts the run's clock. Its seconds cover set-up as well as
// the loop, so more set-ups leave fewer rounds rather than a longer run.
func newOutcome(e env) *outcome {
	return &outcome{m: newMeter(e.trace), deadline: time.Now().Add(time.Duration(e.seconds * float64(time.Second)))}
}

func (o *outcome) timeLeft() bool { return time.Now().Before(o.deadline) }

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

var workloads = map[string]func(env) (*outcome, error){
	"bulk_churn":  bulkChurn,
	"serve_churn": serveChurn,
	"hot_sites":   hotSites,
	"place_dist":  placeDist,
}

// mixtureCenters are the fixed component means of the benchmark's
// mixture. workload.Mixture draws its means from the seed, which makes
// solve time and coreset size swing by tens of percent from seed to seed;
// fixing them leaves the seed to draw the sample, so one run's numbers
// stand for the workload rather than for one layout.
var mixtureCenters = []streambalance.Point{{1024, 1024}, {3072, 1024}, {1024, 3072}, {3072, 3072}}

// mixtureMass is each component's relative mass: skew 2, as in bcbench.
var mixtureMass = []float64{8, 4, 2, 1}

// mixture draws n points from bcbench's mixture shape around
// mixtureCenters: per-coordinate spread 20, masses mixtureMass, and 5%
// uniform background noise.
func mixture(rng *rand.Rand, n int) []streambalance.Point {
	ps := make([]streambalance.Point, n)
	for i := range ps {
		if rng.Float64() < 0.05 {
			ps[i] = workload.UniformPoint(rng, dim, delta)
			continue
		}
		u := rng.Float64() * 15
		j := 0
		for j < k-1 && u >= mixtureMass[j] {
			u -= mixtureMass[j]
			j++
		}
		p := make(streambalance.Point, dim)
		for c := range p {
			p[c] = min(delta, max(1, int64(math.Round(float64(mixtureCenters[j][c])+20*rng.NormFloat64()))))
		}
		ps[i] = p
	}
	return ps
}

func inserts(ps []streambalance.Point) []streambalance.Op {
	ops := make([]streambalance.Op, len(ps))
	for i, p := range ps {
		ops[i] = streambalance.Op{P: p}
	}
	return ops
}

func streamConfig(e env) streambalance.StreamConfig {
	return streambalance.StreamConfig{
		Dim: dim, Delta: delta,
		Params:       streambalance.Params{K: k, Seed: e.seed},
		CellSparsity: e.sz.cellSparsity, PointSparsity: e.sz.pointSparsity,
	}
}

// bootstrap builds an ensemble and brings it to the state a streaming
// loop starts from: NewAutoStream, one Apply of the bootstrap inserts,
// then the first Result. err is set only when the ensemble cannot be
// built; the query's error comes back apart, as qerr.
func bootstrap(e env, ops []streambalance.Op) (a *streambalance.AutoStream, qerr, err error) {
	if a, err = streambalance.NewAutoStream(streamConfig(e), oFactor); err != nil {
		return nil, nil, err
	}
	a.Apply(ops)
	_, qerr = a.Result()
	return a, qerr, nil
}

// setUp bootstraps the ensemble e.setups() times, each on a freshly
// collected heap, timing each, and keeps the last ensemble.
func setUp(e env, o *outcome, boot []streambalance.Point) (*streambalance.AutoStream, error) {
	reps := e.setups()
	ops := inserts(boot)
	var a *streambalance.AutoStream
	var failures int
	var firstErr error
	for i := 0; i < reps; i++ {
		a = nil
		runtime.GC()
		t0 := time.Now()
		var qerr, err error
		if a, qerr, err = bootstrap(e, ops); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		if qerr != nil {
			failures++
			firstErr = qerr
		}
	}
	o.check("setup_result", failures == 0, "%d of %d bootstrap queries failed (%v)", failures, reps, firstErr)
	o.m.cache = a.CacheStats
	runtime.GC()
	return a, nil
}

// loop runs the closed loop until minRounds rounds are done and the run's
// seconds are up. round is timed; after runs untimed between rounds.
func (o *outcome) loop(minRounds int, round func(r int) bool, after func(r int, ok bool)) {
	for r := 0; r < minRounds || o.timeLeft(); r++ {
		var ok bool
		o.m.round(r, func() bool { ok = round(r); return ok })
		if after != nil {
			after(r, ok)
		}
	}
}

// bulkChurn is the batch job: after the bootstrap, each round inserts a
// batch of distinct uniform junk points and deletes them again in
// shuffled order, one Apply each, so every round ends on the bootstrap
// state. The job ends with one cold Result.
func bulkChurn(e env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	boot := mixture(rng, e.sz.n0)
	ins := make([][]streambalance.Op, bulkPool)
	del := make([][]streambalance.Op, bulkPool)
	for j := range ins {
		ins[j] = inserts(workload.UniformBox(rng, e.sz.bulkBatch, dim, delta))
		del[j] = make([]streambalance.Op, len(ins[j]))
		for i, p := range rng.Perm(len(ins[j])) {
			del[j][i] = streambalance.Op{P: ins[j][p].P, Delete: true}
		}
	}

	o := newOutcome(e)
	a, err := setUp(e, o, boot)
	if err != nil {
		return nil, err
	}
	want := a.StateDigest()
	o.loop(bulkMinRounds, func(r int) bool {
		o.m.apply(a, ins[r%bulkPool])
		o.m.apply(a, del[r%bulkPool])
		return true
	}, nil)
	a.DropDecodeCache()
	var cs *streambalance.Coreset
	var qerr error
	o.m.run(e.trace, func() bool {
		cs, qerr = o.m.result(a)
		return qerr == nil
	})
	o.rssMiB = peakRSSMiB()
	o.summaryKiB = float64(a.Bytes()) / 1024
	o.cacheMiB = float64(a.DecodeCacheBytes()) / (1 << 20)

	got := a.StateDigest()
	o.check("linearity", got == want, "digest after churn %016x, after bootstrap %016x", got, want)
	o.checkQuality(cs, qerr, aggregate(boot, nil), mixtureCenters)
	if cs != nil {
		o.coresetPoints = float64(cs.Size())
	}
	return o, nil
}

// streamCheckpoint is the state serve_churn and hot_sites check: the
// first successful query at or after a fixed round, which is the same
// for a given seed however many rounds the run's seconds allow.
type streamCheckpoint struct {
	cs     *streambalance.Coreset
	q      []streambalance.Weighted
	digest uint64
}

// serveChurn is the serving loop: each round applies a small batch of
// fresh mixture inserts and deletes of random live points, then queries.
// Live n stays at the bootstrap size; deletions dirty the reservoir, so
// queries take the ascending guess scan.
func serveChurn(e env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	all := mixture(rng, 17*e.sz.n0)
	boot, fresh := all[:e.sz.n0], all[e.sz.n0:]

	o := newOutcome(e)
	a, err := setUp(e, o, boot)
	if err != nil {
		return nil, err
	}
	live := append([]streambalance.Point(nil), boot...)
	ops := make([]streambalance.Op, 0, 2*e.sz.serveBatch)
	var next int
	// generate makes the next round's ops, between rounds, and updates
	// live to the multiset they leave.
	generate := func() {
		ops = ops[:0]
		for i := 0; i < e.sz.serveBatch; i++ {
			p := fresh[next%len(fresh)]
			next++
			ops = append(ops, streambalance.Op{P: p})
			live = append(live, p)
		}
		for i := 0; i < e.sz.serveBatch; i++ {
			j := rng.Intn(len(live))
			ops = append(ops, streambalance.Op{P: live[j], Delete: true})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	generate()
	var last *streambalance.Coreset
	var cp streamCheckpoint
	o.loop(serveCheckAt, func(r int) bool {
		o.m.apply(a, ops)
		var err error
		last, err = o.m.result(a)
		return err == nil
	}, func(r int, ok bool) {
		if ok && cp.cs == nil && r+1 >= serveCheckAt {
			cp = streamCheckpoint{last, aggregate(live, nil), a.StateDigest()}
		}
		generate()
	})
	return o.finishStream(e, a, cp, serveCheckAt)
}

// hotSites is the duplicate-heavy serving loop: each round inserts a
// batch of clients drawn Zipf(1.2) from the bootstrap's cluster sites,
// then queries. Insert-only, so the reservoir stays clean and each query
// first tries the reservoir-estimate guess. Every hotEpoch rounds the
// loop starts over, untimed, from a freshly bootstrapped ensemble and
// replays the same inserts.
func hotSites(e env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	boot := mixture(rng, e.sz.n0)
	// Hot sites are cluster points. A heavy noise site far from every
	// center dominates the capacitated cost, and the estimate-path coreset
	// keeps or drops a site with all its copies (README).
	var sites []int
	for i, p := range boot {
		if nearCenter(p) {
			sites = append(sites, i)
		}
	}
	zipf := rand.NewZipf(rng, 1.2, hotZipfV, uint64(len(sites)-1))
	picks := make([][]int, hotEpoch) // bootstrap site of each insert, per round of an epoch
	ops := make([][]streambalance.Op, hotEpoch)
	for r := range picks {
		picks[r] = make([]int, e.sz.hotBatch)
		ops[r] = make([]streambalance.Op, e.sz.hotBatch)
		for i := range picks[r] {
			s := sites[zipf.Uint64()]
			picks[r][i] = s
			ops[r][i] = streambalance.Op{P: boot[s]}
		}
	}

	o := newOutcome(e)
	a, err := setUp(e, o, boot)
	if err != nil {
		return nil, err
	}
	bootOps := inserts(boot)
	var cp streamCheckpoint
	for r := 0; r == 0 || r%hotEpoch != 0 || o.timeLeft(); r++ {
		i := r % hotEpoch
		if r > 0 && i == 0 {
			a, o.m.cache = nil, nil
			runtime.GC()
			var qerr error
			if a, qerr, err = bootstrap(e, bootOps); err != nil || qerr != nil {
				return nil, fmt.Errorf("bootstrap of epoch %d: %w", r/hotEpoch, errors.Join(err, qerr))
			}
			o.m.cache = a.CacheStats
		}
		var cs *streambalance.Coreset
		var qerr error
		o.m.round(r, func() bool {
			o.m.apply(a, ops[i])
			cs, qerr = o.m.result(a)
			return qerr == nil
		})
		if qerr == nil && cp.cs == nil && i+1 >= hotCheckAt {
			mult := make([]float64, len(boot)) // live clients per bootstrap site
			for s := range mult {
				mult[s] = 1
			}
			for _, round := range picks[:i+1] {
				for _, s := range round {
					mult[s]++
				}
			}
			cp = streamCheckpoint{cs, aggregate(boot, mult), a.StateDigest()}
		}
	}
	return o.finishStream(e, a, cp, hotCheckAt)
}

// nearCenter reports whether p lies within five spreads of a mixture
// center in every coordinate.
func nearCenter(p streambalance.Point) bool {
	for _, c := range mixtureCenters {
		near := true
		for i := range p {
			near = near && math.Abs(float64(p[i]-c[i])) < 100
		}
		if near {
			return true
		}
	}
	return false
}

// finishStream records the end-of-loop measurements of a serving
// workload, releases the ensemble and checks the checkpoint.
func (o *outcome) finishStream(e env, a *streambalance.AutoStream, cp streamCheckpoint, checkAt int) (*outcome, error) {
	o.rssMiB = peakRSSMiB()
	o.summaryKiB = float64(a.Bytes()) / 1024
	o.cacheMiB = float64(a.DecodeCacheBytes()) / (1 << 20)
	// Release the ensemble before checkLinearity builds a second one.
	a, o.m.cache = nil, nil
	runtime.GC()
	if cp.cs == nil {
		o.check("checkpoint", false, "no query at or after round %d succeeded", checkAt)
		return o, nil
	}
	err := checkLinearity(streamConfig(e), cp.q, cp.digest)
	o.check("linearity", err == nil, "fresh ensemble fed the net live multiset in one Apply: %v", err)
	o.checkQuality(cp.cs, nil, cp.q, mixtureCenters)
	o.coresetPoints = float64(cp.cs.Size())
	return o, nil
}

// placeDist is replica placement from partitioned clients: each round
// runs the coordinator protocol over machines that each hold a share of
// one input's clients, then solves the capacitated placement on its
// coreset with cmd/bcsolve's defaults. Rounds cycle through
// placeInstances inputs, each with its own protocol seed, so that one
// run's numbers cover many instances of the guess selection.
func placeDist(e env) (*outcome, error) {
	rng := rand.New(rand.NewSource(e.seed))
	type instance struct {
		machines [][]streambalance.Point
		points   []streambalance.Point
		cfg      streambalance.DistConfig
	}
	insts := make([]instance, placeInstances)
	for i := range insts {
		ps := mixture(rng, e.sz.n0)
		in := instance{machines: make([][]streambalance.Point, machines), points: ps}
		for j, p := range ps {
			in.machines[j%machines] = append(in.machines[j%machines], p)
		}
		in.cfg = streambalance.DistConfig{
			Dim: dim, Delta: delta, Workers: distWorkers,
			Params: streambalance.Params{K: k, Seed: e.seed*placeInstances + int64(i), SamplesPerPart: placeSamplesPerPart},
		}
		insts[i] = in
	}

	o := newOutcome(e)
	// Set-up is a cold protocol run over each of the first few inputs.
	for i := 0; i < e.setups(); i++ {
		runtime.GC()
		t0 := time.Now()
		for _, in := range insts[:placeSetupInputs] {
			if _, err := streambalance.DistributedCoreset(in.machines, in.cfg); err != nil {
				return nil, fmt.Errorf("set-up protocol run: %w", err)
			}
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	runtime.GC()

	first := make([]*streambalance.DistReport, len(insts)) // each input's first protocol report
	var centers0 []streambalance.Point                     // the first answer's centers for input 0
	var unbalanced int
	o.loop(placeMinRounds, func(r int) bool {
		i := r % len(insts)
		in := insts[i]
		rep, err := o.m.distributed(in.machines, len(in.points), in.cfg)
		if err != nil {
			return false
		}
		capacity := (1 + placeSlack) * 1.1 * rep.Coreset.TotalWeight() / k
		sol, ok := o.m.solveCapacitated(rep.Coreset.Points, capacity, streambalance.SolveOptions{Seed: in.cfg.Params.Seed})
		if !ok {
			return false
		}
		if !balanced(sol, rep.Coreset.Points, capacity) {
			unbalanced++
		}
		if first[i] == nil {
			first[i] = rep
			if i == 0 {
				centers0 = sol.Centers
			}
		}
		return true
	}, nil)
	o.rssMiB = peakRSSMiB()

	var answered, badWire int
	var points, bits, formula float64
	for _, rep := range first {
		if rep == nil {
			continue
		}
		answered++
		points += float64(rep.Coreset.Size())
		bits += float64(rep.Bits)
		formula += float64(rep.FormulaBits)
		var phases int64
		for _, b := range rep.ByPhase {
			phases += b
		}
		if phases != rep.Bits || rep.Bits <= 0 {
			badWire++
		}
	}
	o.check("answered", answered == len(insts), "%d of %d inputs answered", answered, len(insts))
	o.check("wire_accounting", badWire == 0, "%d protocol reports whose per-phase bits do not sum to their total", badWire)
	o.check("balanced", unbalanced == 0, "%d answers load a center beyond capacity plus the rounding allowance", unbalanced)
	if answered == 0 {
		return o, nil
	}
	o.coresetPoints = points / float64(answered)
	o.summaryKiB = bits / 8 / 1024 / float64(answered)
	o.wireRatio = bits / formula
	if first[0] != nil {
		o.checkQuality(first[0].Coreset, nil, aggregate(insts[0].points, nil), centers0)
	}
	return o, nil
}
