package stream

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/assign"
	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/solve"
	"streambalance/internal/workload"
)

const testDelta = 1 << 10

func testMixture(seed int64, n int) (geo.PointSet, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	m := workload.Mixture{N: n, D: 2, Delta: testDelta, K: 3, Spread: 8, Skew: 2, NoiseFrac: 0.05}
	return m.Generate(rng)
}

// goodGuess computes a legitimate o ≤ OPT from the survivor set, standing
// in for the paper's parallel streaming 2-approximation.
func goodGuess(ps geo.PointSet, k int) float64 {
	rng := rand.New(rand.NewSource(1234))
	est := solve.EstimateOPT(rng, geo.UnitWeights(ps), k, 2, testDelta, 2)
	o := est / 4
	if o < 1 {
		o = 1
	}
	return math.Exp2(math.Floor(math.Log2(o)))
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dim: 0, Delta: 16, O: 1, Params: coreset.Params{K: 2}}); err == nil {
		t.Fatal("Dim=0 must error")
	}
	if _, err := New(Config{Dim: 2, Delta: 0, O: 1, Params: coreset.Params{K: 2}}); err == nil {
		t.Fatal("Delta=0 must error")
	}
	if _, err := New(Config{Dim: 2, Delta: 16, Params: coreset.Params{K: 2}}); err == nil {
		t.Fatal("O=0 must error on New")
	}
	if _, err := New(Config{Dim: 2, Delta: 16, O: 1, Params: coreset.Params{K: 0}}); err == nil {
		t.Fatal("bad Params must error")
	}
	// Non-power-of-two Delta is rounded up, not rejected.
	s, err := New(Config{Dim: 2, Delta: 100, O: 1, Params: coreset.Params{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.g.Delta != 128 {
		t.Fatalf("Delta rounded to %d, want 128", s.g.Delta)
	}
}

func TestInsertOnlyStreamQuality(t *testing.T) {
	ps, truec := testMixture(1, 4000)
	o := goodGuess(ps, 3)
	s, err := New(Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s.Insert(p)
	}
	if s.N() != int64(len(ps)) {
		t.Fatalf("N = %d", s.N())
	}
	cs, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Size() == 0 || cs.Size() >= len(ps) {
		t.Fatalf("coreset size %d of n=%d", cs.Size(), len(ps))
	}
	if w := cs.TotalWeight(); math.Abs(w-float64(len(ps))) > 0.15*float64(len(ps)) {
		t.Fatalf("total weight %v vs n=%d", w, len(ps))
	}
	// Unconstrained cost preserved at true and random centers.
	ws := geo.UnitWeights(ps)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4; trial++ {
		Z := truec
		if trial > 0 {
			Z = solve.SeedKMeansPP(rng, ws, 3, 2)
		}
		full := assign.UnconstrainedCost(ws, Z, 2)
		core := assign.UnconstrainedCost(cs.Points, Z, 2)
		if ratio := core / full; ratio < 0.7 || ratio > 1.3 {
			t.Fatalf("trial %d: cost ratio %v (full %v, core %v)", trial, ratio, full, core)
		}
	}
}

func TestDeletionsCancelExactly(t *testing.T) {
	// Insert mixture A and junk B, delete all of B: the result must look
	// like a coreset of A alone.
	psA, truec := testMixture(2, 3000)
	rng := rand.New(rand.NewSource(3))
	psB := workload.UniformBox(rng, 3000, 2, testDelta)

	o := goodGuess(psA, 3)
	s, err := New(Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: A inserts, B inserts, B deletes (shuffled).
	for i := range psA {
		s.Insert(psA[i])
		if i < len(psB) {
			s.Insert(psB[i])
		}
	}
	perm := rng.Perm(len(psB))
	for _, i := range perm {
		s.Delete(psB[i])
	}
	if s.N() != int64(len(psA)) {
		t.Fatalf("N = %d, want %d", s.N(), len(psA))
	}
	cs, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	ws := geo.UnitWeights(psA)
	full := assign.UnconstrainedCost(ws, truec, 2)
	core := assign.UnconstrainedCost(cs.Points, truec, 2)
	if ratio := core / full; ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("after deletions: cost ratio %v", ratio)
	}
	// Every coreset point must be a survivor (from A, or a B point that
	// shares coordinates with an A point).
	inA := map[string]bool{}
	for _, p := range psA {
		inA[p.String()] = true
	}
	for _, wp := range cs.Points {
		if !inA[wp.P.String()] {
			t.Fatalf("coreset contains deleted point %v", wp.P)
		}
	}
}

func TestStreamOrderInvariance(t *testing.T) {
	// Linear sketches: any permutation of the same multiset of updates
	// must give the identical result.
	ps, _ := testMixture(4, 1200)
	o := goodGuess(ps, 3)
	cfg := Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 7}}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s1.Insert(p)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(8)).Perm(len(ps))
	for _, i := range perm {
		s2.Insert(ps[i])
	}
	c1, err1 := s1.Result()
	c2, err2 := s2.Result()
	if err1 != nil || err2 != nil {
		t.Fatalf("results: %v %v", err1, err2)
	}
	m1 := map[string]float64{}
	for _, wp := range c1.Points {
		m1[wp.P.String()] += wp.W
	}
	m2 := map[string]float64{}
	for _, wp := range c2.Points {
		m2[wp.P.String()] += wp.W
	}
	if len(m1) != len(m2) {
		t.Fatalf("different coreset supports: %d vs %d", len(m1), len(m2))
	}
	for k, v := range m1 {
		if math.Abs(m2[k]-v) > 1e-9 {
			t.Fatalf("weight mismatch at %s: %v vs %v", k, v, m2[k])
		}
	}
}

func TestRepeatedResultIsIdempotent(t *testing.T) {
	ps, _ := testMixture(5, 800)
	o := goodGuess(ps, 3)
	s, err := New(Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s.Insert(p)
	}
	a, errA := s.Result()
	b, errB := s.Result()
	if errA != nil || errB != nil {
		t.Fatalf("%v %v", errA, errB)
	}
	if a.Size() != b.Size() {
		t.Fatalf("Result mutated state: %d vs %d", a.Size(), b.Size())
	}
}

func TestBytesIndependentOfStreamLength(t *testing.T) {
	ps, _ := testMixture(6, 3000)
	o := goodGuess(ps, 3)
	s, err := New(Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 10}})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Bytes()
	for _, p := range ps {
		s.Insert(p)
	}
	if s.Bytes() != before {
		t.Fatalf("space grew with stream: %d → %d", before, s.Bytes())
	}
	if before <= 0 {
		t.Fatal("Bytes must be positive")
	}
}

func TestTinySketchFailsCleanly(t *testing.T) {
	ps, _ := testMixture(7, 3000)
	o := goodGuess(ps, 3)
	s, err := New(Config{
		Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 11},
		CellSparsity: 4, PointSparsity: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s.Insert(p)
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("starved sketches must FAIL, not fabricate a coreset")
	} else if !errors.Is(err, ErrSketchFail) && !errors.Is(err, ErrPlanFail) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

func TestFullCancellationEmptyCoreset(t *testing.T) {
	ps, _ := testMixture(8, 500)
	s, err := New(Config{Dim: 2, Delta: testDelta, O: 1024, Params: coreset.Params{K: 3, Seed: 12}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s.Insert(p)
	}
	for _, p := range ps {
		s.Delete(p)
	}
	if s.N() != 0 {
		t.Fatalf("N = %d", s.N())
	}
	cs, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Size() != 0 {
		t.Fatalf("empty set must give empty coreset, got %d points", cs.Size())
	}
}

func TestOverDeletionDetected(t *testing.T) {
	s, err := New(Config{Dim: 2, Delta: 16, O: 4, Params: coreset.Params{K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s.Delete(geo.Point{3, 3})
	if _, err := s.Result(); err == nil {
		t.Fatal("negative net count must error")
	}
}

func TestApplyOps(t *testing.T) {
	s, err := New(Config{Dim: 2, Delta: 64, O: 16, Params: coreset.Params{K: 2, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{P: geo.Point{1, 1}}, {P: geo.Point{2, 2}},
		{P: geo.Point{1, 1}, Delete: true},
	}
	s.Apply(ops)
	if s.N() != 1 {
		t.Fatalf("N = %d, want 1", s.N())
	}
}

func TestDimMismatchPanics(t *testing.T) {
	s, err := New(Config{Dim: 2, Delta: 16, O: 4, Params: coreset.Params{K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Insert(geo.Point{1, 2, 3})
}

// TestApplyBadDimLeavesStateUntouched: a batch with one malformed op
// must panic on the caller's goroutine before any state moves — the
// cost bound included — so a recovered caller still holds
// the state it had before the call.
func TestApplyBadDimLeavesStateUntouched(t *testing.T) {
	bad := []Op{{P: geo.Point{5, 6}}, {P: geo.Point{7}}, {P: geo.Point{8, 9}}}
	good := []Op{{P: geo.Point{1, 2}}, {P: geo.Point{3, 4}}}
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: malformed batch did not panic", label)
			}
		}()
		f()
	}

	a, err := NewAuto(Config{Dim: 2, Delta: 16, Params: coreset.Params{K: 2, Seed: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	a.Apply(good)
	digest, n, cbN := a.StateDigest(), a.n, a.costBound.N()
	mustPanic("Auto.Apply", func() { a.Apply(bad) })
	mustPanic("Auto.Insert", func() { a.Insert(geo.Point{7}) })
	mustPanic("Auto.Delete", func() { a.Delete(geo.Point{1, 2, 3}) })
	if a.StateDigest() != digest || a.n != n || a.costBound.N() != cbN {
		t.Fatalf("Auto state moved: digest %x→%x, N %d→%d, cost bound N %d→%d",
			digest, a.StateDigest(), n, a.n, cbN, a.costBound.N())
	}

	s, err := New(Config{Dim: 2, Delta: 16, O: 4, Params: coreset.Params{K: 2, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(good)
	digest, n = s.StateDigest(), s.N()
	mustPanic("Stream.Apply", func() { s.Apply(bad) })
	if s.StateDigest() != digest || s.N() != n {
		t.Fatalf("Stream state moved: digest %x→%x, N %d→%d", digest, s.StateDigest(), n, s.N())
	}
}

func TestAutoSelectsWorkingGuess(t *testing.T) {
	ps, truec := testMixture(9, 2000)
	a, err := NewAuto(Config{
		Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 13},
		CellSparsity: 512, PointSparsity: 2048,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Guesses()) < 5 {
		t.Fatalf("suspiciously few guesses: %d", len(a.Guesses()))
	}
	for _, p := range ps {
		a.Insert(p)
	}
	cs, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	ws := geo.UnitWeights(ps)
	full := assign.UnconstrainedCost(ws, truec, 2)
	core := assign.UnconstrainedCost(cs.Points, truec, 2)
	if ratio := core / full; ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("auto-selected guess gives cost ratio %v", ratio)
	}
	if a.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
}

func TestAutoWithDeletions(t *testing.T) {
	psA, truec := testMixture(10, 1500)
	rng := rand.New(rand.NewSource(11))
	psB := workload.UniformBox(rng, 1500, 2, testDelta)
	a, err := NewAuto(Config{
		Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 14},
		CellSparsity: 512, PointSparsity: 2048,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range psA {
		a.Insert(psA[i])
		a.Insert(psB[i])
	}
	for _, p := range psB {
		a.Delete(p)
	}
	cs, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	ws := geo.UnitWeights(psA)
	full := assign.UnconstrainedCost(ws, truec, 2)
	core := assign.UnconstrainedCost(cs.Points, truec, 2)
	if ratio := core / full; ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("auto after deletions: cost ratio %v", ratio)
	}
}

// TestForkMergeEquivalentToSinglePass: a stream split in two halves, as
// two forks would take it, replayed per-op half after half — with a
// deletion that arrives before its insertion — must give the coreset
// of a single pass over the stream.
func TestForkMergeEquivalentToSinglePass(t *testing.T) {
	ps, _ := testMixture(20, 2000)
	o := goodGuess(ps, 3)
	cfg := Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 21}}

	// Single pass over everything.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		ref.Insert(p)
	}

	// Even-indexed points, then a deletion whose insertion comes last,
	// then the odd-indexed points.
	main, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ps); i += 2 {
		main.Insert(ps[i])
	}
	main.Delete(geo.Point{7, 7})
	for i := 1; i < len(ps); i += 2 {
		main.Insert(ps[i])
	}
	main.Insert(geo.Point{7, 7})

	if main.N() != ref.N() {
		t.Fatalf("N: %d vs %d", main.N(), ref.N())
	}
	if main.StateDigest() != ref.StateDigest() {
		t.Fatal("replayed state diverged from single pass")
	}
	a, errA := ref.Result()
	b, errB := main.Result()
	if errA != nil || errB != nil {
		t.Fatalf("results: %v %v", errA, errB)
	}
	ma := map[string]float64{}
	for _, wp := range a.Points {
		ma[wp.P.String()] += wp.W
	}
	mb := map[string]float64{}
	for _, wp := range b.Points {
		mb[wp.P.String()] += wp.W
	}
	if len(ma) != len(mb) {
		t.Fatalf("coresets differ: %d vs %d points", len(ma), len(mb))
	}
	for k, v := range ma {
		if math.Abs(mb[k]-v) > 1e-9 {
			t.Fatalf("weight mismatch at %s", k)
		}
	}
}

// TestParallelForkMergeIngestion: four round-robin shards of a stream,
// each applied as one batch (whose sketches Apply updates in parallel),
// must reach the state of one serial Apply, and its coreset must keep
// the clustering cost.
func TestParallelForkMergeIngestion(t *testing.T) {
	ps, truec := testMixture(22, 3000)
	o := goodGuess(ps, 3)
	cfg := Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 23}}
	main, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = Op{P: p}
	}
	ref.Apply(ops)
	const shards = 4
	for si := 0; si < shards; si++ {
		var shard []Op
		for i := si; i < len(ops); i += shards {
			shard = append(shard, ops[i])
		}
		main.Apply(shard)
	}
	if main.StateDigest() != ref.StateDigest() {
		t.Fatal("sharded replay diverged from one serial Apply")
	}
	cs, err := main.Result()
	if err != nil {
		t.Fatal(err)
	}
	ws := geo.UnitWeights(ps)
	full := assign.UnconstrainedCost(ws, truec, 2)
	core := assign.UnconstrainedCost(cs.Points, truec, 2)
	if r := core / full; r < 0.7 || r > 1.3 {
		t.Fatalf("sharded ingestion cost ratio %v", r)
	}
}

// TestAutoInsertOnlyGuessSelection: on an insert-only stream Auto.Result
// must select the smallest guess at most a quarter of the cost bound's
// upper bound whose own extraction is weight-sane — recomputed here
// guess by guess — and that coreset must keep the clustering cost.
func TestAutoInsertOnlyGuessSelection(t *testing.T) {
	ps, truec := testMixture(30, 2500)
	a, err := NewAuto(Config{
		Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 31},
		CellSparsity: 512, PointSparsity: 2048,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		a.Insert(p)
	}
	cs, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	upper := a.costBound.UpperBound(3)
	if upper <= 0 {
		t.Fatalf("cost bound gave no upper bound (%v)", upper)
	}
	want := math.NaN()
	for i, o := range a.guesses {
		if o > upper/4 {
			break
		}
		if gc, err := a.streams[i].resultWith(1); err == nil && weightSane(gc.TotalWeight(), a.n) {
			want = o
			break
		}
	}
	if cs.O != want {
		t.Fatalf("auto-selected o=%v, want the smallest weight-sane guess ≤ %v: %v", cs.O, upper/4, want)
	}
	ws := geo.UnitWeights(ps)
	full := assign.UnconstrainedCost(ws, truec, 2)
	core := assign.UnconstrainedCost(cs.Points, truec, 2)
	if r := core / full; r < 0.7 || r > 1.3 {
		t.Fatalf("cost ratio %v", r)
	}
}

func TestStreamHigherDimension(t *testing.T) {
	// d = 4 smoke: the machinery is dimension-generic.
	rng := rand.New(rand.NewSource(40))
	ps, truec := workload.Mixture{N: 1500, D: 4, Delta: 256, K: 3, Spread: 5}.Generate(rng)
	est := solve.EstimateOPT(rng, geo.UnitWeights(ps), 3, 2, 256, 2)
	s, err := New(Config{
		Dim: 4, Delta: 256, O: math.Max(1, est/4),
		Params: coreset.Params{K: 3, Seed: 41},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s.Insert(p)
	}
	cs, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	full := assign.UnconstrainedCost(geo.UnitWeights(ps), truec, 2)
	core := assign.UnconstrainedCost(cs.Points, truec, 2)
	if r := core / full; r < 0.7 || r > 1.3 {
		t.Fatalf("d=4 cost ratio %v", r)
	}
}

func TestStreamConservativeParams(t *testing.T) {
	// Conservative constants (λ = 4096-degree hashes, φ = 1 everywhere)
	// must work end to end on a small stream: the coreset is the entire
	// surviving multiset.
	ps, _ := testMixture(42, 300)
	o := goodGuess(ps, 3)
	s, err := New(Config{
		Dim: 2, Delta: testDelta, O: o,
		Params:        coreset.Params{K: 3, Seed: 43, Conservative: true},
		PointSparsity: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s.Insert(p)
	}
	cs, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cs.TotalWeight()-300) > 1e-9 {
		t.Fatalf("conservative stream must keep everything: weight %v", cs.TotalWeight())
	}
}
