package streambalance_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"streambalance"
	"streambalance/internal/workload"
)

func mixture(seed int64, n int) ([]streambalance.Point, []streambalance.Point) {
	rng := rand.New(rand.NewSource(seed))
	m := workload.Mixture{N: n, D: 2, Delta: 1 << 10, K: 3, Spread: 8, Skew: 2, NoiseFrac: 0.05}
	ps, truec := m.Generate(rng)
	return ps, truec
}

func unit(ps []streambalance.Point) []streambalance.Weighted {
	ws := make([]streambalance.Weighted, len(ps))
	for i, p := range ps {
		ws[i] = streambalance.Weighted{P: p, W: 1}
	}
	return ws
}

func TestPublicOfflinePipeline(t *testing.T) {
	ps, truec := mixture(1, 3000)
	cs, err := streambalance.BuildCoreset(ps, streambalance.Params{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Size() == 0 {
		t.Fatal("empty coreset")
	}
	full := streambalance.UnconstrainedCost(unit(ps), truec, 2)
	core := streambalance.UnconstrainedCost(cs.Points, truec, 2)
	if r := core / full; r < 0.8 || r > 1.2 {
		t.Fatalf("cost ratio %v", r)
	}
	// Solve on the coreset, evaluate on the full data.
	tcap := 1.2 * float64(len(ps)) / 3
	sol, ok := streambalance.SolveCapacitated(cs.Points, 3, tcap*1.3, streambalance.SolveOptions{Seed: 1})
	if !ok {
		t.Fatal("solve infeasible")
	}
	fullCapAtSol := streambalance.CapacitatedCost(unit(ps), sol.Centers, tcap*1.6, 2)
	if math.IsInf(fullCapAtSol, 1) {
		t.Fatal("solution infeasible on full data at relaxed capacity")
	}
	ref := streambalance.CapacitatedCost(unit(ps), truec, tcap, 2)
	if fullCapAtSol > 3*ref {
		t.Fatalf("coreset-derived solution cost %v far above reference %v", fullCapAtSol, ref)
	}
}

func TestPublicStreamingPipeline(t *testing.T) {
	ps, truec := mixture(2, 2500)
	est, err := streambalance.EstimateOPT(ps, 3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := streambalance.NewStream(streambalance.StreamConfig{
		Dim: 2, Delta: 1 << 10, O: streambalance.GuessFromEstimate(est),
		Params: streambalance.Params{K: 3, Seed: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		s.Insert(p)
		if i%5 == 0 { // churn
			s.Insert(streambalance.Point{1, 1})
			s.Delete(streambalance.Point{1, 1})
		}
	}
	cs, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	full := streambalance.UnconstrainedCost(unit(ps), truec, 2)
	core := streambalance.UnconstrainedCost(cs.Points, truec, 2)
	if r := core / full; r < 0.7 || r > 1.3 {
		t.Fatalf("stream cost ratio %v", r)
	}
}

func TestPublicDistributedPipeline(t *testing.T) {
	ps, truec := mixture(3, 3000)
	machines := make([][]streambalance.Point, 4)
	for i, p := range ps {
		machines[i%4] = append(machines[i%4], p)
	}
	rep, err := streambalance.DistributedCoreset(machines, streambalance.DistConfig{
		Dim: 2, Delta: 1 << 10, Params: streambalance.Params{K: 3, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bits <= 0 || rep.Coreset.Size() == 0 {
		t.Fatalf("bits=%d size=%d", rep.Bits, rep.Coreset.Size())
	}
	full := streambalance.UnconstrainedCost(unit(ps), truec, 2)
	core := streambalance.UnconstrainedCost(rep.Coreset.Points, truec, 2)
	if r := core / full; r < 0.7 || r > 1.3 {
		t.Fatalf("distributed cost ratio %v", r)
	}
}

func TestAssignCapacitated(t *testing.T) {
	ws := unit([]streambalance.Point{{1, 1}, {2, 2}, {99, 99}, {98, 98}})
	centers := []streambalance.Point{{1, 1}, {99, 99}}
	asg, cost, ok := streambalance.AssignCapacitated(ws, centers, 2, 2)
	if !ok {
		t.Fatal("infeasible")
	}
	if asg[0] != 0 || asg[1] != 0 || asg[2] != 1 || asg[3] != 1 {
		t.Fatalf("assignment %v", asg)
	}
	if cost != 2+2 {
		t.Fatalf("cost %v", cost)
	}
	// Balanced constraint forces a split.
	asg2, cost2, ok := streambalance.AssignCapacitated(ws, []streambalance.Point{{1, 1}, {2, 2}}, 2, 2)
	if !ok {
		t.Fatal("infeasible 2")
	}
	if cost2 <= cost {
		t.Fatalf("forcing far assignment must cost more: %v vs %v", cost2, cost)
	}
	counts := map[int]int{}
	for _, a := range asg2 {
		counts[a]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("capacity violated: %v", counts)
	}
}

func TestCapacitatedCostInfeasible(t *testing.T) {
	ws := unit([]streambalance.Point{{1, 1}, {2, 2}, {3, 3}})
	if !math.IsInf(streambalance.CapacitatedCost(ws, []streambalance.Point{{1, 1}}, 2, 2), 1) {
		t.Fatal("want +Inf for infeasible capacity")
	}
}

func TestGuessFromEstimate(t *testing.T) {
	if streambalance.GuessFromEstimate(0.5) != 1 {
		t.Fatal("floor at 1")
	}
	if streambalance.GuessFromEstimate(4096*4+1) != 4096 {
		t.Fatalf("got %v", streambalance.GuessFromEstimate(4096*4+1))
	}
}

// TestNewAutoStreamOFactor: a non-finite guess ratio must be rejected
// up front — it would otherwise build a one-guess ensemble whose Result
// is a bare ErrNoGuessSucceeded — while a finite ratio below 2 is raised
// to 2.
func TestNewAutoStreamOFactor(t *testing.T) {
	cfg := streambalance.StreamConfig{Dim: 2, Delta: 16, Params: streambalance.Params{K: 2, Seed: 1}}
	two, err := streambalance.NewAutoStream(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		oFactor float64
		wantErr bool
		guesses int // 0: not checked
	}{
		{oFactor: math.NaN(), wantErr: true},
		{oFactor: math.Inf(1), wantErr: true},
		{oFactor: math.Inf(-1), wantErr: true},
		{oFactor: -3, guesses: len(two.Guesses())},
		{oFactor: 0.5, guesses: len(two.Guesses())},
		{oFactor: 4},
	} {
		a, err := streambalance.NewAutoStream(cfg, tc.oFactor)
		switch {
		case tc.wantErr && err == nil:
			t.Fatalf("oFactor %v: no error, %d guesses", tc.oFactor, len(a.Guesses()))
		case !tc.wantErr && err != nil:
			t.Fatalf("oFactor %v: %v", tc.oFactor, err)
		case !tc.wantErr && len(a.Guesses()) < 2:
			t.Fatalf("oFactor %v: %d guesses", tc.oFactor, len(a.Guesses()))
		case tc.guesses != 0 && len(a.Guesses()) != tc.guesses:
			t.Fatalf("oFactor %v: %d guesses, want %d (raised to 2)", tc.oFactor, len(a.Guesses()), tc.guesses)
		}
	}
}

// TestEstimateOPTErrors: input no estimate can stand for — an empty or
// mixed-dimension point set, k < 1, or r that is not finite and ≥ 1 —
// is an error, not a panic or a meaningless number.
func TestEstimateOPTErrors(t *testing.T) {
	pts := []streambalance.Point{{1, 1}, {5, 9}, {12, 3}, {7, 7}}
	for _, tc := range []struct {
		name   string
		points []streambalance.Point
		k      int
		r      float64
	}{
		{"empty", nil, 2, 2},
		{"k=0", pts, 0, 2},
		{"k<0", pts, -1, 2},
		{"mixed dimensions", []streambalance.Point{{1, 1}, {2}}, 1, 2},
		{"zero dimensions", []streambalance.Point{{}, {}}, 1, 2},
		{"R=NaN", pts, 2, math.NaN()},
		{"R=+Inf", pts, 2, math.Inf(1)},
		{"R=-1", pts, 2, -1},
		{"R=0.5", pts, 2, 0.5},
	} {
		if est, err := streambalance.EstimateOPT(tc.points, tc.k, tc.r, 1); err == nil {
			t.Fatalf("%s: estimate %v, no error", tc.name, est)
		}
	}
	if est, err := streambalance.EstimateOPT(pts, 2, 1, 1); err != nil || !(est > 0) || math.IsInf(est, 0) {
		t.Fatalf("valid input: estimate %v, error %v", est, err)
	}
}

func TestReduceDimensionPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := workload.Mixture{N: 800, D: 96, Delta: 1 << 10, K: 3, Spread: 8}
	ps, truec := m.Generate(rng)
	dr, red, err := streambalance.ReduceDimension(ps, 3, 0.5, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dr.ReducedDim() >= 96 || dr.ReducedDim() < 4 {
		t.Fatalf("reduced dim %d", dr.ReducedDim())
	}
	if len(red) != len(ps) || len(red[0]) != dr.ReducedDim() {
		t.Fatal("reduced shape wrong")
	}
	cs, err := streambalance.BuildCoreset(red, streambalance.Params{K: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sol, ok := streambalance.SolveCapacitated(cs.Points, 3, 1.3*float64(len(ps))/3,
		streambalance.SolveOptions{Seed: 7, Delta: dr.ReducedDelta()})
	if !ok {
		t.Fatal("infeasible")
	}
	lifted := dr.LiftCenters(ps, sol.Centers)
	if len(lifted) != 3 || len(lifted[0]) != 96 {
		t.Fatal("lift shape wrong")
	}
	// The lifted centers must be competitive with the true centers in the
	// original space (uncapacitated check suffices for the pipeline).
	full := unit(ps)
	got := streambalance.UnconstrainedCost(full, lifted, 2)
	ref := streambalance.UnconstrainedCost(full, truec, 2)
	if got > 1.5*ref {
		t.Fatalf("lifted centers cost %v vs true-center cost %v", got, ref)
	}
}

func TestKCenterFacade(t *testing.T) {
	ps, _ := mixture(50, 300)
	sol, ok := streambalance.SolveCapacitatedKCenter(ps, 3, 110, 1)
	if !ok {
		t.Fatal("infeasible")
	}
	if sol.Cost <= 0 {
		t.Fatal("zero radius on spread data")
	}
	asg, radius, ok := streambalance.AssignBottleneck(ps, sol.Centers, 110)
	if !ok {
		t.Fatal("assign infeasible")
	}
	if radius > sol.Cost+1e-9 {
		t.Fatalf("oracle radius %v exceeds solver radius %v", radius, sol.Cost)
	}
	counts := map[int]int{}
	for _, a := range asg {
		counts[a]++
	}
	for j, c := range counts {
		if c > 110 {
			t.Fatalf("center %d over capacity: %d", j, c)
		}
	}
}

func TestSaveLoadCoreset(t *testing.T) {
	ps, _ := mixture(60, 1000)
	cs, err := streambalance.BuildCoreset(ps, streambalance.Params{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := streambalance.SaveCoreset(cs, &buf); err != nil {
		t.Fatal(err)
	}
	p, err := streambalance.LoadCoreset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Points) != cs.Size() || p.K != 3 {
		t.Fatalf("round trip: %d points, k=%d", len(p.Points), p.K)
	}
	// The loaded points are directly solvable.
	if _, ok := streambalance.SolveCapacitated(p.Points, p.K, 600, streambalance.SolveOptions{Seed: 1}); !ok {
		t.Fatal("loaded coreset not solvable")
	}
}

// TestStreamConfigRejectsBadSketchValues: a sketch size that no default
// can stand in for is an error at construction — before, negative
// sparsities built sketches with no recovery side. Zero still selects
// the default.
func TestStreamConfigRejectsBadSketchValues(t *testing.T) {
	base := streambalance.StreamConfig{Dim: 2, Delta: 64, Params: streambalance.Params{K: 2, Seed: 3},
		CellSparsity: 256, PointSparsity: 512}
	for _, tc := range []struct {
		name string
		set  func(c *streambalance.StreamConfig)
		ok   bool
	}{
		{"valid", func(c *streambalance.StreamConfig) { c.PointSparsity = 1024 }, true},
		{"defaults", func(c *streambalance.StreamConfig) { c.CellSparsity, c.PointSparsity = 0, 0 }, true},
		{"CellSparsity<0", func(c *streambalance.StreamConfig) { c.CellSparsity = -1 }, false},
		{"PointSparsity<0", func(c *streambalance.StreamConfig) { c.PointSparsity = -8 }, false},
	} {
		cfg := base
		tc.set(&cfg)
		single := cfg
		single.O = 1
		_, errS := streambalance.NewStream(single)
		a, errA := streambalance.NewAutoStream(cfg, 4)
		if tc.ok {
			if errS != nil || errA != nil {
				t.Fatalf("%s: NewStream %v, NewAutoStream %v", tc.name, errS, errA)
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 300; i++ {
				a.Insert(streambalance.Point{1 + rng.Int63n(64), 1 + rng.Int63n(64)})
			}
			if _, err := a.Result(); err != nil {
				t.Fatalf("%s: Result: %v", tc.name, err)
			}
			continue
		}
		if errS == nil || errA == nil {
			t.Fatalf("%s: NewStream %v, NewAutoStream %v; want errors from both", tc.name, errS, errA)
		}
	}
}

// TestDistConfigRejectsBadSketchValues: the distributed config takes
// zero-means-default sizes like the streaming one, with the same check;
// a negative cap or sample size is an error. Zero still selects the
// default.
func TestDistConfigRejectsBadSketchValues(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	machines := make([][]streambalance.Point, 4)
	for i := 0; i < 1200; i++ {
		machines[i%4] = append(machines[i%4], streambalance.Point{1 + rng.Int63n(256), 1 + rng.Int63n(256)})
	}
	base := streambalance.DistConfig{Dim: 2, Delta: 256, Params: streambalance.Params{K: 2, Seed: 3}}
	for _, tc := range []struct {
		name string
		set  func(c *streambalance.DistConfig)
		ok   bool
	}{
		{"valid", func(c *streambalance.DistConfig) {
			c.CellCap, c.PointCap, c.SampleSize = 2048, 4096, 100
		}, true},
		{"defaults", func(c *streambalance.DistConfig) {}, true},
		{"CellCap<0", func(c *streambalance.DistConfig) { c.CellCap = -1 }, false},
		{"PointCap<0", func(c *streambalance.DistConfig) { c.PointCap = -8 }, false},
		{"SampleSize<0", func(c *streambalance.DistConfig) { c.SampleSize = -200 }, false},
	} {
		cfg := base
		tc.set(&cfg)
		rep, err := streambalance.DistributedCoreset(machines, cfg)
		if !tc.ok {
			if err == nil {
				t.Fatalf("%s: DistributedCoreset returned a %d-point, weight %v coreset and no error",
					tc.name, rep.Coreset.Size(), rep.Coreset.TotalWeight())
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if w := rep.Coreset.TotalWeight(); rep.Coreset.Size() == 0 || w < 600 || w > 1800 {
			t.Fatalf("%s: %d-point coreset of weight %v for 1200 points", tc.name, rep.Coreset.Size(), w)
		}
	}
}

// TestFacadeRejectsBadInput: input no guess, grid or coreset can stand
// for is refused at the facade instead of yielding a silently wrong
// answer. Before, NewStream and DistributedCoreset took a NaN or infinite
// guess and returned a 0-point coreset; a point outside [1, Δ]^d was
// counted in N but vanished from the coreset; and BuildCoreset panicked
// on mixed dimensions. The streaming front-ends panic on a malformed op
// before any state changes (so the state digest, which folds in N, is
// untouched); every other entry point returns an error.
func TestFacadeRejectsBadInput(t *testing.T) {
	const delta = 256
	rng := rand.New(rand.NewSource(41))
	live := make([]streambalance.Point, 300)
	for i := range live {
		live[i] = streambalance.Point{1 + rng.Int63n(delta), 1 + rng.Int63n(delta)}
	}
	params := streambalance.Params{K: 2, Seed: 7}
	scfg := streambalance.StreamConfig{Dim: 2, Delta: delta, Params: params, O: 64}
	dcfg := streambalance.DistConfig{Dim: 2, Delta: delta, Params: params}
	// machines splits live over two machines and adds extra to machine 1.
	machines := func(extra streambalance.Point) [][]streambalance.Point {
		return [][]streambalance.Point{live[:150], append(append([]streambalance.Point{}, live[150:]...), extra)}
	}
	// rejects reports nil when op panics and leaves s's state, which
	// folds in its point count, as it was.
	rejects := func(s interface{ StateDigest() uint64 }, op func()) (err error) {
		digest := s.StateDigest()
		defer func() {
			if recover() == nil {
				err = errors.New("accepted")
			} else if s.StateDigest() != digest {
				err = errors.New("panicked after changing state")
			}
		}()
		op()
		return nil
	}
	newStream := func() *streambalance.Stream {
		s, err := streambalance.NewStream(scfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Apply(inserts(live))
		return s
	}
	newAuto := func() *streambalance.AutoStream {
		a, err := streambalance.NewAutoStream(scfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		a.Apply(inserts(live))
		return a
	}
	wantErr := func(err error, parts ...string) error {
		if err == nil {
			return errors.New("no error")
		}
		for _, p := range parts {
			if !strings.Contains(err.Error(), p) {
				return fmt.Errorf("error %q does not name %q", err, p)
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"NewStream O=NaN", func() error { c := scfg; c.O = math.NaN(); _, err := streambalance.NewStream(c); return wantErr(err) }},
		{"NewStream O=+Inf", func() error { c := scfg; c.O = math.Inf(1); _, err := streambalance.NewStream(c); return wantErr(err) }},
		{"DistributedCoreset O=NaN", func() error {
			c := dcfg
			c.O = math.NaN()
			_, err := streambalance.DistributedCoreset(machines(live[0]), c)
			return wantErr(err, "O")
		}},
		{"DistributedCoreset O=+Inf", func() error {
			c := dcfg
			c.O = math.Inf(1)
			_, err := streambalance.DistributedCoreset(machines(live[0]), c)
			return wantErr(err, "O")
		}},
		{"DistributedCoreset O<0", func() error {
			c := dcfg
			c.O = -4
			_, err := streambalance.DistributedCoreset(machines(live[0]), c)
			return wantErr(err, "O")
		}},
		{"Stream.Apply above Δ", func() error {
			s := newStream()
			return rejects(s, func() { s.Apply([]streambalance.Op{{P: live[0]}, {P: streambalance.Point{1000, 2}}}) })
		}},
		{"Stream.Insert below 1", func() error {
			s := newStream()
			return rejects(s, func() { s.Insert(streambalance.Point{-300, 2}) })
		}},
		{"Stream.Delete zero coordinate", func() error {
			s := newStream()
			return rejects(s, func() { s.Delete(streambalance.Point{0, 2}) })
		}},
		{"AutoStream.Apply above Δ", func() error {
			a := newAuto()
			return rejects(a, func() { a.Apply([]streambalance.Op{{P: streambalance.Point{257, 1}}}) })
		}},
		{"AutoStream.Insert below 1", func() error {
			a := newAuto()
			return rejects(a, func() { a.Insert(streambalance.Point{-300, 2}) })
		}},
		{"DistributedCoreset above Δ", func() error {
			_, err := streambalance.DistributedCoreset(machines(streambalance.Point{1000, 2}), dcfg)
			return wantErr(err, "machine 1", "(1000,2)")
		}},
		{"DistributedCoreset below 1", func() error {
			_, err := streambalance.DistributedCoreset(machines(streambalance.Point{-300, 2}), dcfg)
			return wantErr(err, "machine 1", "(-300,2)")
		}},
		{"DistributedCoreset wrong dimension", func() error {
			_, err := streambalance.DistributedCoreset([][]streambalance.Point{live, {{3, 2, 1}}}, dcfg)
			return wantErr(err, "machine 1", "(3,2,1)")
		}},
		{"BuildCoreset mixed dimensions", func() error {
			_, err := streambalance.BuildCoreset(append(append([]streambalance.Point{}, live...), streambalance.Point{3, 2, 1}), params)
			return wantErr(err, "(3,2,1)")
		}},
		{"BuildCoreset below 1", func() error {
			_, err := streambalance.BuildCoreset(append(append([]streambalance.Point{}, live...), streambalance.Point{-300, 2}), params)
			return wantErr(err, "(-300,2)")
		}},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			if err := tc.run(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}()
	}
}

// TestFacadeRejectsBadParams: a Params value no default can stand in for
// — a NaN, infinite or negative SamplesPerPart, a NaN Eps, Eta or R, an
// infinite R, a negative HashIndependence — is an error from every
// entry point, never a silent NaN-weight or empty coreset or a panic.
func TestFacadeRejectsBadParams(t *testing.T) {
	const delta = 256
	rng := rand.New(rand.NewSource(43))
	live := make([]streambalance.Point, 300)
	for i := range live {
		live[i] = streambalance.Point{1 + rng.Int63n(delta), 1 + rng.Int63n(delta)}
	}
	entries := []struct {
		name string
		run  func(p streambalance.Params) error
	}{
		{"BuildCoreset", func(p streambalance.Params) error {
			_, err := streambalance.BuildCoreset(live, p)
			return err
		}},
		{"NewStream", func(p streambalance.Params) error {
			_, err := streambalance.NewStream(streambalance.StreamConfig{Dim: 2, Delta: delta, Params: p, O: 64})
			return err
		}},
		{"NewAutoStream", func(p streambalance.Params) error {
			_, err := streambalance.NewAutoStream(streambalance.StreamConfig{Dim: 2, Delta: delta, Params: p}, 8)
			return err
		}},
		{"DistributedCoreset", func(p streambalance.Params) error {
			_, err := streambalance.DistributedCoreset([][]streambalance.Point{live[:150], live[150:]},
				streambalance.DistConfig{Dim: 2, Delta: delta, Params: p})
			return err
		}},
	}
	for _, tc := range []struct {
		name  string
		field string
		set   func(p *streambalance.Params)
	}{
		{"SamplesPerPart=NaN", "SamplesPerPart", func(p *streambalance.Params) { p.SamplesPerPart = math.NaN() }},
		{"SamplesPerPart=+Inf", "SamplesPerPart", func(p *streambalance.Params) { p.SamplesPerPart = math.Inf(1) }},
		{"SamplesPerPart=-Inf", "SamplesPerPart", func(p *streambalance.Params) { p.SamplesPerPart = math.Inf(-1) }},
		{"SamplesPerPart<0", "SamplesPerPart", func(p *streambalance.Params) { p.SamplesPerPart = -5 }},
		{"Eps=NaN", "Eps", func(p *streambalance.Params) { p.Eps = math.NaN() }},
		{"Eta=NaN", "Eta", func(p *streambalance.Params) { p.Eta = math.NaN() }},
		{"R=NaN", "R", func(p *streambalance.Params) { p.R = math.NaN() }},
		{"R=+Inf", "R", func(p *streambalance.Params) { p.R = math.Inf(1) }},
		{"HashIndependence<0", "HashIndependence", func(p *streambalance.Params) { p.HashIndependence = -3 }},
	} {
		for _, e := range entries {
			p := streambalance.Params{K: 2, Seed: 7}
			tc.set(&p)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s %s: panicked: %v", e.name, tc.name, r)
					}
				}()
				if err := e.run(p); err == nil || !strings.Contains(err.Error(), tc.field) {
					t.Errorf("%s %s: error %v, want one naming %s", e.name, tc.name, err, tc.field)
				}
			}()
		}
	}
}

func inserts(ps []streambalance.Point) []streambalance.Op {
	ops := make([]streambalance.Op, len(ps))
	for i, p := range ps {
		ops[i] = streambalance.Op{P: p}
	}
	return ops
}
