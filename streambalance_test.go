package streambalance_test

import (
	"bytes"
	"math"
	"math/rand"
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

func TestEstimateOPTErrors(t *testing.T) {
	if _, err := streambalance.EstimateOPT(nil, 2, 2, 1); err == nil {
		t.Fatal("empty input must error")
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
