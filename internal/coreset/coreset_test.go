package coreset

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/assign"
	"streambalance/internal/geo"
	"streambalance/internal/solve"
	"streambalance/internal/workload"
)

func mixture(seed int64, n int) (geo.PointSet, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	m := workload.Mixture{N: n, D: 2, Delta: 1 << 13, K: 4, Spread: 30, Skew: 2, NoiseFrac: 0.05}
	return m.Generate(rng)
}

func TestParamsValidation(t *testing.T) {
	if _, err := Build(geo.PointSet{{1, 1}}, Params{K: 0}); err == nil {
		t.Fatal("K=0 must error")
	}
	if _, err := Build(geo.PointSet{{1, 1}}, Params{K: 2, Eps: 0.9}); err == nil {
		t.Fatal("Eps=0.9 must error")
	}
	if _, err := Build(geo.PointSet{{1, 1}}, Params{K: 2, Eta: -0.1}); err == nil {
		t.Fatal("Eta<0 must error")
	}
	if _, err := Build(geo.PointSet{{1, 1}}, Params{K: 2, R: 0.5}); err == nil {
		t.Fatal("R<1 must error")
	}
	if _, err := Build(nil, Params{K: 2}); err == nil {
		t.Fatal("empty input must error")
	}
}

func TestCoresetCompressesAndPreservesWeight(t *testing.T) {
	ps, _ := mixture(1, 20000)
	cs, err := Build(ps, Params{K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Size() == 0 {
		t.Fatal("empty coreset")
	}
	if cs.Size() >= len(ps)/2 {
		t.Fatalf("coreset %d barely compresses n=%d", cs.Size(), len(ps))
	}
	// Total weight is an unbiased estimator of n (up to excluded tiny
	// parts); demand 5%.
	if w := cs.TotalWeight(); math.Abs(w-float64(len(ps))) > 0.05*float64(len(ps)) {
		t.Fatalf("total weight %v vs n=%d", w, len(ps))
	}
	for i, wp := range cs.Points {
		if wp.W <= 0 {
			t.Fatalf("nonpositive weight at %d", i)
		}
		if !wp.P.InRange(cs.Grid.Delta) {
			t.Fatalf("point out of range: %v", wp.P)
		}
	}
	// Coreset points must be input points (subset property Q' ⊆ Q).
	in := make(map[string]bool, len(ps))
	for _, p := range ps {
		in[p.String()] = true
	}
	for _, wp := range cs.Points {
		if !in[wp.P.String()] {
			t.Fatalf("coreset point %v is not an input point", wp.P)
		}
	}
}

func TestCoresetDeterministicGivenSeed(t *testing.T) {
	ps, _ := mixture(2, 5000)
	a, err := Build(ps, Params{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ps, Params{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != b.Size() || a.O != b.O {
		t.Fatalf("nondeterministic: %d/%v vs %d/%v", a.Size(), a.O, b.Size(), b.O)
	}
	for i := range a.Points {
		if !a.Points[i].P.Equal(b.Points[i].P) || a.Points[i].W != b.Points[i].W {
			t.Fatalf("point %d differs", i)
		}
	}
	c, err := Build(ps, Params{K: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() == a.Size() {
		same := true
		for i := range c.Points {
			if !c.Points[i].P.Equal(a.Points[i].P) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical coresets")
		}
	}
}

func TestUnconstrainedCostPreserved(t *testing.T) {
	// cost^{(r)}(Q, Z) vs cost^{(r)}(Q', Z, w') over several center sets —
	// the t = ∞ specialization of the strong coreset property.
	ps, truec := mixture(3, 12000)
	ws := geo.UnitWeights(ps)
	cs, err := Build(ps, Params{K: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		var Z []geo.Point
		switch trial {
		case 0:
			Z = truec
		case 1: // perturbed true centers
			Z = make([]geo.Point, len(truec))
			for i, c := range truec {
				Z[i] = geo.Point{c[0] + rng.Int63n(101) - 50, c[1] + rng.Int63n(101) - 50}
			}
		default: // k-means++ draws
			Z = solve.SeedKMeansPP(rng, ws, 4, 2)
		}
		full := assign.UnconstrainedCost(ws, Z, 2)
		core := assign.UnconstrainedCost(cs.Points, Z, 2)
		if ratio := core / full; ratio < 0.8 || ratio > 1.2 {
			t.Fatalf("trial %d: unconstrained cost ratio %v outside [0.8, 1.2] (full %v, core %v)",
				trial, ratio, full, core)
		}
	}
}

func TestCapacitatedCostPreserved(t *testing.T) {
	// The headline property (Theorem 3.19): capacitated cost on the
	// coreset tracks the capacitated cost on the input, with an η-relaxed
	// capacity on the coreset side.
	ps, truec := mixture(4, 2500)
	ws := geo.UnitWeights(ps)
	cs, err := Build(ps, Params{K: 4, Seed: 13, Eps: 0.25, Eta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(ps))
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		var Z []geo.Point
		if trial == 0 {
			Z = truec
		} else {
			Z = solve.SeedKMeansPP(rng, ws, 4, 2)
		}
		for _, tFactor := range []float64{1.05, 1.5} {
			tcap := tFactor * n / 4
			full, _, ok := assign.FractionalCost(ws, Z, tcap, 2)
			if !ok {
				t.Fatalf("full instance infeasible at t=%v", tcap)
			}
			core, _, ok := assign.FractionalCost(cs.Points, Z, (1+0.25)*tcap, 2)
			if !ok {
				t.Fatalf("coreset infeasible at (1+η)t")
			}
			// cost_{(1+η)t}(Q',Z,w') ≤ (1+ε)cost_t(Q,Z): check with slack
			// 1.35 for sampling noise beyond the configured ε.
			if core > 1.35*full {
				t.Fatalf("trial %d t=%v: coreset capacitated cost %v ≫ full %v",
					trial, tcap, core, full)
			}
			// Reverse direction: cost on Q at (1+η)²t is below (1+ε)·coreset cost.
			fullRelaxed, _, _ := assign.FractionalCost(ws, Z, (1+0.25)*(1+0.25)*tcap, 2)
			if fullRelaxed > 1.35*core {
				t.Fatalf("trial %d t=%v: full relaxed cost %v ≫ coreset %v",
					trial, tcap, fullRelaxed, core)
			}
		}
	}
}

func TestSizeIndependentOfN(t *testing.T) {
	// Theorem 3.19: |Q'| = poly(kd log Δ), not poly(n). Growing n by 8×
	// must grow the coreset by far less.
	small, _ := mixture(5, 4000)
	big, _ := mixture(5, 32000)
	csSmall, err := Build(small, Params{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	csBig, err := Build(big, Params{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	growth := float64(csBig.Size()) / float64(csSmall.Size())
	if growth > 3 {
		t.Fatalf("coreset grew %.1f× for an 8× larger input (%d → %d)",
			growth, csSmall.Size(), csBig.Size())
	}
}

func TestDegenerateAllPointsIdentical(t *testing.T) {
	ps := make(geo.PointSet, 500)
	for i := range ps {
		ps[i] = geo.Point{7, 7}
	}
	cs, err := Build(ps, Params{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Size() != 1 {
		t.Fatalf("identical points must collapse to one weighted point, got %d", cs.Size())
	}
	if cs.Points[0].W != 500 {
		t.Fatalf("weight = %v, want 500 (multiplicity folding)", cs.Points[0].W)
	}
}

func TestKLocationsExactCoreset(t *testing.T) {
	// Points on exactly k locations: OPT = 0; the coreset must be the k
	// distinct weighted locations, exactly.
	ps := geo.PointSet{}
	locs := []geo.Point{{10, 10}, {1000, 1000}, {10, 1000}}
	counts := []int{100, 50, 25}
	for j, l := range locs {
		for i := 0; i < counts[j]; i++ {
			ps = append(ps, l.Clone())
		}
	}
	cs, err := Build(ps, Params{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Size() != 3 {
		t.Fatalf("size = %d, want 3", cs.Size())
	}
	got := map[string]float64{}
	for _, wp := range cs.Points {
		got[wp.P.String()] = wp.W
	}
	for j, l := range locs {
		if got[l.String()] != float64(counts[j]) {
			t.Fatalf("location %v weight %v, want %d", l, got[l.String()], counts[j])
		}
	}
}

func TestBuildForOFailsOnTinyBudgetGuess(t *testing.T) {
	// With conservative=false but an o so large the root cell is not
	// heavy, no part covers anything: BuildForO reports a nil coreset or
	// plan failure rather than a bogus result.
	ps, _ := mixture(6, 2000)
	cs, pl, err := BuildForO(ps, Params{K: 4, Seed: 1}, 1e30)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Failed() {
		return // acceptable: budgets rejected it
	}
	if cs != nil && cs.Size() > 0 {
		t.Fatal("absurd guess produced a non-empty coreset")
	}
}

func TestPlanPhiMonotoneInLevel(t *testing.T) {
	ps, _ := mixture(7, 3000)
	cs, err := Build(ps, Params{K: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(cs.Plan.Phi); i++ {
		if cs.Plan.Phi[i+1] > cs.Plan.Phi[i]+1e-12 {
			t.Fatalf("φ must be nonincreasing in level (T_i grows): φ[%d]=%v < φ[%d]=%v",
				i, cs.Plan.Phi[i], i+1, cs.Plan.Phi[i+1])
		}
	}
}

func TestGammaXiLambdaFormulas(t *testing.T) {
	p, err := Params{K: 3, R: 2, Eps: 0.2, Eta: 0.4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	d, L := 2, 10
	// practical γ = min(0.4/(3·10), 0.2/((3+8)·10)) = min(0.01333, 0.00182)
	if g := p.Gamma(d, L); math.Abs(g-0.2/(11*10)) > 1e-12 {
		t.Fatalf("Gamma = %v", g)
	}
	pc := p
	pc.Conservative = true
	if gc := pc.Gamma(d, L); math.Abs(gc-p.Gamma(d, L)*math.Exp2(-24)) > 1e-18 {
		t.Fatalf("conservative Gamma = %v", gc)
	}
	if p.Lambda(d, L) != 16 {
		t.Fatalf("practical Lambda = %d", p.Lambda(d, L))
	}
	if pc.Lambda(d, L) <= 1000 {
		t.Fatalf("conservative Lambda suspiciously small: %d", pc.Lambda(d, L))
	}
	if p.Phi(1e12, d, L) >= 1e-6 {
		t.Fatalf("Phi must shrink with T: %v", p.Phi(1e12, d, L))
	}
	if p.Phi(0, d, L) != 1 {
		t.Fatal("Phi(T=0) must be 1")
	}
	if pc.Phi(10, d, L) != 1 {
		t.Fatal("conservative Phi at small T must saturate at 1")
	}
}

func TestHeavyAndLevelBudgets(t *testing.T) {
	p, _ := Params{K: 2, R: 2}.withDefaults()
	d, L := 2, 8
	// 20000·(2+8)·8
	if got := p.HeavyBudget(d, L); got != 20000*10*8 {
		t.Fatalf("HeavyBudget = %v", got)
	}
	// 10000·(2·8+8)·T
	if got := p.LevelBudget(d, L, 2); got != 10000*24*2 {
		t.Fatalf("LevelBudget = %v", got)
	}
}
