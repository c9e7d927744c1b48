package coreset

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/assign"
	"streambalance/internal/geo"
	"streambalance/internal/solve"
)

func buildRuleFixture(t *testing.T, n int) (geo.PointSet, []geo.Point, *Coreset) {
	t.Helper()
	ps, truec := mixture(21, n)
	cs, err := Build(ps, Params{K: 4, Seed: 3, Eta: 0.2, Eps: 0.2, SamplesPerPart: 128})
	if err != nil {
		t.Fatal(err)
	}
	return ps, truec, cs
}

func TestAssignmentRuleCoversAllPointsAndRespectsCapacity(t *testing.T) {
	ps, truec, cs := buildRuleFixture(t, 2500)
	n := float64(len(ps))
	tPrime := 1.2 * math.Max(cs.TotalWeight(), n) / 4

	rule, err := cs.BuildAssignmentRule(truec, tPrime)
	if err != nil {
		t.Fatal(err)
	}
	pi, cost, sizes := rule.Apply(ps)
	for i, a := range pi {
		if a < 0 || a >= 4 {
			t.Fatalf("point %d unassigned: %d", i, a)
		}
	}
	if cost <= 0 {
		t.Fatal("zero cost on non-degenerate data")
	}
	// Capacity: ‖s(π)‖_∞ ≤ (1+O(η))·t′. η = 0.2; allow the O(·) constant
	// up to 2η plus rounding slack.
	if maxS := MaxSize(sizes); maxS > (1+0.5)*tPrime {
		t.Fatalf("size vector %v exceeds (1+O(η))t' = %v", sizes, (1+0.5)*tPrime)
	}
	var tot float64
	for _, s := range sizes {
		tot += s
	}
	if tot != n {
		t.Fatalf("sizes sum %v, want %v", tot, n)
	}
}

func TestAssignmentRuleCostNearOptimal(t *testing.T) {
	ps, truec, cs := buildRuleFixture(t, 2000)
	n := float64(len(ps))
	tPrime := 1.3 * math.Max(cs.TotalWeight(), n) / 4

	rule, err := cs.BuildAssignmentRule(truec, tPrime)
	if err != nil {
		t.Fatal(err)
	}
	_, cost, sizes := rule.Apply(ps)

	// Reference: the optimal capacitated assignment of the FULL data at
	// the relaxed capacity the rule is allowed.
	eng := assign.NewSolver()
	eng.BindPoints(ps, 2)
	eng.SetCenters(truec)
	ref, ok := eng.Optimal(MaxSize(sizes) + 1)
	if !ok {
		t.Fatal("reference infeasible")
	}
	if cost > 1.5*ref.Cost {
		t.Fatalf("rule cost %v vs optimal-at-same-capacity %v (>1.5×)", cost, ref.Cost)
	}
	// And the rule cost must track the coreset's own assignment cost
	// (§3.3: within (1+O(ε))).
	if rule.CoresetCost <= 0 {
		t.Fatal("coreset assignment cost not recorded")
	}
	if cost > 2*rule.CoresetCost+1e-9 || rule.CoresetCost > 2*cost {
		t.Fatalf("rule cost %v and coreset cost %v diverge", cost, rule.CoresetCost)
	}
}

func TestAssignmentRuleInfeasibleCapacity(t *testing.T) {
	_, truec, cs := buildRuleFixture(t, 1200)
	if _, err := cs.BuildAssignmentRule(truec, 1); err == nil {
		t.Fatal("capacity 1 must be infeasible")
	}
}

func TestAssignmentRuleBeatsNearestUnderTightCapacity(t *testing.T) {
	// On an imbalanced instance with tight capacity, the rule must
	// produce a MORE balanced size vector than nearest-center assignment.
	ps, _ := mixture(22, 2200)
	cs, err := Build(ps, Params{K: 4, Seed: 5, SamplesPerPart: 128})
	if err != nil {
		t.Fatal(err)
	}
	ws := geo.UnitWeights(ps)
	rng := rand.New(rand.NewSource(9))
	Z := solve.SeedKMeansPP(rng, ws, 4, 2)

	n := float64(len(ps))
	tPrime := 1.1 * math.Max(cs.TotalWeight(), n) / 4
	rule, err := cs.BuildAssignmentRule(Z, tPrime)
	if err != nil {
		t.Fatal(err)
	}
	_, _, sizes := rule.Apply(ps)

	nearest := make([]float64, 4)
	for _, p := range ps {
		_, j := geo.DistToSet(p, Z)
		nearest[j]++
	}
	if MaxSize(sizes) > MaxSize(nearest)+1e-9 {
		t.Fatalf("rule peak load %v not better than nearest-center %v under tight capacity",
			MaxSize(sizes), MaxSize(nearest))
	}
}

func TestAssignmentRuleErrors(t *testing.T) {
	cs := &Coreset{} // no partition metadata
	if _, err := cs.BuildAssignmentRule([]geo.Point{{1, 1}}, 10); err == nil {
		t.Fatal("missing metadata must error")
	}
	_, _, full := buildRuleFixture(t, 800)
	if _, err := full.BuildAssignmentRule(nil, 10); err == nil {
		t.Fatal("no centers must error")
	}
}
