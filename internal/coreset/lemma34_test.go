package coreset

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"streambalance/internal/assign"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/partition"
	"streambalance/internal/solve"
)

// exactPart is the offline plan step's partition (r = 2) for guess o
// over the exact cell counts of ps.
func exactPart(t *testing.T, ps geo.PointSet, g *grid.Grid, o float64, counts [][]partition.Cell) *partition.Partition {
	t.Helper()
	p, err := Params{K: 4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	q, err := exactQuery(ps, g, p, o, counts)
	if err != nil {
		t.Fatal(err)
	}
	return q.Part
}

// TestLemma34SmallPartRemoval verifies the conclusion of Lemma 3.4 on
// real partitions: let QN be the union of all parts with
// τ(Q_{i,j}) ≤ 2γ·T_i(o). Then for every capacity t and center set Z,
//
//	cost_t(Q \ QN, Z)       ≤ cost_t(Q, Z)               (monotonicity)
//	cost_{(1+η)t}(Q, Z)     ≤ (1+ε)·cost_t(Q \ QN, Z)    (small loss)
//
// with ε, η the parameters γ was derived from. The second inequality is
// the one the coreset construction leans on when it drops small parts.
func TestLemma34SmallPartRemoval(t *testing.T) {
	ps, truec := mixture(61, 1600)
	p, err := Params{K: 4, Eps: 0.3, Eta: 0.3, Seed: 5}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := grid.New(geo.MaxCoordRange(ps), 2, rng)
	o := GuessO(ps, p, rng, g.Delta)
	counts := partition.ExactCounts(g, ps)
	part := exactPart(t, ps, g, o, counts)
	// With the real γ, 2γ·T_i(o) sits below one point at every level for
	// instances of this scale, so the construction removes nothing (the
	// lemma is vacuously safe). To exercise the lemma's MECHANISM — parts
	// small relative to their heavy parent can be dropped because enough
	// survivors remain within the parent cell's diameter — we remove
	// every part holding at most 30% of its parent's mass, capped at
	// η·n/k points total (the |QN| bound of Claim A.2).
	// A part's parent is a heavy CELL; its mass (from the exact counts at
	// the parent's level) includes the mass that continues into heavy
	// children — the survivors that make removal cheap.
	parentMass := func(id partition.PartID) float64 {
		cells := counts[id.Level-1+1]
		i, _ := slices.BinarySearchFunc(cells, id.Parent, func(c partition.Cell, k uint64) int { return cmp.Compare(c.Key, k) })
		return cells[i].Tau
	}
	budget := p.Eta * float64(len(ps)) / float64(p.K)
	removable := map[partition.PartID]bool{}
	for id, pt := range part.Parts {
		if pt.Tau <= 0.3*parentMass(id) && pt.Tau <= budget {
			removable[id] = true
			budget -= pt.Tau
		}
	}
	var kept geo.PointSet
	removed := 0
	for _, q := range ps {
		id, ok := part.PartOf(q)
		if ok && !removable[id] {
			kept = append(kept, q)
		} else {
			removed++
		}
	}
	if removed == 0 {
		t.Skip("no removable small parts on this draw — nothing to verify")
	}
	if float64(removed) > p.Eta*float64(len(ps))/float64(p.K)+1 {
		t.Fatalf("removed %d of %d points — beyond the Claim A.2 budget", removed, len(ps))
	}

	n := float64(len(ps))
	wsAll := geo.UnitWeights(ps)
	wsKept := geo.UnitWeights(kept)
	for trial := 0; trial < 2; trial++ {
		Z := truec
		if trial == 1 {
			Z = solve.SeedKMeansPP(rng, wsAll, 4, 2)
		}
		for _, tf := range []float64{1.1, 2.0} {
			tcap := tf * n / 4
			full, _, ok1 := assign.FractionalCost(wsAll, Z, tcap, 2)
			keptCost, _, ok2 := assign.FractionalCost(wsKept, Z, tcap, 2)
			if !ok1 || !ok2 {
				t.Fatalf("infeasible at t=%v", tcap)
			}
			if keptCost > full+1e-6*(1+full) {
				t.Fatalf("monotonicity violated: removing points increased cost_t (%v > %v)",
					keptCost, full)
			}
			fullRelaxed, _, ok3 := assign.FractionalCost(wsAll, Z, (1+p.Eta)*tcap, 2)
			if !ok3 {
				t.Fatal("relaxed infeasible")
			}
			if fullRelaxed > (1+p.Eps)*keptCost+1e-6 {
				t.Fatalf("Lemma 3.4 bound violated at t=%v: cost_{(1+η)t}(Q)=%v > (1+ε)·cost_t(Q\\QN)=%v",
					tcap, fullRelaxed, (1+p.Eps)*keptCost)
			}
		}
	}
	// The removed parts' movement mass (points × parent-cell diameter^r,
	// the quantity the lemma's proof charges) must stay comparable to o.
	var movedMass float64
	for id := range removable {
		pt := part.Parts[id]
		diam := part.Grid.Diameter(id.Level - 1)
		movedMass += pt.Tau * geo.PowR(diam, 2)
	}
	if movedMass > 100*o {
		t.Fatalf("removed parts carry movement mass %v ≫ o=%v", movedMass, o)
	}
}

func TestLemma33HeavyCellBoundScalesWithO(t *testing.T) {
	// Lemma 3.3: heavy cells ≤ C·(k + d^{1.5r})·L·(OPT/o): halving o can
	// only increase the count, and the growth from o to o/8 is bounded by
	// ≈ 8× (up to the partition's integrality effects).
	ps, _ := mixture(62, 3000)
	rng := rand.New(rand.NewSource(3))
	g := grid.New(geo.MaxCoordRange(ps), 2, rng)
	counts := partition.ExactCounts(g, ps)
	p, _ := Params{K: 4, Seed: 3}.withDefaults()
	o := GuessO(ps, p, rng, g.Delta)

	hc := func(oo float64) int {
		return exactPart(t, ps, g, oo, counts).HeavyCount()
	}
	base := hc(o)
	eighth := hc(o / 8)
	if eighth < base {
		t.Fatalf("smaller o must not decrease heavy cells: %d vs %d", eighth, base)
	}
	if base > 0 && float64(eighth) > 40*float64(base)+40 {
		t.Fatalf("heavy cells grew %d → %d for o/8 — far beyond the Lemma 3.3 scaling", base, eighth)
	}
}

func TestFactA1RootHeavyWhenOBelowOPT(t *testing.T) {
	// Fact A.1: o ≤ OPT ⇒ the G_{-1} root cell is heavy.
	ps, _ := mixture(63, 1000)
	rng := rand.New(rand.NewSource(4))
	g := grid.New(geo.MaxCoordRange(ps), 2, rng)
	counts := partition.ExactCounts(g, ps)
	// A certified lower bound stand-in: any o below n·(min spacing)… use
	// a tiny o, trivially ≤ OPT for non-degenerate data.
	part := exactPart(t, ps, g, 16, counts)
	if !part.IsHeavy(grid.MinLevel, g.CellKey(ps[0], grid.MinLevel)) {
		t.Fatal("root not heavy despite o ≪ OPT")
	}
	if _, ok := part.PartOf(ps[0]); !ok {
		t.Fatal("point uncovered despite heavy root")
	}
	_ = math.Inf // keep math import meaningful if edits drop other uses
}
