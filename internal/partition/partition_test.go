package partition

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
)

func setup(t *testing.T, delta int64, dim int, seed int64) *grid.Grid {
	t.Helper()
	return grid.New(delta, dim, rand.New(rand.NewSource(seed)))
}

func clusteredPoints(rng *rand.Rand, n int, delta int64) geo.PointSet {
	// Two tight clusters plus sparse noise — a shape with genuinely heavy
	// cells at several levels.
	ps := make(geo.PointSet, 0, n)
	centers := []geo.Point{{delta / 4, delta / 4}, {3 * delta / 4, 3 * delta / 4}}
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			ps = append(ps, geo.Point{1 + rng.Int63n(delta), 1 + rng.Int63n(delta)})
			continue
		}
		c := centers[i%2]
		p := geo.Point{
			clamp(c[0]+rng.Int63n(9)-4, delta),
			clamp(c[1]+rng.Int63n(9)-4, delta),
		}
		ps = append(ps, p)
	}
	return ps
}

func clamp(v, delta int64) int64 {
	if v < 1 {
		return 1
	}
	if v > delta {
		return delta
	}
	return v
}

// optUpper computes a valid uncapacitated k-clustering cost upper bound
// (k = 2 natural centers), usable as a legitimate o ≤ OPT after division.
func optUpper(ps geo.PointSet, r float64) float64 {
	Z := []geo.Point{{64, 64}, {192, 192}}
	var c float64
	for _, p := range ps {
		d, _ := geo.DistToSet(p, Z)
		c += geo.PowR(d, r)
	}
	return c
}

func TestThresholdMonotoneInLevel(t *testing.T) {
	g := setup(t, 256, 2, 1)
	for _, r := range []float64{1, 2} {
		prev := 0.0
		for level := -1; level <= g.L; level++ {
			th := ThresholdT(g, level, 1000, r)
			if th <= prev {
				t.Fatalf("T_i not increasing: level %d: %v ≤ %v", level, th, prev)
			}
			prev = th
		}
	}
}

func TestThresholdFormula(t *testing.T) {
	g := setup(t, 256, 4, 2)
	// T_i(o) = 0.01·o/(√d·g_i)^r with d=4, g_0=256, r=2: (2·256)² = 262144.
	want := 0.01 * 1e6 / (2 * 256 * 2 * 256)
	if got := ThresholdT(g, 0, 1e6, 2); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("T_0 = %v, want %v", got, want)
	}
}

func TestEveryPointInExactlyOnePart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := setup(t, 256, 2, 3)
	ps := clusteredPoints(rng, 600, 256)
	o := optUpper(ps, 2) / 4 // o ≤ OPT ⇒ root heavy (Fact A.1)
	p := Build(Input{Grid: g, R: 2, O: o, Counts: ExactCounts(g, ps)})

	// Exact per-part point counts via PartOf must match each part's Tau.
	got := map[PartID]float64{}
	for _, q := range ps {
		id, ok := p.PartOf(q)
		if !ok {
			t.Fatalf("point %v not covered by any part", q)
		}
		got[id]++
	}
	if len(got) == 0 {
		t.Fatal("no parts at all")
	}
	var sumTau float64
	for id, part := range p.Parts {
		if math.Abs(part.Tau-got[id]) > 1e-9 {
			t.Fatalf("part %+v: Tau %v but %v points map to it", id, part.Tau, got[id])
		}
		sumTau += part.Tau
	}
	if math.Abs(sumTau-float64(len(ps))) > 1e-9 {
		t.Fatalf("parts cover %v points, want %d", sumTau, len(ps))
	}
	for id := range got {
		if p.Parts[id] == nil {
			t.Fatalf("PartOf produced unknown part %+v", id)
		}
	}
}

func TestRootHeavyWithValidGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := setup(t, 256, 2, 4)
	ps := clusteredPoints(rng, 400, 256)
	o := optUpper(ps, 2) / 2
	p := Build(Input{Grid: g, R: 2, O: o, Counts: ExactCounts(g, ps)})
	rootKey := g.CellKey(ps[0], grid.MinLevel)
	if !p.IsHeavy(grid.MinLevel, rootKey) {
		t.Fatal("root cell must be heavy when o ≤ OPT (Fact A.1)")
	}
}

func TestHugeGuessFewerHeavyCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := setup(t, 256, 2, 5)
	ps := clusteredPoints(rng, 500, 256)
	small := Build(Input{Grid: g, R: 2, O: 100, Counts: ExactCounts(g, ps)})
	huge := Build(Input{Grid: g, R: 2, O: 1e12, Counts: ExactCounts(g, ps)})
	if huge.HeavyCount() >= small.HeavyCount() {
		t.Fatalf("heavy cells must shrink with o: %d (o huge) vs %d (o small)",
			huge.HeavyCount(), small.HeavyCount())
	}
	// With an absurdly large o the root fails the threshold: no part
	// contains anything.
	if huge.HeavyCount() == 0 {
		if _, ok := huge.PartOf(ps[0]); ok {
			t.Fatal("no heavy cells ⇒ PartOf must fail")
		}
	}
}

func TestHeavyCellBoundLemma33(t *testing.T) {
	// Lemma 3.3: with o ≈ OPT the number of heavy cells is
	// O((k + d^{1.5r})·L·OPT/o). We check the qualitative bound with a
	// generous constant.
	rng := rand.New(rand.NewSource(6))
	g := setup(t, 256, 2, 6)
	ps := clusteredPoints(rng, 800, 256)
	opt := optUpper(ps, 2) // an upper bound on OPT_2; use o = opt/10 ≤ OPT
	o := opt / 10
	p := Build(Input{Grid: g, R: 2, O: o, Counts: ExactCounts(g, ps)})
	k, d, L := 2.0, 2.0, float64(g.L)
	bound := 20000 * (k + math.Pow(d, 3)) * L // the Algorithm 2 FAIL budget
	if float64(p.HeavyCount()) > bound {
		t.Fatalf("heavy cells %d exceed the Algorithm 2 budget %v", p.HeavyCount(), bound)
	}
	if p.HeavyCount() == 0 {
		t.Fatal("expected at least the root to be heavy")
	}
}

func TestCrucialCellsHaveHeavyParentsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := setup(t, 128, 2, 7)
	ps := clusteredPoints(rng, 300, 128)
	p := Build(Input{Grid: g, R: 2, O: optUpper(ps, 2) / 5, Counts: ExactCounts(g, ps)})
	for id, part := range p.Parts {
		if !p.IsHeavy(id.Level-1, id.Parent) {
			t.Fatalf("part %+v: parent not heavy", id)
		}
		for i, key := range part.Keys {
			if id.Level <= g.L-1 && p.IsHeavy(id.Level, key) {
				t.Fatalf("part %+v contains a heavy (non-crucial) cell", id)
			}
			// Each crucial cell's parent must be the part's parent.
			if g.KeyOf(id.Level-1, grid.ParentIndex(part.Cells[i].Index)) != id.Parent {
				t.Fatalf("part %+v groups a cell with a different parent", id)
			}
		}
	}
}

func TestPartOfAgreesWithPartMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := setup(t, 128, 2, 8)
	ps := clusteredPoints(rng, 400, 128)
	p := Build(Input{Grid: g, R: 2, O: optUpper(ps, 2) / 3, Counts: ExactCounts(g, ps)})
	for _, q := range ps {
		id, ok := p.PartOf(q)
		if !ok {
			t.Fatalf("uncovered point %v", q)
		}
		// The crucial cell key of q at id.Level must be listed in the part.
		key := g.CellKey(q, id.Level)
		part := p.Parts[id]
		found := false
		for _, k := range part.Keys {
			if k == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("point %v's crucial cell missing from its part", q)
		}
	}
}

func TestSinglePointInput(t *testing.T) {
	g := setup(t, 16, 2, 9)
	ps := geo.PointSet{{5, 5}}
	// o tiny: every cell on the path is heavy (τ = 1 ≥ T for small T), so
	// the point lands in the level-L part.
	p := Build(Input{Grid: g, R: 2, O: 1e-6, Counts: ExactCounts(g, ps)})
	id, ok := p.PartOf(ps[0])
	if !ok {
		t.Fatal("point not covered")
	}
	if id.Level != g.L {
		t.Fatalf("expected the level-L part, got level %d", id.Level)
	}
}

func TestBadCountsLengthPanics(t *testing.T) {
	g := setup(t, 16, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(Input{Grid: g, R: 2, O: 1, Counts: make([]map[uint64]CellTau, 2)})
}

func TestTrivialUpperBoundO(t *testing.T) {
	g := setup(t, 16, 4, 11)
	// n·(√4·16)² = n·1024
	if got := TrivialUpperBoundO(10, g, 2); got != 10*1024 {
		t.Fatalf("TrivialUpperBoundO = %v", got)
	}
}

// PartAt must equal PartOf filtered by level, for every level (out-of-
// range ones included) and every query point — input points, fresh
// points of the domain, and points outside the root cell — over random
// BuildLazy partitions whose guesses run from "every level heavy" to "the
// root is light", with part masses from an independent subsample as in
// the streaming h′-substream.
func TestPartAtMatchesPartOf(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	levelsHit := map[int]bool{}
	outside := 0
	for trial := 0; trial < 40; trial++ {
		delta := int64(1) << (4 + rng.Intn(6))
		dim := 1 + rng.Intn(3)
		g := setup(t, delta, dim, int64(trial))
		ps := make(geo.PointSet, 50+rng.Intn(400))
		for i := range ps {
			p := make(geo.Point, dim)
			for j := range p {
				p[j] = 1 + rng.Int63n(delta)
			}
			if i > 0 && rng.Intn(3) == 0 {
				p = ps[rng.Intn(i)].Clone() // duplicates
			}
			ps[i] = p
		}
		counts := ExactCounts(g, ps)
		partCounts := ExactCounts(g, ps[:len(ps)/2])
		o := TrivialUpperBoundO(len(ps), g, 2) * math.Pow(2, -float64(rng.Intn(40)))
		part, err := BuildLazy(g, 2, o,
			func(level int) (map[uint64]CellTau, bool) { return counts[level+1], true },
			func(level int) (map[uint64]CellTau, bool) { return partCounts[level+1], true },
		)
		if err != nil {
			t.Fatal(err)
		}
		queries := append(geo.PointSet(nil), ps...)
		for i := 0; i < 100; i++ {
			q := make(geo.Point, dim)
			for j := range q {
				q[j] = 1 + rng.Int63n(delta)
				if i%4 == 0 {
					q[j] += 4 * delta // outside the heavy root
				}
			}
			queries = append(queries, q)
		}
		for _, q := range queries {
			want, wantOK := part.PartOf(q)
			if wantOK {
				levelsHit[want.Level] = true
			} else {
				outside++
			}
			for level := -2; level <= g.L+1; level++ {
				got, ok := part.PartAt(q, level)
				match := wantOK && want.Level == level
				if ok != match || (ok && got != want) {
					t.Fatalf("trial %d: q=%v level %d: PartAt=(%v,%v), PartOf=(%v,%v)",
						trial, q, level, got, ok, want, wantOK)
				}
			}
		}
	}
	if len(levelsHit) < 4 || outside == 0 {
		t.Fatalf("weak coverage: parts found at levels %v, %d queries outside every part", levelsHit, outside)
	}
}
