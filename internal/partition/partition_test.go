package partition

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
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

// exactBuild runs Algorithm 1 (r = 2) over the exact cell counts of ps,
// for heavy marking and part masses alike — the offline instantiation.
func exactBuild(t *testing.T, g *grid.Grid, o float64, ps geo.PointSet) *Partition {
	t.Helper()
	counts := ExactCounts(g, ps)
	exact := func(level int) ([]Cell, bool) { return counts[level+1], true }
	p, err := BuildLazy(g, 2, o, exact, exact)
	if err != nil {
		t.Fatal(err)
	}
	return p
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
	p := exactBuild(t, g, o, ps)

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
	p := exactBuild(t, g, o, ps)
	rootKey := g.CellKey(ps[0], grid.MinLevel)
	if !p.IsHeavy(grid.MinLevel, rootKey) {
		t.Fatal("root cell must be heavy when o ≤ OPT (Fact A.1)")
	}
}

func TestHugeGuessFewerHeavyCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := setup(t, 256, 2, 5)
	ps := clusteredPoints(rng, 500, 256)
	small := exactBuild(t, g, 100, ps)
	huge := exactBuild(t, g, 1e12, ps)
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
	p := exactBuild(t, g, o, ps)
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
	p := exactBuild(t, g, optUpper(ps, 2)/5, ps)
	crucial := crucialCells(p, ExactCounts(g, ps))
	if len(crucial) != len(p.Parts) {
		t.Fatalf("%d parts, but crucial cells under %d parents", len(p.Parts), len(crucial))
	}
	for id, part := range p.Parts {
		if !p.IsHeavy(id.Level-1, id.Parent) {
			t.Fatalf("part %+v: parent not heavy", id)
		}
		tau := 0.0
		for _, c := range crucial[id] {
			if id.Level <= g.L-1 && p.IsHeavy(id.Level, c.Key) {
				t.Fatalf("part %+v contains a heavy (non-crucial) cell", id)
			}
			// Each crucial cell's parent must be the part's parent.
			if g.KeyOf(id.Level-1, grid.ParentIndex(c.Index)) != id.Parent {
				t.Fatalf("part %+v groups a cell with a different parent", id)
			}
			tau += c.Tau
		}
		if len(crucial[id]) == 0 || tau != part.Tau {
			t.Fatalf("part %+v: τ %v over %d crucial cells, part says %v", id, tau, len(crucial[id]), part.Tau)
		}
	}
}

func TestPartOfAgreesWithPartMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := setup(t, 128, 2, 8)
	ps := clusteredPoints(rng, 400, 128)
	p := exactBuild(t, g, optUpper(ps, 2)/3, ps)
	crucial := crucialCells(p, ExactCounts(g, ps))
	for _, q := range ps {
		id, ok := p.PartOf(q)
		if !ok {
			t.Fatalf("uncovered point %v", q)
		}
		// The crucial cell key of q at id.Level must be listed in the part.
		key := g.CellKey(q, id.Level)
		if p.Parts[id] == nil {
			t.Fatalf("point %v's part %+v does not exist", q, id)
		}
		found := false
		for _, c := range crucial[id] {
			if c.Key == key {
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
	p := exactBuild(t, g, 1e-6, ps)
	id, ok := p.PartOf(ps[0])
	if !ok {
		t.Fatal("point not covered")
	}
	if id.Level != g.L {
		t.Fatalf("expected the level-L part, got level %d", id.Level)
	}
}

func TestTrivialUpperBoundO(t *testing.T) {
	g := setup(t, 16, 4, 11)
	// n·(√4·16)² = n·1024
	if got := TrivialUpperBoundO(10, g, 2); got != 10*1024 {
		t.Fatalf("TrivialUpperBoundO = %v", got)
	}
}

// randomInstance draws one of the random partition instances the
// oracle tests share: Δ = 2⁴…2⁹, d = 1…3, 50–449 points with duplicates,
// exact heavy-marking counts, part masses from an independent half (as
// in the streaming h′-substream), and a guess from "every level heavy"
// to "the root is light".
func randomInstance(t *testing.T, rng *rand.Rand, trial int) (g *grid.Grid, ps geo.PointSet, counts, partCounts [][]Cell, o float64) {
	delta := int64(1) << (4 + rng.Intn(6))
	dim := 1 + rng.Intn(3)
	g = setup(t, delta, dim, int64(trial))
	ps = make(geo.PointSet, 50+rng.Intn(400))
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
	o = TrivialUpperBoundO(len(ps), g, 2) * math.Pow(2, -float64(rng.Intn(40)))
	return g, ps, ExactCounts(g, ps), ExactCounts(g, ps[:len(ps)/2]), o
}

// PartAt over a point's grid keys must equal PartOf filtered by level,
// and the point-keyed partAtPoint oracle, for every level (out-of-range
// ones included) and every query point — input points, fresh points of
// the domain, and points outside the root cell — over random BuildLazy
// partitions. A PartFilter over a chosen set of a level's parts must
// keep exactly the points PartAt puts in one of them.
func TestPartAtMatchesPartOf(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	levelsHit := map[int]bool{}
	outside := 0
	for trial := 0; trial < 40; trial++ {
		g, ps, counts, partCounts, o := randomInstance(t, rng, trial)
		part, err := BuildLazy(g, 2, o,
			func(level int) ([]Cell, bool) { return counts[level+1], true },
			func(level int) ([]Cell, bool) { return partCounts[level+1], true },
		)
		if err != nil {
			t.Fatal(err)
		}
		// Per level, a PartFilter over every part and one over a random
		// half of them (sometimes none).
		type chosenFilter struct {
			filter *PartFilter
			chosen map[PartID]bool
		}
		filters := make([][]chosenFilter, g.L+1)
		for level := range filters {
			for _, frac := range []float64{1, 0.5} {
				chosen := map[PartID]bool{}
				var parents []uint64
				for id := range part.Parts {
					if id.Level == level && rng.Float64() < frac {
						chosen[id] = true
						parents = append(parents, id.Parent)
					}
				}
				filters[level] = append(filters[level], chosenFilter{part.Filter(level, parents), chosen})
			}
		}
		delta := g.Delta
		queries := append(geo.PointSet(nil), ps...)
		for i := 0; i < 100; i++ {
			q := make(geo.Point, g.Dim)
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
				var parent, key uint64 // out-of-range levels: any keys
				if level >= 0 && level <= g.L {
					parent, key = g.PointKeys(q, level)
				}
				got, ok := part.PartAt(level, parent, key)
				match := wantOK && want.Level == level
				if ok != match || (ok && got != want) {
					t.Fatalf("trial %d: q=%v level %d: PartAt=(%v,%v), PartOf=(%v,%v)",
						trial, q, level, got, ok, want, wantOK)
				}
				if oid, ook := partAtPoint(part, q, level); ook != ok || oid != got {
					t.Fatalf("trial %d: q=%v level %d: PartAt=(%v,%v), partAtPoint=(%v,%v)",
						trial, q, level, got, ok, oid, ook)
				}
			}
			for level := 0; level <= g.L; level++ {
				parent, key := g.PointKeys(q, level)
				id, ok := part.PartAt(level, parent, key)
				for _, f := range filters[level] {
					if keep := f.filter.Keep(parent, key); keep != (ok && f.chosen[id]) {
						t.Fatalf("trial %d: q=%v level %d: Keep=%v, PartAt=(%v,%v), chosen=%v",
							trial, q, level, keep, id, ok, f.chosen[id])
					}
				}
			}
		}
	}
	if len(levelsHit) < 4 || outside == 0 {
		t.Fatalf("weak coverage: parts found at levels %v, %d queries outside every part", levelsHit, outside)
	}
}

// TestBuildLazyMatchesMapOracle: BuildLazy over key-sorted cell slices
// with parent keys must build the partition of the map-based buildLazyMap
// oracle — the same heavy set at every level, compared by membership,
// and bit-identical parts, every τ(Q_{i,j}) bit included — and FAIL with the same ErrCounts when a source
// withholds a level, on random instances. The slices come from
// ExactCounts, the maps from the slices.
func TestBuildLazyMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fails := map[bool]int{}
	for trial := 0; trial < 60; trial++ {
		g, _, counts, partCounts, o := randomInstance(t, rng, trial)
		// Every third trial withholds one level of one source.
		failSrc, failLevel := -1, 0
		if trial%3 == 2 {
			failSrc, failLevel = rng.Intn(2), rng.Intn(g.L+1)
		}
		src := func(which int, all [][]Cell) CountSource {
			return func(level int) ([]Cell, bool) {
				if which == failSrc && level == failLevel {
					return nil, false
				}
				return all[level+1], true
			}
		}
		mapSrc := func(s CountSource) mapCountSource {
			return func(level int) (map[uint64]CellTau, bool) {
				cells, ok := s(level)
				if !ok {
					return nil, false
				}
				m := make(map[uint64]CellTau, len(cells))
				for _, c := range cells {
					m[c.Key] = c.CellTau
				}
				return m, true
			}
		}
		hs, hps := src(0, counts), src(1, partCounts)
		got, err := BuildLazy(g, 2, o, hs, hps)
		want, wantErr := buildLazyMap(g, 2, o, mapSrc(hs), mapSrc(hps))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error %v, oracle %v", trial, err, wantErr)
		}
		if err != nil {
			var ce ErrCounts
			if err.Error() != wantErr.Error() || !errors.As(err, &ce) || ce.Heavy != (failSrc == 0) {
				t.Fatalf("trial %d: error %#v, oracle %v (withheld source %d)", trial, err, wantErr, failSrc)
			}
			fails[ce.Heavy]++
			continue
		}
		for l := range want.heavy {
			if got.heavy[l].len() != len(want.heavy[l]) {
				t.Fatalf("trial %d: level %d: %d heavy cells, oracle %d", trial, l-1, got.heavy[l].len(), len(want.heavy[l]))
			}
			for key := range want.heavy[l] {
				if !got.heavy[l].has(key) || !got.IsHeavy(l-1, key) {
					t.Fatalf("trial %d: level %d: oracle's heavy cell %x missing", trial, l-1, key)
				}
			}
		}
		if !reflect.DeepEqual(got.Parts, want.Parts) {
			t.Fatalf("trial %d: parts differ", trial)
		}
	}
	if fails[true] == 0 || fails[false] == 0 {
		t.Fatalf("weak coverage: withheld-level FAILs by source %v", fails)
	}
}
