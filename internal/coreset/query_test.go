package coreset

import (
	"math/rand"
	"reflect"
	"testing"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/partition"
)

// TestAssembleMatchesPartOf: Assemble keeps a point by two flat-set
// probes on its grid keys (partition.PartFilter, applied by a source that
// offers every distinct point); it must keep exactly
// the points, weights and levels, in order, of an assembly that locates
// every point with PartOf, and of the map-based per-point filter
// (assembleMap) — over guesses from a fine partition to a light root,
// with every level's source offering every distinct point.
func TestAssembleMatchesPartOf(t *testing.T) {
	ps, _ := mixture(7, 3000)
	p, err := Params{K: 4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New(geo.MaxCoordRange(ps), ps.Dim(), rand.New(rand.NewSource(8)))
	counts := partition.ExactCounts(g, ps)
	type entry struct {
		p geo.Point
		m int64
	}
	seen := map[string]int{}
	var uniq []entry
	for _, q := range ps {
		if i, ok := seen[q.String()]; ok {
			uniq[i].m++
			continue
		}
		seen[q.String()] = len(uniq)
		uniq = append(uniq, entry{q, 1})
	}
	assembled := 0
	upper := partition.TrivialUpperBoundO(len(ps), g, p.R)
	for o := 1.0; o <= 4*upper; o *= 8 {
		q, err := exactQuery(ps, g, p, o, counts)
		if err != nil {
			t.Fatal(err)
		}
		if q.Plan.Failed() {
			continue
		}
		src := func(i int, yield func(geo.Point, int64, uint64, uint64)) error {
			for _, e := range uniq {
				parent, key := g.PointKeys(e.p, i)
				yield(e.p, e.m, parent, key)
			}
			return nil
		}
		got, err := q.Assemble(func(i int, keep *partition.PartFilter, yield func(geo.Point, int64)) error {
			return src(i, func(p geo.Point, mult int64, parent, key uint64) {
				if keep.Keep(parent, key) {
					yield(p, mult)
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if cap(got.Points) != len(got.Points) || cap(got.Levels) != len(got.Levels) {
			t.Fatalf("o=%v: coreset of %d points allocated for %d", o, len(got.Points), cap(got.Points))
		}
		oracle, err := q.assembleMap(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points, oracle.Points) || !reflect.DeepEqual(got.Levels, oracle.Levels) {
			t.Fatalf("o=%v: filtered assembly kept %d points, map-filter oracle %d", o, len(got.Points), len(oracle.Points))
		}
		var want []geo.Weighted
		var levels []int
		for i, need := range q.Need {
			if !need {
				continue
			}
			for _, e := range uniq {
				if id, ok := q.Part.PartOf(e.p); ok && id.Level == i && q.Plan.Included[id] {
					want = append(want, geo.Weighted{P: e.p, W: float64(e.m) / q.Plan.Phi[i]})
					levels = append(levels, i)
				}
			}
		}
		if !reflect.DeepEqual(got.Points, want) || !reflect.DeepEqual(got.Levels, levels) {
			t.Fatalf("o=%v: keyed assembly kept %d points, PartOf assembly %d", o, len(got.Points), len(want))
		}
		if len(want) > 0 {
			assembled++
		}
	}
	if assembled < 2 {
		t.Fatalf("weak coverage: %d guesses assembled any point", assembled)
	}
}

// assembleMap is Assemble with the map-based per-point filter, its
// oracle: over a source of every point with its two cell keys, a point
// is kept when Partition.PartAt finds its part at the level and the part
// is in Plan.Included.
func (q *Query) assembleMap(points func(level int, yield func(p geo.Point, mult int64, parent, key uint64)) error) (*Coreset, error) {
	part, pl := q.Part, q.Plan
	cs := &Coreset{O: part.O, Grid: part.Grid, Part: part, Plan: pl, Params: q.params}
	for i, need := range q.Need {
		if !need {
			continue
		}
		phi := pl.Phi[i]
		err := points(i, func(p geo.Point, mult int64, parent, key uint64) {
			if id, ok := part.PartAt(i, parent, key); ok && pl.Included[id] {
				cs.Points = append(cs.Points, geo.Weighted{P: p, W: float64(mult) / phi})
				cs.Levels = append(cs.Levels, i)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return cs, nil
}
