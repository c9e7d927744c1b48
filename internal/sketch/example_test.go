package sketch_test

import (
	"fmt"
	"math/rand"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/sketch"
)

// ExampleStoring shows the Lemma 4.2 contract: after arbitrary
// insertions and deletions, a cell sketch reports the surviving cells
// and their counts, and a point sketch the surviving points, exactly —
// or FAILs, never lies.
func ExampleStoring() {
	rng := rand.New(rand.NewSource(1))
	g := grid.New(64, 2, rng)
	cells := sketch.NewStoring(rng, g, 2, sketch.Cells, 32, 0.01, nil)
	points := sketch.NewStoring(rng, g, 2, sketch.Points, 16, 0.01, nil)

	for _, st := range []*sketch.Storing{cells, points} {
		st.Insert(geo.Point{10, 10})
		st.Insert(geo.Point{10, 11})
		st.Insert(geo.Point{50, 50})
		st.Delete(geo.Point{50, 50}) // cancelled exactly
	}

	cs, okC := cells.Result()
	ps, okP := points.Result()
	fmt.Println("decoded:", okC && okP)
	fmt.Println("surviving points:", len(ps))
	var total int64
	for _, c := range cs {
		total += c.Count
	}
	fmt.Println("cell mass:", total)
	// Output:
	// decoded: true
	// surviving points: 2
	// cell mass: 2
}

// ExampleSparseRecovery demonstrates the linear s-sparse recovery core.
func ExampleSparseRecovery() {
	rng := rand.New(rand.NewSource(2))
	sr := sketch.NewSparseRecovery(rng, 4, 0.01, 0)
	sr.Update(7, nil, 3)
	sr.Update(9, nil, 1)
	sr.Update(9, nil, -1) // key 9 vanishes

	items, ok := sr.Decode()
	fmt.Println("ok:", ok, "items:", len(items))
	fmt.Println("key:", items[0].Key, "count:", items[0].Count)
	// Output:
	// ok: true items: 1
	// key: 7 count: 3
}
