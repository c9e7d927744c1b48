package grid

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/geo"
)

func newTestGrid(t *testing.T, delta int64, dim int, seed int64) *Grid {
	t.Helper()
	return New(delta, dim, rand.New(rand.NewSource(seed)))
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []int64{0, 3, 6, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("delta=%d: expected panic", bad)
				}
			}()
			New(bad, 2, rand.New(rand.NewSource(1)))
		}()
	}
	g := newTestGrid(t, 16, 3, 1)
	if g.L != 4 {
		t.Fatalf("L = %d, want 4", g.L)
	}
	if g.Levels() != 5 {
		t.Fatalf("Levels = %d, want 5", g.Levels())
	}
}

func TestSideLengths(t *testing.T) {
	g := newTestGrid(t, 16, 2, 2)
	want := map[int]int64{-1: 32, 0: 16, 1: 8, 2: 4, 3: 2, 4: 1}
	for level, w := range want {
		if got := g.SideLen(level); got != w {
			t.Fatalf("SideLen(%d) = %d, want %d", level, got, w)
		}
	}
}

func TestLevelMinusOneSingleCell(t *testing.T) {
	// The unique cell of G_{-1} must contain every point of [Δ]^d.
	for seed := int64(0); seed < 20; seed++ {
		g := newTestGrid(t, 8, 2, seed)
		ref := g.CellKey(geo.Point{1, 1}, MinLevel)
		for x := int64(1); x <= 8; x++ {
			for y := int64(1); y <= 8; y++ {
				if g.CellKey(geo.Point{x, y}, MinLevel) != ref {
					t.Fatalf("seed %d: point (%d,%d) escapes the G_{-1} cell", seed, x, y)
				}
			}
		}
	}
}

func TestNestingParentIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(1024, 4, rng)
	for i := 0; i < 500; i++ {
		p := randPoint(rng, 4, 1024)
		for level := 0; level <= g.L; level++ {
			idx := g.CellIndex(p, level)
			parent := ParentIndex(idx)
			want := g.CellIndex(p, level-1)
			for j := range want {
				if parent[j] != want[j] {
					t.Fatalf("nesting broken at level %d: %v vs %v", level, parent, want)
				}
			}
		}
	}
}

func TestSameCellConsistentWithIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := New(256, 3, rng)
	for i := 0; i < 300; i++ {
		p := randPoint(rng, 3, 256)
		q := randPoint(rng, 3, 256)
		for level := MinLevel; level <= g.L; level++ {
			ip := g.CellIndex(p, level)
			iq := g.CellIndex(q, level)
			same := true
			for j := range ip {
				if ip[j] != iq[j] {
					same = false
				}
			}
			if got := g.SameCell(p, q, level); got != same {
				t.Fatalf("SameCell disagrees with indices at level %d", level)
			}
			if same != (g.CellKey(p, level) == g.CellKey(q, level)) {
				t.Fatalf("CellKey disagrees with indices at level %d", level)
			}
		}
	}
}

func TestCellDiameterBound(t *testing.T) {
	// Any two points sharing a level-i cell are within √d · g_i.
	rng := rand.New(rand.NewSource(5))
	g := New(64, 2, rng)
	pts := make(geo.PointSet, 400)
	for i := range pts {
		pts[i] = randPoint(rng, 2, 64)
	}
	for level := 0; level <= g.L; level++ {
		diam := g.Diameter(level)
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if g.SameCell(pts[i], pts[j], level) {
					if d := geo.Dist(pts[i], pts[j]); d > diam+1e-9 {
						t.Fatalf("level %d: same-cell points at distance %v > diameter %v", level, d, diam)
					}
				}
			}
		}
	}
}

func TestUnitCellsIsolateDistinctPoints(t *testing.T) {
	// At level L (side 1), two distinct points never share a cell.
	g := newTestGrid(t, 32, 2, 6)
	for x := int64(1); x <= 32; x += 3 {
		for y := int64(1); y <= 32; y += 3 {
			p := geo.Point{x, y}
			q := geo.Point{x, y + 1}
			if y+1 <= 32 && g.SameCell(p, q, g.L) {
				t.Fatalf("distinct points share a unit cell: %v %v", p, q)
			}
			if !g.SameCell(p, p.Clone(), g.L) {
				t.Fatal("identical points must share every cell")
			}
		}
	}
}

func TestKeysDifferAcrossLevels(t *testing.T) {
	g := newTestGrid(t, 16, 2, 7)
	p := geo.Point{5, 5}
	seen := make(map[uint64]int)
	for level := MinLevel; level <= g.L; level++ {
		k := g.CellKey(p, level)
		if prev, ok := seen[k]; ok {
			t.Fatalf("levels %d and %d share a cell key", prev, level)
		}
		seen[k] = level
	}
}

func TestShiftChangesPartition(t *testing.T) {
	// With different random shifts, the mid-level partition of a fixed
	// pair should differ for at least one seed — sanity that the shift is
	// actually applied.
	p := geo.Point{8, 8}
	q := geo.Point{9, 9}
	varies := false
	first := newTestGrid(t, 16, 2, 0).SameCell(p, q, 2)
	for seed := int64(1); seed < 30; seed++ {
		if newTestGrid(t, 16, 2, seed).SameCell(p, q, 2) != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("random shift appears to have no effect")
	}
}

func TestRandomShiftSeparationProbability(t *testing.T) {
	// Classic shifted-grid property: points at distance δ are split at
	// level with side g with probability ≤ d·δ/g (we check a loose bound
	// empirically).
	p := geo.Point{100, 100}
	q := geo.Point{102, 100} // distance 2
	split := 0
	const trials = 2000
	for seed := int64(0); seed < trials; seed++ {
		g := New(256, 2, rand.New(rand.NewSource(seed)))
		if !g.SameCell(p, q, 3) { // side 32
			split++
		}
	}
	frac := float64(split) / trials
	// Expected ≈ δ/g = 2/32 = 0.0625 per axis; only one axis differs.
	if frac > 0.15 {
		t.Fatalf("split fraction %v too high (expect ≈ 0.0625)", frac)
	}
	if frac == 0 {
		t.Fatal("split fraction 0 — shift not effective")
	}
}

func TestDiameterValue(t *testing.T) {
	g := newTestGrid(t, 8, 4, 9)
	want := math.Sqrt(4) * 8
	if got := g.Diameter(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Diameter(0) = %v, want %v", got, want)
	}
}

func TestPanicsOnBadLevelAndDim(t *testing.T) {
	g := newTestGrid(t, 8, 2, 10)
	mustPanic(t, func() { g.SideLen(g.L + 1) })
	mustPanic(t, func() { g.SideLen(-2) })
	mustPanic(t, func() { g.CellIndex(geo.Point{1}, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func randPoint(rng *rand.Rand, d int, delta int64) geo.Point {
	p := make(geo.Point, d)
	for i := range p {
		p[i] = 1 + rng.Int63n(delta)
	}
	return p
}

func TestCellIndexIntoMatchesCellIndex(t *testing.T) {
	g := newTestGrid(t, 1<<10, 3, 21)
	rng := rand.New(rand.NewSource(22))
	dst := make([]int64, 0, g.Dim)
	for i := 0; i < 200; i++ {
		p := geo.Point{rng.Int63n(1 << 10), rng.Int63n(1 << 10), rng.Int63n(1 << 10)}
		level := rng.Intn(g.L+2) - 1
		want := g.CellIndex(p, level)
		dst = g.CellIndexInto(dst[:0], p, level)
		if len(dst) != len(want) {
			t.Fatalf("length %d vs %d", len(dst), len(want))
		}
		for j := range want {
			if dst[j] != want[j] {
				t.Fatalf("level %d: index %v vs %v", level, dst, want)
			}
		}
	}
}

func TestParentKeysMatchCellKeys(t *testing.T) {
	g := newTestGrid(t, 1<<8, 2, 23)
	rng := rand.New(rand.NewSource(24))
	keys := make([]uint64, g.L+1)
	for i := 0; i < 100; i++ {
		p := geo.Point{rng.Int63n(1 << 8), rng.Int63n(1 << 8)}
		idx := g.CellIndex(p, g.L)
		g.ParentKeys(keys, idx, g.L)
		for level := 0; level <= g.L; level++ {
			if keys[level] != g.CellKey(p, level) {
				t.Fatalf("level %d: ParentKeys %d vs CellKey %d", level, keys[level], g.CellKey(p, level))
			}
		}
		// idx is consumed down to the level-0 ancestor.
		for j, v := range g.CellIndex(p, 0) {
			if idx[j] != v {
				t.Fatalf("consumed idx %v is not the level-0 index", idx)
			}
		}
	}
}

func TestCellKeyPipelineAllocFree(t *testing.T) {
	// The batched ingestion pipeline relies on the CellIndexInto →
	// ParentKeys → KeyOf chain allocating nothing per op.
	g := newTestGrid(t, 1<<12, 4, 25)
	p := geo.Point{11, 222, 3333, 404}
	dst := make([]int64, 0, g.Dim)
	keys := make([]uint64, g.L+1)
	allocs := testing.AllocsPerRun(100, func() {
		dst = g.CellIndexInto(dst[:0], p, g.L)
		g.ParentKeys(keys, dst, g.L)
	})
	if allocs != 0 {
		t.Fatalf("cell key pipeline allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCellKeyMatchesKeyOfAllocFree(t *testing.T) {
	// CellKey is hit per op per level by the streaming cost bound and per
	// point by partition lookups; up to 8 dimensions it must equal the
	// allocating KeyOf(CellIndex(...)) spelling without allocating.
	rng := rand.New(rand.NewSource(27))
	for _, dim := range []int{1, 2, 3, 8, 9} {
		g := newTestGrid(t, 1<<10, dim, int64(dim))
		for i := 0; i < 100; i++ {
			p := randPoint(rng, dim, 1<<10)
			level := rng.Intn(g.L+2) - 1
			if got, want := g.CellKey(p, level), g.KeyOf(level, g.CellIndex(p, level)); got != want {
				t.Fatalf("dim %d level %d: CellKey %d, KeyOf(CellIndex) %d", dim, level, got, want)
			}
		}
		if dim > 8 {
			continue
		}
		p := randPoint(rng, dim, 1<<10)
		var sink uint64
		if allocs := testing.AllocsPerRun(100, func() { sink += g.CellKey(p, g.L) }); allocs != 0 {
			t.Fatalf("dim %d: CellKey allocates %.1f objects/op, want 0", dim, allocs)
		}
	}
}

func TestParentKeys4MatchesScalar(t *testing.T) {
	// The 4-lane key column kernel must be bit-identical to four scalar
	// ParentKeys walks, including the consumed-index postcondition.
	g := newTestGrid(t, 1<<10, 3, 31)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		var pts [4]geo.Point
		var want [4][]uint64
		var idx [4][]int64
		var got [4][]uint64
		for l := 0; l < 4; l++ {
			pts[l] = geo.Point{rng.Int63n(1 << 10), rng.Int63n(1 << 10), rng.Int63n(1 << 10)}
			want[l] = make([]uint64, g.L+1)
			scratch := g.CellIndexInto(nil, pts[l], g.L)
			g.ParentKeys(want[l], scratch, g.L)
			idx[l] = g.CellIndexInto(nil, pts[l], g.L)
			got[l] = make([]uint64, g.L+1)
		}
		g.ParentKeys4(got[0], got[1], got[2], got[3], idx[0], idx[1], idx[2], idx[3], g.L)
		for l := 0; l < 4; l++ {
			for i := 0; i <= g.L; i++ {
				if got[l][i] != want[l][i] {
					t.Fatalf("lane %d level %d: ParentKeys4 %d vs ParentKeys %d", l, i, got[l][i], want[l][i])
				}
			}
			for j, v := range g.CellIndex(pts[l], 0) {
				if idx[l][j] != v {
					t.Fatalf("lane %d: consumed idx %v is not the level-0 index", l, idx[l])
				}
			}
		}
	}
}

func TestPointKeysAndParentKeyMatchCellKey(t *testing.T) {
	// The decode-time keying of the sketch layer: a point's two keys and a
	// cell's parent key must equal the CellKey/KeyOf spellings at every
	// level 0..L, and allocate nothing up to 8 dimensions.
	rng := rand.New(rand.NewSource(33))
	for _, dim := range []int{1, 2, 3, 8, 9} {
		g := newTestGrid(t, 1<<10, dim, int64(dim))
		for i := 0; i < 100; i++ {
			p := randPoint(rng, dim, 1<<10)
			level := rng.Intn(g.L + 1)
			parent, key := g.PointKeys(p, level)
			if parent != g.CellKey(p, level-1) || key != g.CellKey(p, level) {
				t.Fatalf("dim %d level %d: PointKeys (%d, %d), CellKey (%d, %d)",
					dim, level, parent, key, g.CellKey(p, level-1), g.CellKey(p, level))
			}
			idx := g.CellIndex(p, level)
			if got := g.ParentKey(level, idx); got != parent {
				t.Fatalf("dim %d level %d: ParentKey %d, CellKey %d", dim, level, got, parent)
			}
			for j, v := range g.CellIndex(p, level) {
				if idx[j] != v {
					t.Fatalf("ParentKey modified its index %v", idx)
				}
			}
		}
		if dim > 8 {
			continue
		}
		p := randPoint(rng, dim, 1<<10)
		idx := g.CellIndex(p, g.L)
		var sink uint64
		if allocs := testing.AllocsPerRun(100, func() {
			a, b := g.PointKeys(p, g.L)
			sink += a + b + g.ParentKey(g.L, idx)
		}); allocs != 0 {
			t.Fatalf("dim %d: PointKeys+ParentKey allocate %.1f objects/op, want 0", dim, allocs)
		}
	}
}
