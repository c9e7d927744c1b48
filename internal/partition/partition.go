// Package partition implements Algorithm 1 of the paper: partitioning the
// input point set via heavy cells of a randomly shifted hierarchical grid.
//
// Given a guess o of the optimal (uncapacitated) ℓ_r k-clustering cost,
// level i uses the threshold T_i(o) = 0.01·o/(√d·g_i)^r. A cell is heavy
// when its (estimated) point count reaches T_i(o) and all its ancestors
// are heavy; a cell whose ancestors are all heavy but which is not itself
// heavy is crucial. The points inside the crucial descendants of the j-th
// heavy cell of G_{i−1} form the part Q_{i,j}; Lemma 3.3 bounds the number
// of heavy cells and Lemma 3.4 shows that dropping small parts barely
// perturbs any capacitated clustering cost — the two facts the coreset
// construction (Algorithm 2) builds on.
package partition

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
)

// CellTau is a non-empty cell together with its (estimated) point count τ.
type CellTau struct {
	Index []int64 // cell index vector at the cell's level
	Tau   float64 // estimated |C ∩ Q|
}

// Cell is one non-empty cell of a level as a CountSource reports it: its
// key, the key of its level-(i−1) parent, its index and its τ.
type Cell struct {
	Key, Parent uint64
	CellTau
}

// PartID identifies a part Q_{i,j} by its level i and the key of its
// parent heavy cell in G_{i−1}.
type PartID struct {
	Level  int
	Parent uint64
}

// Part is one part Q_{i,j} of the partition: the crucial cells at level
// `ID.Level` sharing the heavy parent `ID.Parent`, summarised by their
// total count. Its cells are the crucial cells under that parent; a
// point's part is found from its cell keys (PartOf, PartAt, PartFilter).
type Part struct {
	ID  PartID
	Tau float64 // Σ τ over the crucial cells ≈ |Q_{i,j}|
}

// Partition is the output of Algorithm 1.
type Partition struct {
	Grid  *grid.Grid
	R     float64
	O     float64
	heavy []keySet // heavy[level+1], levels −1..L−1
	Parts map[PartID]*Part
}

// ThresholdT returns T_i(o) = 0.01·o/(√d·g_i)^r for this partition's o.
func (p *Partition) ThresholdT(level int) float64 {
	return ThresholdT(p.Grid, level, p.O, p.R)
}

// ThresholdT computes T_i(o) = 0.01·o/(√d·g_i)^r.
func ThresholdT(g *grid.Grid, level int, o, r float64) float64 {
	diag := math.Sqrt(float64(g.Dim)) * float64(g.SideLen(level))
	return 0.01 * o / geo.PowR(diag, r)
}

// CountSource lazily supplies the (estimated) non-empty cell counts for
// one grid level: every non-empty cell once, sorted by ascending Key,
// each carrying its parent's key, so that BuildLazy hashes, sorts and
// indexes nothing itself. The slice is read-only. ok = false signals
// that the estimates for this level are unavailable (a FAILed sketch in
// the streaming setting); BuildLazy then aborts. A level is only ever
// requested if it can matter: heavy marking requests level i only while
// heavy cells still exist above it, and part collection only requests
// levels with a heavy parent level.
type CountSource func(level int) ([]Cell, bool)

// ErrCounts is returned by BuildLazy when a consulted CountSource reports
// failure. Heavy tells which source: the heavy-marking counts (the
// h-substream) or the part-mass counts (h′). The error text names the
// level only.
type ErrCounts struct {
	Level int
	Heavy bool
}

func (e ErrCounts) Error() string {
	return "partition: cell counts unavailable for level " + strconv.Itoa(e.Level)
}

// BuildLazy runs Algorithm 1 for guess o with lazily supplied count
// estimates for levels −1..L: counts drive the heavy-cell marking (the
// h-substream of Algorithm 4), partCounts enumerate crucial cells and
// their part masses τ(Q_{i,j}) (the independent h′-substream; offline,
// the same exact counts). Each level's source is consulted only if that
// level can still contain heavy or crucial cells. This is how the
// streaming algorithm avoids decoding (and hence avoids FAILing on)
// sketches of levels below the deepest heavy cell, whose contents the
// partition never uses. coreset.PlanQuery is its caller.
func BuildLazy(g *grid.Grid, r, o float64, counts, partCounts CountSource) (*Partition, error) {
	L := g.L
	p := &Partition{
		Grid:  g,
		R:     r,
		O:     o,
		heavy: make([]keySet, L+1), // levels −1..L−1
		Parts: make(map[PartID]*Part),
	}
	// Mark heavy cells top-down (lines 4–11 of Algorithm 1), stopping at
	// the first level that can no longer contain heavy cells. A level's
	// heavy keys are gathered first, so its set is allocated at its size.
	var marked []uint64
	for level := -1; level <= L-1; level++ {
		if level > -1 && p.heavy[level].len() == 0 {
			break // no heavy parents ⇒ no heavy cells below
		}
		cts, ok := counts(level)
		if !ok {
			return nil, ErrCounts{Level: level, Heavy: true}
		}
		th := ThresholdT(g, level, o, r)
		marked = marked[:0]
		for _, c := range cts {
			if c.Tau >= th && (level == -1 || p.heavy[level].has(c.Parent)) {
				marked = append(marked, c.Key)
			}
		}
		heavy := newKeySet(len(marked))
		for _, key := range marked {
			heavy.add(key)
		}
		p.heavy[level+1] = heavy
	}
	// Collect crucial cells into parts (lines 9, 12, 14). Part masses may
	// come from an independent estimate source (streaming h′-substream).
	// Cells arrive in sorted key order: τ(Q_{i,j}) is a float sum, and
	// summing in any run-dependent order would make the last-ulp value —
	// and hence any borderline inclusion or FAIL threshold downstream —
	// vary between otherwise identical runs.
	for level := 0; level <= L; level++ {
		if p.heavy[level].len() == 0 {
			continue // no heavy parent level ⇒ no crucial cells here
		}
		cts, ok := partCounts(level)
		if !ok {
			return nil, ErrCounts{Level: level}
		}
		for _, c := range cts {
			if !p.heavy[level].has(c.Parent) {
				continue // some ancestor is not heavy
			}
			if level <= L-1 && p.heavy[level+1].has(c.Key) {
				continue // heavy itself, not crucial
			}
			id := PartID{Level: level, Parent: c.Parent}
			part := p.Parts[id]
			if part == nil {
				part = &Part{ID: id}
				p.Parts[id] = part
			}
			part.Tau += c.Tau
		}
	}
	return p, nil
}

// HeavyCount returns Σ_i s_i, the total number of heavy cells across
// levels −1..L−1 (line 13 of Algorithm 1 counts s_i = heavy cells in
// G_{i−1} for i ∈ {0..L}, which is the same total).
func (p *Partition) HeavyCount() int {
	n := 0
	for i := range p.heavy {
		n += p.heavy[i].len()
	}
	return n
}

// IsHeavy reports whether the level-`level` cell with the given key was
// marked heavy. Valid for level ∈ {−1..L−1}.
func (p *Partition) IsHeavy(level int, key uint64) bool {
	if level < -1 || level > p.Grid.L-1 {
		return false
	}
	return p.heavy[level+1].has(key)
}

// PartOf locates the part containing point q: the unique level whose cell
// containing q is crucial. ok is false when q falls outside every heavy
// cell (possible only if the root was not heavy, i.e. o was far too
// large).
func (p *Partition) PartOf(q geo.Point) (PartID, bool) {
	g := p.Grid
	if !p.heavy[0].has(g.CellKey(q, -1)) {
		return PartID{}, false
	}
	for level := 0; level <= g.L; level++ {
		key := g.CellKey(q, level)
		if level == g.L || !p.heavy[level+1].has(key) {
			return PartID{Level: level, Parent: g.CellKey(q, level-1)}, true
		}
	}
	return PartID{}, false // unreachable
}

// PartAt answers PartOf for a point whose level-(i−1) and level-i cell
// keys the caller already holds (grid.PointKeys): it returns the point's
// part if that part lies at the given level, and ok = false otherwise.
// Two lookups suffice — the level-(i−1) cell is heavy and the level-i
// cell is not — because BuildLazy marks a cell heavy only under a heavy
// parent, so a heavy level-(i−1) cell implies every ancestor up to the
// root is heavy too. Equal to PartOf filtered by id.Level == level.
func (p *Partition) PartAt(level int, parent, key uint64) (PartID, bool) {
	if level < 0 || level > p.Grid.L {
		return PartID{}, false
	}
	if !p.heavy[level].has(parent) {
		return PartID{}, false
	}
	if level < p.Grid.L && p.heavy[level+1].has(key) {
		return PartID{}, false
	}
	return PartID{Level: level, Parent: parent}, true
}

// PartFilter tests, from a point's two cell keys, whether the point lies
// in one of a chosen set of parts of one level — the membership test of
// Algorithm 2's assembly (coreset.Query.Assemble). Its two sets are
// flat key sets, so a test costs two probes and no map lookup.
type PartFilter struct {
	parents keySet  // parent keys of the chosen parts
	heavy   *keySet // the level's heavy cells; nil at level L
}

// Filter returns the PartFilter for the parts of the given level whose
// parent keys are listed; each must be a part of p.
func (p *Partition) Filter(level int, parents []uint64) *PartFilter {
	f := &PartFilter{parents: newKeySet(len(parents))}
	for _, k := range parents {
		f.parents.add(k)
	}
	if level < p.Grid.L {
		f.heavy = &p.heavy[level+1]
	}
	return f
}

// Keep reports whether a point whose level-(i−1) and level-i cells have
// the keys parent and key lies in one of f's parts. It equals PartAt
// returning one of them: a part exists only under a heavy parent, since
// BuildLazy creates one only there, so finding the parent among the
// chosen parts' parents implies PartAt's heavy-parent test.
func (f *PartFilter) Keep(parent, key uint64) bool {
	return f.parents.has(parent) && (f.heavy == nil || !f.heavy.has(key))
}

// ExactCounts computes exact per-cell point counts for all levels
// −1..L, each level in CountSource form (index level+1) — the offline
// instantiation of the τ estimates (Theorem 3.19's "easy to compute the
// exact value" remark). The root cell's Parent is 0.
func ExactCounts(g *grid.Grid, ps geo.PointSet) [][]Cell {
	counts := make([][]Cell, g.L+2)
	for level := -1; level <= g.L; level++ {
		slot := make(map[uint64]int)
		var cells []Cell
		for _, p := range ps {
			key := g.CellKey(p, level)
			t, ok := slot[key]
			if !ok {
				t = len(cells)
				slot[key] = t
				c := Cell{Key: key, CellTau: CellTau{Index: g.CellIndex(p, level)}}
				if level >= 0 {
					c.Parent = g.ParentKey(level, c.Index)
				}
				cells = append(cells, c)
			}
			cells[t].Tau++
		}
		slices.SortFunc(cells, func(a, b Cell) int { return cmp.Compare(a.Key, b.Key) })
		counts[level+1] = cells
	}
	return counts
}

// TrivialUpperBoundO returns n·(√d·Δ)^r, the largest meaningful guess o
// (every point at maximal distance from its center); the o-enumeration of
// Theorem 3.19 stops here.
func TrivialUpperBoundO(n int, g *grid.Grid, r float64) float64 {
	diag := math.Sqrt(float64(g.Dim)) * float64(g.Delta)
	return float64(n) * geo.PowR(diag, r)
}
