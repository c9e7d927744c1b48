package partition

import (
	"sort"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
)

// mapCountSource is a CountSource in map form: a level's cells keyed by
// cell key, in no order and without parent keys.
type mapCountSource func(level int) (map[uint64]CellTau, bool)

// mapPartition is buildLazyMap's result: the heavy sets as maps, and the
// parts.
type mapPartition struct {
	heavy []map[uint64]bool // heavy[level+1], levels −1..L−1
	Parts map[PartID]*Part
}

// buildLazyMap is BuildLazy over map sources with map heavy sets, the
// oracle for the slice form and its flat key sets: it derives every
// parent key from the cell index and sorts each part-mass level's keys
// itself before summing τ(Q_{i,j}).
func buildLazyMap(g *grid.Grid, r, o float64, counts, partCounts mapCountSource) (*mapPartition, error) {
	L := g.L
	p := &mapPartition{
		heavy: make([]map[uint64]bool, L+1),
		Parts: make(map[PartID]*Part),
	}
	for i := range p.heavy {
		p.heavy[i] = map[uint64]bool{}
	}
	for level := -1; level <= L-1; level++ {
		if level > -1 && len(p.heavy[level]) == 0 {
			break
		}
		cts, ok := counts(level)
		if !ok {
			return nil, ErrCounts{Level: level}
		}
		th := ThresholdT(g, level, o, r)
		for key, ct := range cts {
			if ct.Tau < th {
				continue
			}
			if level == -1 || p.heavy[level][g.KeyOf(level-1, grid.ParentIndex(ct.Index))] {
				p.heavy[level+1][key] = true
			}
		}
	}
	for level := 0; level <= L; level++ {
		if len(p.heavy[level]) == 0 {
			continue
		}
		cts, ok := partCounts(level)
		if !ok {
			return nil, ErrCounts{Level: level}
		}
		keys := make([]uint64, 0, len(cts))
		for key := range cts {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, key := range keys {
			ct := cts[key]
			parentKey := g.KeyOf(level-1, grid.ParentIndex(ct.Index))
			if !p.heavy[level][parentKey] {
				continue
			}
			if level <= L-1 && p.heavy[level+1][key] {
				continue
			}
			id := PartID{Level: level, Parent: parentKey}
			part := p.Parts[id]
			if part == nil {
				part = &Part{ID: id}
				p.Parts[id] = part
			}
			part.Tau += ct.Tau
		}
	}
	return p, nil
}

// partAtPoint is PartAt computing q's two cell keys from the point
// itself, the oracle for the keyed form.
func partAtPoint(p *Partition, q geo.Point, level int) (PartID, bool) {
	g := p.Grid
	if level < 0 || level > g.L {
		return PartID{}, false
	}
	parent := g.CellKey(q, level-1)
	if !p.heavy[level].has(parent) {
		return PartID{}, false
	}
	if level < g.L && p.heavy[level+1].has(g.CellKey(q, level)) {
		return PartID{}, false
	}
	return PartID{Level: level, Parent: parent}, true
}

// crucialCells lists the crucial cells of p under each part, in key
// order, straight from the definition over exact counts (ExactCounts
// form): a cell of level i ≥ 0 whose parent is heavy and which is not
// heavy itself.
func crucialCells(p *Partition, counts [][]Cell) map[PartID][]Cell {
	out := map[PartID][]Cell{}
	for level := 0; level <= p.Grid.L; level++ {
		for _, c := range counts[level+1] {
			if p.IsHeavy(level-1, c.Parent) && !p.IsHeavy(level, c.Key) {
				id := PartID{Level: level, Parent: c.Parent}
				out[id] = append(out[id], c)
			}
		}
	}
	return out
}
