package experiments

import (
	"fmt"
	"math/rand"

	"streambalance/internal/assign"
	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/metrics"
	"streambalance/internal/obs"
	"streambalance/internal/stream"
)

// E12GuessSelection compares three guess-selection mechanisms for
// Theorem 4.5's o (the paper assumes a streaming 2-approximation of OPT
// as a black box):
//
//	offline:    k-means++ + Lloyd on the full data (the reference),
//	reservoir:  the same estimator on a 1000-point reservoir sample
//	            (exact for insertion-only streams only, so stream.Auto
//	            does not use it),
//	cell-count: the deletion-proof F₀ cell-counting upper bound.
//
// For each selected o the table reports the resulting coreset size and
// cost fidelity — showing how guess quality trades coreset size for
// nothing until o approaches OPT from below, and why the cell-count
// bound is used only as a pruning cap on Auto's ascending scan.
func E12GuessSelection(c Cfg) *metrics.Table {
	sp := obs.StartSpan("exp.E12")
	c = c.withDefaults()
	const k, delta = 3, int64(1 << 10)
	n := c.n(4000)
	rng := rand.New(rand.NewSource(c.Seed))
	ps, truec := mixtureAt(rng, n, k, delta)
	ws := geo.UnitWeights(ps)
	fullCost := assign.UnconstrainedCost(ws, truec, 2)

	tb := metrics.New("E12", "guess-selection mechanisms for o (Theorem 4.5's 2-approx slot)",
		"selector", "selected o", "o / offline o", "|Q'|", "Σw'/n", "cost ratio @true Z")
	tb.Note = fmt.Sprintf("n=%d; smaller o only enlarges the coreset; o ≫ OPT undersamples (the cell-count row is why that bound is only a pruning cap)", n)

	offline := streamGuessAt(ps, k, c.Seed, delta)

	// Reservoir estimate: the same estimator on a one-pass uniform sample
	// (classic reservoir sampling, as baseline.ThreePass's first pass).
	const reservoirSize = 1000
	rrng := rand.New(rand.NewSource(c.Seed))
	sample := make(geo.PointSet, 0, reservoirSize)
	for i, p := range ps {
		if len(sample) < reservoirSize {
			sample = append(sample, p)
		} else if j := rrng.Int63n(int64(i + 1)); j < reservoirSize {
			sample[j] = p
		}
	}
	// The sample's clustering cost is ≈ (sample/n)·OPT; rescale.
	resEst := streamGuessAt(sample, k, c.Seed, delta) * float64(n) / float64(len(sample))

	// Cell-count bound.
	gcb := grid.New(delta, 2, rand.New(rand.NewSource(c.Seed+3)))
	cb := stream.NewCostBound(rand.New(rand.NewSource(c.Seed+4)), gcb, 2, 256)
	for _, p := range ps {
		cb.Insert(p)
	}
	cbGuess := cb.Guess(k)

	// Every row replays the whole stream into its own internally-seeded
	// sketch — the expensive part — and the rows share no state, so they
	// go over the worker pool and are added in row order afterwards.
	rows := []struct {
		name string
		o    float64
	}{
		{"offline estimate", offline},
		{"reservoir (1000)", resEst},
		{"cell-count bound", cbGuess},
		{"offline / 16", offline / 16},
		{"offline × 16", offline * 16},
	}
	type e12Row struct{ cells [6]string }
	outs := make([]e12Row, len(rows))
	forEachWorker(c.Workers, len(rows), func(_, ri int) {
		row := rows[ri]
		s, err := stream.New(stream.Config{
			Dim: 2, Delta: delta, O: row.o,
			Params: coreset.Params{K: k, Seed: c.Seed + 9},
		})
		if err != nil {
			// A selector can hand back an unusable guess (e.g. NaN/0 on a
			// degenerate sample); report it as a FAIL row, don't kill the
			// whole worker pool.
			outs[ri] = e12Row{[6]string{row.name, metrics.F(row.o), fmt.Sprintf("%.2f", row.o/offline),
				"FAIL", "-", "-"}}
			return
		}
		for _, p := range ps {
			s.Insert(p)
		}
		cs, err := s.Result()
		if err != nil {
			outs[ri] = e12Row{[6]string{row.name, metrics.F(row.o), fmt.Sprintf("%.2f", row.o/offline),
				"FAIL", "-", "-"}}
			return
		}
		core := assign.UnconstrainedCost(cs.Points, truec, 2)
		outs[ri] = e12Row{[6]string{row.name, metrics.F(row.o), fmt.Sprintf("%.2f", row.o/offline),
			metrics.I(int64(cs.Size())),
			fmt.Sprintf("%.3f", cs.TotalWeight()/float64(n)),
			fmt.Sprintf("%.3f", core/fullCost)}}
	})
	sp.AttrInt("rows", int64(len(outs)))
	var fails int64
	for _, row := range outs {
		if row.cells[3] == "FAIL" {
			fails++
		}
		tb.Add(row.cells[:]...)
	}
	if fails > 0 {
		vFailRows.Add(fails, "E12")
	}
	sp.AttrInt("fail_rows", fails)
	sp.End()
	return tb
}
