package experiments

import (
	"fmt"
	"math/rand"

	"streambalance/internal/assign"
	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/metrics"
)

// E1CoresetQuality validates the strong (η, ε)-coreset inequality of
// Theorem 3.19 directly. The definition is a two-sided sandwich:
//
//	up:   cost_{(1+η)t}(Q′, Z, w′) ≤ (1+ε)·cost_t(Q, Z)
//	down: cost_{(1+η)²t}(Q, Z)     ≤ (1+ε)·cost_{(1+η)t}(Q′, Z, w′)
//
// For several center sets Z and capacities t the table reports both
// ratios; the theorem bounds each by 1+ε (up to sampling noise beyond
// the configured ε). Costs are optimal fractional capacitated
// assignments computed by the transportation kernel on both sides.
//
// This is the flagship workload of the assignment engine (DESIGN.md §7):
// each center set needs seven capacitated solves over the same two point
// sets, so every worker keeps one engine per side — distance block
// built once per (worker, Z), kernel workspace reused across every
// solve. Center sets are evaluated across the worker pool; rows are
// assembled in center-set order, byte-identical at any worker count.
func E1CoresetQuality(c Cfg) *metrics.Table {
	c = c.withDefaults()
	const k = 4
	const eta = 0.25
	n := c.n(2000)
	ps, truec := stdMixture(c.Seed, n, k)
	ws := geo.UnitWeights(ps)
	// SamplesPerPart is lowered so that even at this flow-tractable n the
	// coreset genuinely subsamples (≈3–4× compression) and the inequality
	// is non-trivial.
	cs, err := coreset.Build(ps, coreset.Params{K: k, Eps: 0.25, Eta: eta, Seed: c.Seed, SamplesPerPart: 96})
	if err != nil {
		panic(err)
	}
	tb := metrics.New("E1", "strong coreset inequality (Theorem 3.19)",
		"centers", "t/(n/k)", "cost_t(Q)", "cost_(1+η)t(Q')", "up ratio", "cost_(1+η)²t(Q)", "down ratio")
	tb.Note = fmt.Sprintf("n=%d, k=%d, ε=η=0.25, |Q'|=%d; both ratio columns must stay ≲ 1+ε", n, k, cs.Size())

	// Draw every center set first (the rng is consumed in exactly the
	// serial order), then sweep them across the pool.
	rng := rand.New(rand.NewSource(c.Seed + 100))
	zs := centersFor(rng, ws, truec, k, 2)
	tfs := []float64{1.05, 1.5, 4.0}

	type e1Row struct{ cells [7]string }
	outs := make([][]e1Row, len(zs))
	type e1Engines struct{ full, core *assign.Solver }
	engines := make([]e1Engines, c.Workers)
	forEachWorker(c.Workers, len(zs), func(w, zi int) {
		eng := &engines[w]
		if eng.full == nil {
			eng.full = assign.NewSolver()
			eng.core = assign.NewSolver()
			eng.full.Bind(ws, 2)
			eng.core.Bind(cs.Points, 2)
		}
		Z := zs[zi]
		eng.full.SetCenters(Z)
		eng.core.SetCenters(Z)
		name := "true"
		if zi > 0 {
			name = fmt.Sprintf("kpp-%d", zi)
		}
		rows := make([]e1Row, 0, len(tfs)+1)
		for _, tf := range tfs {
			t := tf * float64(n) / k
			full, _ := eng.full.Fractional(t)
			core, _ := eng.core.Fractional((1 + eta) * t)
			fullRelaxed, _ := eng.full.Fractional((1 + eta) * (1 + eta) * t)
			rows = append(rows, e1Row{[7]string{name, metrics.F(tf),
				metrics.F(full), metrics.F(core), fmt.Sprintf("%.3f", core/full),
				metrics.F(fullRelaxed), fmt.Sprintf("%.3f", fullRelaxed/core)}})
		}
		// t = ∞ (unconstrained): the classic coreset check, both ratios
		// collapse to plain cost ratio.
		full := eng.full.Unconstrained()
		core := eng.core.Unconstrained()
		rows = append(rows, e1Row{[7]string{name, "inf", metrics.F(full), metrics.F(core),
			fmt.Sprintf("%.3f", core/full), metrics.F(full), fmt.Sprintf("%.3f", full/core)}})
		outs[zi] = rows
	})
	for _, rows := range outs {
		for _, row := range rows {
			tb.Add(row.cells[:]...)
		}
	}
	return tb
}
