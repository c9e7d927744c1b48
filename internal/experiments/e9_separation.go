package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"streambalance/internal/assign"
	"streambalance/internal/geo"
	"streambalance/internal/metrics"
)

// E9Separation reproduces the structural content of the paper's
// Figures 1–3 and Lemma 3.8: for every optimal capacitated assignment and
// every pair of its clusters there is a curved ℓ_r hyperplane
// {x : dist^r(x,z_i) − dist^r(x,z_j) = a} separating them — a genuine
// hyperplane for r = 2 (Figure 1), a hyperbola branch for r = 1
// (Figure 3). The experiment solves many random instances to optimality
// by min-cost flow and verifies the separation for r ∈ {1, 2, 3}, and
// also confirms that deliberately perturbed (suboptimal) assignments
// violate it — i.e. the test has teeth.
func E9Separation(c Cfg) *metrics.Table {
	c = c.withDefaults()
	tb := metrics.New("E9", "curved-hyperplane separation of optimal capacitated clusters (Figs 1–3, Lemma 3.8)",
		"r", "instances", "optimal separable", "perturbed separable", "max violation (optimal)")
	tb.Note = "Lemma 3.8 predicts 100% in column 3; column 4 shows the property is non-trivial"

	rng := rand.New(rand.NewSource(c.Seed))
	trials := c.n(40)
	for _, r := range []float64{1, 2, 3} {
		// Draw every instance serially first — the rng is consumed in
		// exactly the order of the serial code, so the table is unchanged —
		// then solve the trials across the worker pool and reduce in trial
		// order (each trial only writes its own out slot).
		type e9Trial struct {
			ps   geo.PointSet
			Z    []geo.Point
			tcap float64
		}
		type e9Out struct {
			solved       bool
			sepOpt       bool
			violation    float64 // worst violation when not separable
			perturbed    bool    // a strictly worse feasible swap existed
			sepPerturbed bool
		}
		ts := make([]e9Trial, trials)
		for trial := range ts {
			n := 12 + rng.Intn(8)
			k := 2 + rng.Intn(2)
			ps := make(geo.PointSet, n)
			for i := range ps {
				ps[i] = geo.Point{1 + rng.Int63n(1<<12), 1 + rng.Int63n(1<<12)}
			}
			Z := make([]geo.Point, k)
			for i := range Z {
				Z[i] = geo.Point{1 + rng.Int63n(1<<12), 1 + rng.Int63n(1<<12)}
			}
			ts[trial] = e9Trial{ps: ps, Z: Z, tcap: math.Ceil(float64(n)/float64(k)) + 1}
		}
		outs := make([]e9Out, trials)
		// Per-worker engines: the graph arena and solver workspace carry
		// over between trials (point sets differ, so each trial rebinds,
		// but the backing storage is reused); cold engine solves are
		// bit-identical to a min-cost flow on a fresh graph.
		engines := make([]*assign.Solver, c.Workers)
		forEachWorker(c.Workers, trials, func(w, trial int) {
			if engines[w] == nil {
				engines[w] = assign.NewSolver()
			}
			eng := engines[w]
			tr := ts[trial]
			eng.BindPoints(tr.ps, r)
			eng.SetCenters(tr.Z)
			res, ok := eng.Optimal(tr.tcap)
			if !ok {
				return
			}
			out := e9Out{solved: true}
			rep := assign.VerifySeparation(tr.ps, res.Assign, tr.Z, r, 1e-6)
			if rep.Separable {
				out.sepOpt = true
			} else {
				out.violation = rep.WorstViolation
			}
			// Perturb: swap two points across clusters (if possible) and
			// re-verify. Swapping equal-count clusters keeps sizes legal,
			// so the perturbed assignment is feasible but suboptimal.
			pi := append([]int(nil), res.Assign...)
			a, b := -1, -1
			for i := range pi {
				for j := i + 1; j < len(pi); j++ {
					if pi[i] != pi[j] {
						a, b = i, j
					}
				}
			}
			if a >= 0 {
				pi[a], pi[b] = pi[b], pi[a]
				costBefore := assign.CostOfAssignment(geo.UnitWeights(tr.ps), tr.Z, res.Assign, r)
				costAfter := assign.CostOfAssignment(geo.UnitWeights(tr.ps), tr.Z, pi, r)
				if costAfter > costBefore*(1+1e-9) { // strictly worse swaps only
					out.perturbed = true
					out.sepPerturbed = assign.VerifySeparation(tr.ps, pi, tr.Z, r, 1e-6).Separable
				}
			}
			outs[trial] = out
		})
		sepOpt, sepPerturbed, total, perturbedTotal := 0, 0, 0, 0
		worst := 0.0
		for _, out := range outs {
			if !out.solved {
				continue
			}
			total++
			if out.sepOpt {
				sepOpt++
			} else if out.violation > worst {
				worst = out.violation
			}
			if out.perturbed {
				perturbedTotal++
				if out.sepPerturbed {
					sepPerturbed++
				}
			}
		}
		tb.Add(metrics.F(r), metrics.I(int64(total)),
			fmt.Sprintf("%d/%d", sepOpt, total),
			fmt.Sprintf("%d/%d", sepPerturbed, perturbedTotal),
			metrics.F(worst))
	}
	return tb
}
