// Package experiments implements the evaluation suite of DESIGN.md §3:
// one runner per experiment E1–E10, each returning a metrics.Table that
// cmd/bcbench and the root bench harness (bench_test.go) render. The
// paper itself is a theory paper with no measured tables or figures, so
// this suite is the empirical validation of its theorems (the
// substitution is documented in DESIGN.md §1); EXPERIMENTS.md records the
// expected shape vs. the measured numbers for every row.
package experiments

import (
	"math"
	"math/rand"
	"runtime"

	"streambalance/internal/assign"
	"streambalance/internal/geo"
	"streambalance/internal/obs"
	"streambalance/internal/solve"
	"streambalance/internal/workload"
)

// vFailRows counts FAIL rows per experiment table (DESIGN.md §9): the
// paper's guarantees are probabilistic, so FAILs are an expected,
// observable outcome, not an error path.
var vFailRows = obs.CV("exp_fail_rows_total", "exp")

// Cfg scales and seeds an experiment run. Scale 1 is the quick
// configuration used by `go test -bench`; cmd/bcbench -full uses larger
// scales. Workers bounds the solve-loop pool of the parallel experiments
// (0 = GOMAXPROCS); every table is byte-identical at any worker count.
type Cfg struct {
	Seed    int64
	Scale   float64
	Workers int
}

func (c Cfg) withDefaults() Cfg {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// n scales a base instance size.
func (c Cfg) n(base int) int {
	v := int(float64(base) * c.Scale)
	if v < 16 {
		v = 16
	}
	return v
}

// workloadMixture is the shared mixture spec at an explicit domain size.
func workloadMixture(n, k int, delta int64) workload.Mixture {
	spread := float64(delta) / 270 // ≈30 at Δ=2^13, scales with the domain
	if spread < 3 {
		spread = 3
	}
	return workload.Mixture{N: n, D: 2, Delta: delta, K: k, Spread: spread, Skew: 2, NoiseFrac: 0.05}
}

// stdMixture is the default evaluation workload: a skewed Gaussian
// mixture with background noise, quantized to [1, 2^13]².
func stdMixture(seed int64, n, k int) (geo.PointSet, []geo.Point) {
	rng := rand.New(rand.NewSource(seed))
	return workloadMixture(n, k, 1<<13).Generate(rng)
}

// capRatio compares the capacitated fractional cost on the full data at
// capacity t with the coreset's at (1+η)t — the directed inequality of
// the strong coreset definition.
func capRatio(ws []geo.Weighted, core []geo.Weighted, Z []geo.Point, t float64, eta, r float64) (full, coreCost float64) {
	full, _, okF := assign.FractionalCost(ws, Z, t, r)
	coreCost, _, okC := assign.FractionalCost(core, Z, (1+eta)*t, r)
	if !okF {
		full = math.Inf(1)
	}
	if !okC {
		coreCost = math.Inf(1)
	}
	return full, coreCost
}

// estimateOPTFor is the shared uncapacitated OPT upper-bound estimator.
func estimateOPTFor(rng *rand.Rand, ps geo.PointSet, k int, delta int64) float64 {
	return solve.EstimateOPT(rng, geo.UnitWeights(ps), k, 2, delta, 2)
}

// centersFor returns evaluation center sets: the generative truth plus
// k-means++ draws.
func centersFor(rng *rand.Rand, ws []geo.Weighted, truec []geo.Point, k, extra int) [][]geo.Point {
	out := [][]geo.Point{truec}
	for i := 0; i < extra; i++ {
		out = append(out, solve.SeedKMeansPP(rng, ws, k, 2))
	}
	return out
}
