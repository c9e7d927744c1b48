package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"streambalance/internal/assign"
	"streambalance/internal/geo"
	"streambalance/internal/metrics"
)

// E13AssignmentCounting validates the paper's central counting insight
// (Section 1.2): although k^n assignments exist, only those representable
// by curved-hyperplane half-spaces can be optimal for ANY capacity —
// at most Δ^{O(dk²)} of them, and far fewer in practice. On enumerable
// instances the experiment computes the optimal capacitated assignment
// for EVERY center set and EVERY capacity, counts the distinct
// assignments observed, and verifies each is half-space representable
// (the property the coreset's union bound quantifies over).
func E13AssignmentCounting(c Cfg) *metrics.Table {
	c = c.withDefaults()
	tb := metrics.New("E13", "how many assignments can be optimal? (§1.2 union-bound structure)",
		"instance", "k^n", "(Z,t) pairs solved", "distinct optimal π", "max π per Z", "all separable")
	tb.Note = "the coreset's union bound works because column 4 ≪ column 2"

	rng := rand.New(rand.NewSource(c.Seed))
	type inst struct {
		name  string
		d     int
		delta int64
		n     int
		k     int
	}
	for _, in := range []inst{
		{"d=1, Δ=32, n=10, k=2", 1, 32, 10, 2},
		{"d=2, Δ=8, n=8, k=2", 2, 8, 8, 2},
		{"d=1, Δ=16, n=8, k=3", 1, 16, 8, 3},
	} {
		ps := make(geo.PointSet, in.n)
		for i := range ps {
			ps[i] = make(geo.Point, in.d)
			for j := range ps[i] {
				ps[i][j] = 1 + rng.Int63n(in.delta)
			}
		}
		// Enumerate all center sets of size k over [Δ]^d.
		var domain geo.PointSet
		var walk func(prefix geo.Point)
		walk = func(prefix geo.Point) {
			if len(prefix) == in.d {
				domain = append(domain, prefix.Clone())
				return
			}
			for v := int64(1); v <= in.delta; v++ {
				walk(append(prefix, v))
			}
		}
		walk(geo.Point{})

		// Enumerate the center-set combinations serially (the recursion
		// reuses its Z buffer, so each leaf is cloned), then solve every
		// (Z, t) sweep across the worker pool — each combo's sweep is
		// independent — and reduce in combo order.
		var combos []geo.PointSet
		var chooseZ func(start int, Z []geo.Point)
		chooseZ = func(start int, Z []geo.Point) {
			if len(Z) == in.k {
				combos = append(combos, append(geo.PointSet(nil), Z...))
				return
			}
			for i := start; i < len(domain); i++ {
				chooseZ(i+1, append(Z, domain[i]))
			}
		}
		chooseZ(0, nil)

		type e13Out struct {
			keys   []string // one per solved (Z, t), in t order
			allSep bool
		}
		outs := make([]e13Out, len(combos))
		// Per-worker engines bound to the instance's fixed point set: the
		// flow skeleton is built once per worker and survives the whole
		// combo sweep (every combo has the same n and k — only arc costs
		// change), which is the arena's best case. Integral solves stay
		// cold, so each is bit-identical to a min-cost flow on a fresh graph.
		engines := make([]*assign.Solver, c.Workers)
		forEachWorker(c.Workers, len(combos), func(w, ci int) {
			if engines[w] == nil {
				engines[w] = assign.NewSolver()
				engines[w].BindPoints(ps, 2)
			}
			eng := engines[w]
			Z := combos[ci]
			eng.SetCenters(Z)
			out := e13Out{allSep: true}
			for t := int(math.Ceil(float64(in.n) / float64(in.k))); t <= in.n; t++ {
				res, ok := eng.Optimal(float64(t))
				if !ok {
					continue
				}
				out.keys = append(out.keys, assignKey(res.Assign))
				if !assign.VerifySeparation(ps, res.Assign, Z, 2, 1e-6).Separable {
					out.allSep = false
				}
			}
			outs[ci] = out
		})
		distinct := map[string]bool{}
		solved := 0
		maxPerZ := 0
		allSep := true
		for _, out := range outs {
			perZ := map[string]bool{}
			for _, key := range out.keys {
				solved++
				distinct[key] = true
				perZ[key] = true
			}
			if len(perZ) > maxPerZ {
				maxPerZ = len(perZ)
			}
			if !out.allSep {
				allSep = false
			}
		}

		kn := math.Pow(float64(in.k), float64(in.n))
		sep := "yes"
		if !allSep {
			sep = "NO"
		}
		tb.Add(in.name, metrics.F(kn), metrics.I(int64(solved)),
			metrics.I(int64(len(distinct))), metrics.I(int64(maxPerZ)), sep)
	}
	return tb
}

func assignKey(pi []int) string {
	var sb strings.Builder
	for _, a := range pi {
		fmt.Fprintf(&sb, "%d,", a)
	}
	return sb.String()
}
