// Package solve provides the clustering solvers the paper treats as black
// boxes: an (α, β)-style capacitated solver used to post-process the
// coreset (Fact 2.3 shows any such solver run on a strong coreset yields
// a (1+O(ε))α, (1+O(η))β solution on the original data), plus the
// uncapacitated baselines used to estimate OPT^{(r)}_{k-clus} (the guess
// o; Theorem 4.5 assumes a 2-approximation of OPT is available).
//
// The solvers are:
//
//   - SeedKMeansPP: D^r-sampling seeding (k-means++ generalized to ℓ_r),
//     giving an O(log k)-approximation in expectation for r = 2.
//   - Lloyd: uncapacitated Lloyd descent under ℓ_r (centroid recentering
//     for r = 2, coordinate-wise weighted median for r = 1).
//   - CapacitatedLloyd: alternates optimal capacitated assignment (via
//     min-cost flow, internal/assign) with recentering — the standard
//     practical stand-in for the [DL16]/[XHX+19] offline approximations,
//     which are LP-rounding constructions with no published
//     implementations.
//   - LocalSearchCapacitated: single-swap local search over center
//     candidates drawn from the input, the classic k-median heuristic,
//     with capacitated assignment as the evaluation oracle.
package solve

import (
	"math"
	"math/rand"
	"sort"

	"streambalance/internal/assign"
	"streambalance/internal/geo"
)

// Solution is a clustering solution on a weighted point set.
type Solution struct {
	Centers []geo.Point
	Assign  []int     // center index per input point (−1 if never assigned)
	Cost    float64   // capacitated (or unconstrained) ℓ_r cost
	Sizes   []float64 // total weight per center
}

// SeedKMeansPP draws k centers from the weighted points by D^r sampling:
// the first uniformly by weight, each subsequent one with probability
// proportional to w(p)·dist^r(p, chosen). Centers are input points, so
// they lie on the grid.
func SeedKMeansPP(rng *rand.Rand, ws []geo.Weighted, k int, r float64) []geo.Point {
	if len(ws) == 0 || k < 1 {
		panic("solve: empty input or k < 1")
	}
	centers := make([]geo.Point, 0, k)
	// First center: weight-proportional.
	tot := geo.TotalWeight(ws)
	target := rng.Float64() * tot
	acc := 0.0
	for _, w := range ws {
		acc += w.W
		if acc >= target {
			centers = append(centers, w.P)
			break
		}
	}
	if len(centers) == 0 {
		centers = append(centers, ws[len(ws)-1].P)
	}
	// minSq[i] caches the squared distance from ws[i] to its nearest
	// chosen center; each round folds in only the centers appended since
	// the previous round, so seeding is O(nk) total instead of O(nk²).
	// √min(minSq) equals DistToSet's √ of the running min, so the sampled
	// centers are bit-identical to the quadratic version.
	minSq := make([]float64, len(ws))
	for i := range minSq {
		minSq[i] = math.Inf(1)
	}
	applied := 0
	d2 := make([]float64, len(ws))
	for len(centers) < k {
		for ; applied < len(centers); applied++ {
			c := centers[applied]
			for i, w := range ws {
				if sq := geo.DistSq(w.P, c); sq < minSq[i] {
					minSq[i] = sq
				}
			}
		}
		sum := 0.0
		for i, w := range ws {
			d2[i] = w.W * geo.PowR(math.Sqrt(minSq[i]), r)
			sum += d2[i]
		}
		if sum == 0 {
			// All mass sits on the chosen centers; duplicate arbitrarily.
			centers = append(centers, ws[rng.Intn(len(ws))].P)
			continue
		}
		target := rng.Float64() * sum
		acc := 0.0
		idx := len(ws) - 1
		for i := range ws {
			acc += d2[i]
			if acc >= target {
				idx = i
				break
			}
		}
		centers = append(centers, ws[idx].P)
	}
	return centers
}

// recenter computes a new grid center for a weighted cluster: the
// weighted centroid for r = 2 (and the general-r default), the
// coordinate-wise weighted median for r = 1.
func recenter(ws []geo.Weighted, members []int, r float64, delta int64, fallback geo.Point) geo.Point {
	if len(members) == 0 {
		return fallback
	}
	d := len(ws[members[0]].P)
	if r == 1 {
		out := make(geo.Point, d)
		for c := 0; c < d; c++ {
			type cw struct {
				v int64
				w float64
			}
			vals := make([]cw, 0, len(members))
			var tot float64
			for _, i := range members {
				vals = append(vals, cw{ws[i].P[c], ws[i].W})
				tot += ws[i].W
			}
			sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
			acc := 0.0
			for _, v := range vals {
				acc += v.w
				if acc >= tot/2 {
					out[c] = v.v
					break
				}
			}
		}
		return out
	}
	sub := make([]geo.Weighted, len(members))
	for i, m := range members {
		sub[i] = ws[m]
	}
	return geo.RoundToGrid(geo.Centroid(sub), delta)
}

// Lloyd runs uncapacitated ℓ_r Lloyd descent from the given seed centers,
// returning the best solution found. delta bounds the grid for
// recentering.
func Lloyd(ws []geo.Weighted, centers []geo.Point, r float64, delta int64, iters int) Solution {
	k := len(centers)
	cur := make([]geo.Point, k)
	copy(cur, centers)
	best := evalUncapacitated(ws, cur, r)
	for it := 0; it < iters; it++ {
		members := make([][]int, k)
		for i, w := range ws {
			_, j := geo.DistToSet(w.P, cur)
			members[j] = append(members[j], i)
		}
		next := make([]geo.Point, k)
		for j := 0; j < k; j++ {
			next[j] = recenter(ws, members[j], r, delta, cur[j])
		}
		sol := evalUncapacitated(ws, next, r)
		if sol.Cost >= best.Cost-1e-12 {
			break
		}
		cur, best = next, sol
	}
	return best
}

func evalUncapacitated(ws []geo.Weighted, Z []geo.Point, r float64) Solution {
	sol := Solution{Centers: Z, Assign: make([]int, len(ws)), Sizes: make([]float64, len(Z))}
	for i, w := range ws {
		d, j := geo.DistToSet(w.P, Z)
		sol.Assign[i] = j
		sol.Sizes[j] += w.W
		sol.Cost += w.W * geo.PowR(d, r)
	}
	return sol
}

// EstimateOPT returns an upper bound on OPT^{(r)}_{k-clus} — the
// uncapacitated optimum — by k-means++ seeding followed by Lloyd descent,
// taking the best of `restarts` runs. Any feasible clustering's cost
// upper-bounds OPT, so the estimate is always valid as an upper bound;
// its tightness (O(log k) in expectation from the seeding) is what the
// guess-selection o = estimate/C relies on.
func EstimateOPT(rng *rand.Rand, ws []geo.Weighted, k int, r float64, delta int64, restarts int) float64 {
	if restarts < 1 {
		restarts = 1
	}
	best := math.Inf(1)
	for t := 0; t < restarts; t++ {
		seed := SeedKMeansPP(rng, ws, k, r)
		sol := Lloyd(ws, seed, r, delta, 10)
		if sol.Cost < best {
			best = sol.Cost
		}
	}
	return best
}

// CapacitatedLloyd alternates optimal capacitated assignment (the
// transportation kernel, through one assign.Solver reused across every
// iteration and restart) with recentering, starting from k-means++
// seeds; the best of `restarts` runs is returned. ok is false when the
// capacity t is infeasible (t·k < total weight).
func CapacitatedLloyd(rng *rand.Rand, ws []geo.Weighted, k int, t float64, r float64,
	delta int64, iters, restarts int) (Solution, bool) {

	if restarts < 1 {
		restarts = 1
	}
	best := Solution{Cost: math.Inf(1)}
	found := false
	eng := assign.NewSolver()
	eng.Bind(ws, r)
	for run := 0; run < restarts; run++ {
		centers := SeedKMeansPP(rng, ws, k, r)
		var cur Solution
		okRun := false
		for it := 0; it < iters; it++ {
			eng.SetCenters(centers)
			res, ok := eng.Weighted(t)
			if !ok {
				break
			}
			sol := Solution{Centers: centers, Assign: res.Assign, Cost: res.Cost, Sizes: res.Sizes}
			if okRun && sol.Cost >= cur.Cost-1e-12 {
				break
			}
			cur, okRun = sol, true
			members := make([][]int, k)
			for i, a := range res.Assign {
				members[a] = append(members[a], i)
			}
			next := make([]geo.Point, k)
			for j := 0; j < k; j++ {
				next[j] = recenter(ws, members[j], r, delta, centers[j])
			}
			centers = next
		}
		if okRun && cur.Cost < best.Cost {
			best = cur
			found = true
		}
	}
	return best, found
}

// LocalSearchCapacitated improves a capacitated solution by single-swap
// local search: repeatedly try replacing one center with a candidate
// point (sampled from the input) and keep the swap if the optimal
// capacitated assignment cost drops. maxSwaps bounds the number of
// accepted swaps; candidates bounds the number of sampled candidates per
// round.
func LocalSearchCapacitated(rng *rand.Rand, ws []geo.Weighted, start Solution, t float64,
	r float64, maxSwaps, candidates int) Solution {

	cur := start
	k := len(cur.Centers)
	eng := assign.NewSolver()
	eng.Bind(ws, r)
	for swaps := 0; swaps < maxSwaps; swaps++ {
		improved := false
		for c := 0; c < candidates && !improved; c++ {
			cand := ws[rng.Intn(len(ws))].P
			for j := 0; j < k && !improved; j++ {
				trial := make([]geo.Point, k)
				copy(trial, cur.Centers)
				trial[j] = cand
				eng.SetCenters(trial)
				res, ok := eng.Weighted(t)
				if ok && res.Cost < cur.Cost*(1-1e-6) {
					cur = Solution{Centers: trial, Assign: res.Assign, Cost: res.Cost, Sizes: res.Sizes}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return cur
}

// BruteForceCapacitated finds the optimal capacitated k-clustering with
// centers restricted to the input points — exact for the discrete
// k-median-style formulation, exponential in k and meant for tiny test
// instances only.
func BruteForceCapacitated(ps geo.PointSet, k int, t float64, r float64) (Solution, bool) {
	n := len(ps)
	best := Solution{Cost: math.Inf(1)}
	found := false
	idx := make([]int, k)
	var rec func(pos, from int)
	rec = func(pos, from int) {
		if pos == k {
			Z := make([]geo.Point, k)
			for i, id := range idx {
				Z[i] = ps[id]
			}
			res, ok := assign.Optimal(ps, Z, t, r)
			if ok && res.Cost < best.Cost {
				best = Solution{Centers: Z, Assign: res.Assign, Cost: res.Cost, Sizes: res.Sizes}
				found = true
			}
			return
		}
		for i := from; i < n; i++ {
			idx[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
	return best, found
}
