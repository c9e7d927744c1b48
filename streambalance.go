// Package streambalance is a Go implementation of "Streaming Balanced
// Clustering" (Esfandiari, Mirrokni, Zhong; SPAA 2023 brief announcement,
// full version arXiv:1910.00788): strong coresets for capacitated
// (balanced) k-clustering in ℓ_r — capacitated k-median (r = 1) and
// capacitated k-means (r = 2) — constructible offline in near-linear
// time, over one-pass dynamic streams (insertions AND deletions) in
// poly(ε⁻¹η⁻¹kd log Δ) space, and in the distributed coordinator model
// with s·poly(...) communication.
//
// A strong (η, ε)-coreset is a weighted subset Q′ ⊆ Q such that for EVERY
// capacity t ≥ |Q|/k and EVERY center set Z of size k,
//
//	cost_{(1+η)t}(Q, Z) ≤ (1+ε)·cost_t(Q′, Z, w′)  and
//	cost_{(1+η)t}(Q′, Z, w′) ≤ (1+ε)·cost_t(Q, Z),
//
// where cost_t is the optimal capacity-t assignment cost. Consequently,
// running any (α, β)-approximate capacitated solver on the coreset yields
// a ((1+O(ε))α, (1+O(η))β) solution on the original data (Fact 2.3).
//
// # Quick start
//
//	points := ...                             // []streambalance.Point on [1,Δ]^d
//	cs, err := streambalance.BuildCoreset(points, streambalance.Params{K: 8})
//	sol, ok := streambalance.SolveCapacitated(cs.Points, 8, capacity, streambalance.SolveOptions{})
//
// For dynamic streams use NewStream (fixed cost guess) or NewAutoStream
// (parallel guess enumeration); for partitioned data use
// DistributedCoreset. See examples/ for runnable end-to-end programs and
// DESIGN.md / EXPERIMENTS.md for the reproduction methodology.
package streambalance

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"

	"streambalance/internal/assign"
	"streambalance/internal/coreset"
	"streambalance/internal/dist"
	"streambalance/internal/geo"
	"streambalance/internal/solve"
	"streambalance/internal/stream"
)

// Point is a point of the integer grid [1, Δ]^d.
type Point = geo.Point

// Weighted is a point with a positive weight, as stored in coresets.
type Weighted = geo.Weighted

// Params configures the coreset construction (k, r, ε, η, seed, and
// practical-vs-conservative constants). The zero value of every optional
// field selects a sensible default; K is required.
type Params = coreset.Params

// Coreset is a strong (η, ε)-coreset for capacitated k-clustering.
type Coreset = coreset.Coreset

// StreamConfig configures a one-pass dynamic streaming instance.
type StreamConfig = stream.Config

// Stream is a single-guess streaming coreset builder (Theorem 4.5).
type Stream = stream.Stream

// AutoStream runs the parallel guess enumeration of Theorem 4.5.
type AutoStream = stream.Auto

// Op is a dynamic stream update.
type Op = stream.Op

// DistConfig configures the distributed protocol (Theorem 4.7).
type DistConfig = dist.Config

// DistReport is the distributed protocol's outcome, including bit-exact
// communication accounting.
type DistReport = dist.Report

// Solution is a capacitated clustering solution.
type Solution = solve.Solution

// BuildCoreset runs the offline construction of Theorem 3.19 on the
// point set.
func BuildCoreset(points []Point, p Params) (*Coreset, error) {
	return coreset.Build(geo.PointSet(points), p)
}

// NewStream creates a one-pass dynamic streaming coreset builder for a
// fixed guess cfg.O of the optimal uncapacitated cost.
func NewStream(cfg StreamConfig) (*Stream, error) { return stream.New(cfg) }

// NewAutoStream creates the parallel guess-enumeration variant; oFactor
// is the ratio between consecutive guesses (≥ 2; a smaller finite value
// is raised to 2, and NaN or ±Inf is an error).
func NewAutoStream(cfg StreamConfig, oFactor float64) (*AutoStream, error) {
	return stream.NewAuto(cfg, oFactor)
}

// DistributedCoreset runs the coordinator protocol of Theorem 4.7 over
// the machines' local point sets, using the concurrent pipelined driver
// (every machine in its own goroutine, bounded by cfg.Workers; framed
// wire messages over cfg.Transport, in-memory channels by default). The
// report's Bits is the measured length of the encoded frames;
// FormulaBits carries the closed-form accounting for comparison. The
// result is bit-identical at any worker count and on any transport
// (DESIGN.md §8).
func DistributedCoreset(machines [][]Point, cfg DistConfig) (*DistReport, error) {
	ms := make([]geo.PointSet, len(machines))
	for i, m := range machines {
		ms[i] = geo.PointSet(m)
	}
	return dist.Run(ms, cfg)
}

// PortableCoreset is the serializable form of a coreset (weighted points
// plus interpretation metadata).
type PortableCoreset = coreset.Portable

// SaveCoreset writes a coreset to w in the binary (gob) format.
func SaveCoreset(cs *Coreset, w io.Writer) error { return cs.Encode(w) }

// LoadCoreset reads a coreset written by SaveCoreset.
func LoadCoreset(r io.Reader) (PortableCoreset, error) { return coreset.Decode(r) }

// ComposeCoresets merges portable coresets of DISJOINT point sets into a
// coreset of their union (strong coresets compose additively — the
// property Theorem 4.7's distributed protocol exploits).
func ComposeCoresets(parts ...PortableCoreset) (PortableCoreset, error) {
	return coreset.Compose(parts...)
}

// SolveOptions tunes SolveCapacitated.
type SolveOptions struct {
	R        float64 // ℓ_r exponent (default 2)
	Seed     int64
	Iters    int   // Lloyd iterations (default 8)
	Restarts int   // k-means++ restarts (default 3)
	Delta    int64 // grid bound for recentering (default: inferred)
	// LocalSearch additionally runs single-swap local search for up to
	// this many accepted swaps (0 = off).
	LocalSearch int
}

// SolveCapacitated computes a capacitated k-clustering of the weighted
// points under per-center capacity t: k-means++ seeding, then Lloyd
// iterations whose assignment step is an optimal capacitated assignment
// by min-cost flow (the practical stand-in for the paper's black-box
// (α, β)-approximations — see DESIGN.md §1). ok is false when t·k is less
// than the total weight.
func SolveCapacitated(ws []Weighted, k int, t float64, opt SolveOptions) (Solution, bool) {
	if opt.R == 0 {
		opt.R = 2
	}
	if opt.Iters == 0 {
		opt.Iters = 8
	}
	if opt.Restarts == 0 {
		opt.Restarts = 3
	}
	if opt.Delta == 0 {
		opt.Delta = geo.MaxCoordRange(geo.Points(ws))
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	sol, ok := solve.CapacitatedLloyd(rng, ws, k, t, opt.R, opt.Delta, opt.Iters, opt.Restarts)
	if ok && opt.LocalSearch > 0 {
		sol = solve.LocalSearchCapacitated(rng, ws, sol, t, opt.R, opt.LocalSearch, 8)
	}
	return sol, ok
}

// CapacitatedCost computes the optimal capacity-t fractional assignment
// cost of the weighted points to the centers in ℓ_r (+Inf when
// infeasible) — the cost_t^{(r)}(Q, Z, w) of Section 2 in its LP
// relaxation, which is what both sides of the coreset guarantee are
// measured with.
func CapacitatedCost(ws []Weighted, centers []Point, t, r float64) float64 {
	c, _, ok := assign.FractionalCost(ws, centers, t, r)
	if !ok {
		return math.Inf(1)
	}
	return c
}

// AssignCapacitated computes an integral capacity-respecting assignment
// of the weighted points to the centers (Section 3.3's rounding: at most
// k−1 points exceed t, by at most (k−1)·max w in total). The returned
// slice maps each input index to a center index; ok is false when
// infeasible.
func AssignCapacitated(ws []Weighted, centers []Point, t, r float64) (assignment []int, cost float64, ok bool) {
	res, ok := assign.Weighted(ws, centers, t, r)
	if !ok {
		return nil, math.Inf(1), false
	}
	return res.Assign, res.Cost, true
}

// SolveCapacitatedKCenter solves capacitated k-center — the r = ∞ member
// of the paper's capacitated k-clustering family: place k centers and
// assign at most t points to each, minimizing the maximum point-center
// distance. Gonzalez seeding + exact bottleneck assignment + local
// search. Solution.Cost holds the bottleneck radius.
func SolveCapacitatedKCenter(points []Point, k int, t float64, seed int64) (Solution, bool) {
	rng := rand.New(rand.NewSource(seed))
	return solve.CapacitatedKCenter(rng, geo.PointSet(points), k, t, 3, 3)
}

// AssignBottleneck computes the optimal capacitated bottleneck (k-center)
// assignment of points to fixed centers: at most ⌊t⌋ points per center,
// minimizing the maximum distance. The returned radius is exact.
func AssignBottleneck(points []Point, centers []Point, t float64) (assignment []int, radius float64, ok bool) {
	res, ok := assign.OptimalBottleneck(geo.PointSet(points), centers, t)
	if !ok {
		return nil, math.Inf(1), false
	}
	return res.Assign, res.Cost, true
}

// UnconstrainedCost computes Σ w(p)·dist^r(p, Z) — the capacity-free
// clustering cost.
func UnconstrainedCost(ws []Weighted, centers []Point, r float64) float64 {
	return assign.UnconstrainedCost(ws, centers, r)
}

// EstimateOPT returns an upper bound on the optimal uncapacitated ℓ_r
// cost (k-means++ + Lloyd), the quantity the streaming guess o is derived
// from. k and r follow the Params rules for K and R (r = 0 selects 2),
// and every point must have the dimension of the first.
func EstimateOPT(points []Point, k int, r float64, seed int64) (float64, error) {
	if len(points) == 0 {
		return 0, errors.New("streambalance: empty input")
	}
	dim := len(points[0])
	p, _, err := coreset.ResolveConfig("streambalance", Params{K: k, R: r}, dim, 1)
	if err != nil {
		return 0, err
	}
	for i, q := range points {
		if len(q) != dim {
			return 0, fmt.Errorf("streambalance: point %d has dimension %d, want %d", i, len(q), dim)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	delta := geo.MaxCoordRange(geo.PointSet(points))
	return solve.EstimateOPT(rng, geo.UnitWeights(geo.PointSet(points)), k, p.R, delta, 3), nil
}

// GuessFromEstimate converts an OPT upper-bound estimate into the guess o
// a single-guess Stream should be configured with (estimate/4, floored to
// a power of two, ≥ 1) — the rule the auto-guessing paths apply too.
func GuessFromEstimate(estimate float64) float64 { return coreset.GuessFromEstimate(estimate) }
