package coreset

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/partition"
	"streambalance/internal/solve"
)

// Coreset is a strong (η, ε)-coreset for capacitated k-clustering in ℓ_r:
// a weighted subset Q' ⊆ Q such that for every capacity t ≥ |Q|/k and
// every center set Z of size k,
//
//	cost_{(1+η)t}(Q, Z) ≤ (1+ε)·cost_t(Q', Z, w')   and
//	cost_{(1+η)t}(Q', Z, w') ≤ (1+ε)·cost_t(Q, Z).
type Coreset struct {
	Points []geo.Weighted // the coreset Q' with weights w'

	O      float64              // the accepted guess of OPT^{(r)}_{k-clus}
	Grid   *grid.Grid           // the shifted grid hierarchy used
	Part   *partition.Partition // the heavy-cell partition for the accepted o
	Plan   *Plan                // per-level sampling rates and inclusion decisions
	Params Params               // the resolved parameters
	Levels []int                // Levels[i] = grid level of Points[i]'s part
}

// Size returns |Q'|.
func (c *Coreset) Size() int { return len(c.Points) }

// TotalWeight returns Σ w'(p) ≈ |Q| (each sampled point carries weight
// 1/φ_i times its multiplicity).
func (c *Coreset) TotalWeight() float64 { return geo.TotalWeight(c.Points) }

// Plan captures the per-level decisions of Algorithm 2 for one guess o:
// whether the guess FAILs, which parts are included (τ(Q_{i,j}) ≥
// γ·T_i(o)), and the per-level sampling probability φ_i. The streaming
// and distributed constructions reuse the same planner.
type Plan struct {
	O        float64
	Gamma    float64
	Phi      []float64 // φ_i per level 0..L
	Included map[partition.PartID]bool
	FailWhy  string // non-empty if the guess FAILs
}

// Failed reports whether Algorithm 2 returns FAIL for this guess.
func (pl *Plan) Failed() bool { return pl.FailWhy != "" }

// BuildPlan evaluates the FAIL conditions of Algorithm 2 (lines 5–6) and
// computes φ_i and the included-part set PI_i (lines 8–9) for the
// partition produced with guess o.
func BuildPlan(part *partition.Partition, p Params) *Plan {
	g := part.Grid
	d, L := g.Dim, g.L
	pl := &Plan{
		O:        part.O,
		Gamma:    p.Gamma(d, L),
		Phi:      make([]float64, L+1),
		Included: make(map[partition.PartID]bool),
	}
	// Line 5: too many heavy cells.
	if hc := float64(part.HeavyCount()); hc > p.HeavyBudget(d, L) {
		pl.FailWhy = fmt.Sprintf("heavy cells %v exceed budget %v", hc, p.HeavyBudget(d, L))
		return pl
	}
	// Line 6: per-level mass τ(∪_j Q_{i,j}) too large. Parts are summed in
	// sorted-ID order — float addition in map-iteration order would let a
	// borderline level budget pass on one run and FAIL on the next.
	ids := make([]partition.PartID, 0, len(part.Parts))
	for id := range part.Parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].Level != ids[b].Level {
			return ids[a].Level < ids[b].Level
		}
		return ids[a].Parent < ids[b].Parent
	})
	levelTau := make([]float64, L+1)
	for _, id := range ids {
		levelTau[id.Level] += part.Parts[id].Tau
	}
	for i := 0; i <= L; i++ {
		T := part.ThresholdT(i)
		if levelTau[i] > p.LevelBudget(d, L, T) {
			pl.FailWhy = fmt.Sprintf("level %d mass %v exceeds budget %v", i, levelTau[i], p.LevelBudget(d, L, T))
			return pl
		}
		pl.Phi[i] = p.Phi(T, d, L)
	}
	// Line 9: include parts with τ(Q_{i,j}) ≥ γ·T_i(o).
	for id, pt := range part.Parts {
		if pt.Tau >= pl.Gamma*part.ThresholdT(id.Level) {
			pl.Included[id] = true
		}
	}
	return pl
}

// ErrAllGuessesFailed is returned when no guess o in the enumeration
// passes Algorithm 2's FAIL checks (possible only on pathological inputs
// or absurdly tight budgets).
var ErrAllGuessesFailed = errors.New("coreset: every guess o FAILed")

// GuessO selects the guess of OPT^{(r)}_{k-clus} the way Theorem 4.5
// does: obtain a constant-factor estimate Ê ≥ OPT (here k-means++ + Lloyd
// on a uniform subsample, giving a feasible-solution upper bound) and
// apply the guess rule (GuessFromEstimate); k-means++ + Lloyd restarts
// are comfortably inside its 4× slack on non-adversarial data.
func GuessO(ps geo.PointSet, p Params, rng *rand.Rand, delta int64) float64 {
	sample := ps
	const maxSample = 4000
	scale := 1.0
	if len(ps) > maxSample {
		sample = make(geo.PointSet, maxSample)
		perm := rng.Perm(len(ps))
		for i := 0; i < maxSample; i++ {
			sample[i] = ps[perm[i]]
		}
		scale = float64(len(ps)) / float64(maxSample)
	}
	return GuessFromEstimate(solve.EstimateOPT(rng, geo.UnitWeights(sample), p.K, p.R, delta, 2) * scale)
}

// Build runs the offline algorithm of Theorem 3.19 on point set ps.
//
// In practical mode the guess o is chosen from a constant-factor OPT
// estimate (GuessO), doubling while Algorithm 2 FAILs — the guess
// selection Theorem 4.5 prescribes. In conservative mode the paper's
// literal enumeration is used: o ∈ {1, 2, 4, ...} up to the trivial bound
// n·(√d·Δ)^r, returning the smallest non-FAILing guess.
func Build(ps geo.PointSet, p Params) (*Coreset, error) {
	p, delta, err := checkInput(ps, p)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := grid.New(delta, ps.Dim(), rng)
	counts := partition.ExactCounts(g, ps)
	upper := partition.TrivialUpperBoundO(len(ps), g, p.R)

	start := 1.0
	if !p.Conservative {
		start = GuessO(ps, p, rng, g.Delta)
	}
	for o := start; o <= 2*upper; o *= 2 {
		q, err := exactQuery(ps, g, p, o, counts)
		if err != nil {
			return nil, err
		}
		if q.Plan.Failed() {
			continue
		}
		cs := sampleOffline(ps, q, p, rng)
		if cs == nil {
			continue // no parts covered any point (guess absurdly large)
		}
		return cs, nil
	}
	return nil, ErrAllGuessesFailed
}

// checkInput resolves p and validates ps: non-empty, one dimension, and
// every coordinate at least 1. It returns the power-of-two domain bound
// Δ ≥ every coordinate, so every point lies in the root cell.
func checkInput(ps geo.PointSet, p Params) (Params, int64, error) {
	p, err := p.withDefaults()
	if err != nil {
		return p, 0, err
	}
	if len(ps) == 0 {
		return p, 0, errors.New("coreset: empty input")
	}
	delta := geo.MaxCoordRange(ps)
	for _, q := range ps {
		if err := q.Check(ps.Dim(), delta); err != nil {
			return p, 0, fmt.Errorf("coreset: %w", err)
		}
	}
	return p, delta, nil
}

// exactQuery runs the plan step for guess o over the exact cell counts
// of ps (partition.ExactCounts, levels −1..L).
func exactQuery(ps geo.PointSet, g *grid.Grid, p Params, o float64, counts [][]partition.Cell) (*Query, error) {
	exact := func(level int) ([]partition.Cell, bool) { return counts[level+1], true }
	return PlanQuery(g, p, o, int64(len(ps)), exact, exact)
}

// sampleOffline executes lines 7–12 of Algorithm 2 given a non-FAILing
// plan: every point of an included part is kept with probability
// φ_{level} (λ-wise independently) and weight multiplicity/φ_{level}.
// Points sharing a location are folded into a single weighted point
// (footnote 4: duplicate points are equivalent to unique tags; sampling
// the location and scaling the weight by the multiplicity preserves
// every cost estimator). The samplers ĥ_0, …, ĥ_L are keyed by point
// fingerprints and drawn from rng, fingerprint first.
func sampleOffline(ps geo.PointSet, q *Query, p Params, rng *rand.Rand) *Coreset {
	part, pl := q.Part, q.Plan
	g := part.Grid
	fp := hashing.NewFingerprint(rng)
	lambda := p.Lambda(g.Dim, g.L)
	hat := make([]*hashing.Bernoulli, len(pl.Phi))
	for i, phi := range pl.Phi {
		hat[i] = hashing.NewBernoulli(rng, lambda, phi)
	}

	// Deduplicate locations, tracking multiplicities.
	type entry struct {
		p geo.Point
		m int64
	}
	seen := make(map[string]int, len(ps))
	var uniq []entry
	for _, q := range ps {
		k := q.String()
		if i, ok := seen[k]; ok {
			uniq[i].m++
			continue
		}
		seen[k] = len(uniq)
		uniq = append(uniq, entry{p: q, m: 1})
	}

	cs := &Coreset{O: pl.O, Grid: g, Part: part, Plan: pl, Params: p}
	covered := false
	for _, e := range uniq {
		id, ok := part.PartOf(e.p)
		if !ok {
			continue
		}
		covered = true
		if !pl.Included[id] || !hat[id.Level].Sample(fp.Key(e.p)) {
			continue
		}
		cs.Points = append(cs.Points, geo.Weighted{P: e.p, W: float64(e.m) / pl.Phi[id.Level]})
		cs.Levels = append(cs.Levels, id.Level)
	}
	if !covered {
		return nil
	}
	return cs
}

// BuildForO runs Algorithm 2 offline for one fixed guess o (used by
// experiments that sweep the guess). The returned coreset is nil when the
// guess FAILs.
func BuildForO(ps geo.PointSet, p Params, o float64) (*Coreset, *Plan, error) {
	p, delta, err := checkInput(ps, p)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := grid.New(delta, ps.Dim(), rng)
	q, err := exactQuery(ps, g, p, o, partition.ExactCounts(g, ps))
	if err != nil {
		return nil, nil, err
	}
	if q.Plan.Failed() {
		return nil, q.Plan, nil
	}
	return sampleOffline(ps, q, p, rng), q.Plan, nil
}
