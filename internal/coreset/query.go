package coreset

// Algorithm 4's core, written once for its three users: the streaming
// instance (internal/stream, Theorem 4.5), the coordinator (internal/dist,
// Theorem 4.7, which is Algorithm 4 with Lemma 4.6's exact per-machine
// counts in place of the Storing sketches) and the offline builder
// (Theorem 3.19, exact counts). Each supplies its own recovered counts and
// points; the rate rule, the guess rule, the plan step and the assembly
// live here.

import (
	"math"
	"math/rand"
	"sync"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/partition"
)

// The numerators of the h and h′ sampling rates (Rates), shared by the
// stream and the coordinator. The paper uses 10⁶λ′ for both (Algorithm
// 3); this is the one place to retune the calibrated values.
const (
	countRate = 256
	partRate  = 64
)

// Rates is Algorithm 4's rate rule for one guess o on one grid: level i's
// h-substream samples at ψ_i = min(1, countRate/T_i(o)), its h′-substream
// at ψ′_i = min(1, partRate/(γ·T_i(o))) and its ĥ-substream at φ_i
// (Params.Phi), each λ-wise independently.
type Rates struct {
	p      Params
	g      *grid.Grid
	o      float64
	gamma  float64
	lambda int
}

// NewRates returns the rate rule for guess o on g.
func NewRates(p Params, g *grid.Grid, o float64) *Rates {
	return &Rates{p: p, g: g, o: o, gamma: p.Gamma(g.Dim, g.L), lambda: p.Lambda(g.Dim, g.L)}
}

// Samplers draws level i's samplers from rng in the order h_i, h′_i, ĥ_i.
// Every user draws all three per level, level by level, so the shared
// randomness of a seed is the same wherever it is reconstructed.
func (r *Rates) Samplers(rng *rand.Rand, i int) (h, hp, hat *hashing.Bernoulli) {
	T := partition.ThresholdT(r.g, i, r.o, r.p.R)
	h = hashing.NewBernoulli(rng, r.lambda, math.Min(1, countRate/T))
	hp = hashing.NewBernoulli(rng, r.lambda, math.Min(1, partRate/(r.gamma*T)))
	hat = hashing.NewBernoulli(rng, r.lambda, r.p.Phi(T, r.g.Dim, r.g.L))
	return h, hp, hat
}

// GuessFromEstimate is the guess rule of Theorem 4.5: given an estimate
// Ê ≥ OPT^{(r)}_{k-clus}, take o = Ê/4 floored to a power of two, and at
// least 1, so that o ≤ OPT whenever the estimate is within 4× of optimal.
// A smaller o only enlarges the coreset; a larger one can lose mass.
func GuessFromEstimate(est float64) float64 {
	o := est / 4
	if o < 1 {
		return 1
	}
	return math.Exp2(math.Floor(math.Log2(o)))
}

// Query is one guess's plan step (Algorithm 4 steps 4–5): the partition
// of Algorithm 1, the plan of Algorithm 2, and the levels assembly reads.
type Query struct {
	Part *partition.Partition
	Plan *Plan
	Need []bool // Need[i]: level i hosts an included part (nil when the plan FAILs)

	params Params
}

// PlanQuery runs the plan step for guess o on g over n live points. The
// root cell G_{−1} holds all n, so counts (the h-substream's estimates,
// for heavy marking) and partCounts (h′'s, for part masses) answer only
// levels ≥ 0; partition.BuildLazy consults a level only while it can
// still hold heavy or crucial cells. A consulted level that is
// unavailable returns its partition.ErrCounts. A plan that FAILs
// Algorithm 2 is returned with a nil error and Plan.FailWhy set.
func PlanQuery(g *grid.Grid, p Params, o float64, n int64, counts, partCounts partition.CountSource) (*Query, error) {
	rootIdx := make([]int64, g.Dim)
	root := []partition.Cell{{Key: g.KeyOf(-1, rootIdx), CellTau: partition.CellTau{Index: rootIdx, Tau: float64(n)}}}
	withRoot := func(src partition.CountSource) partition.CountSource {
		return func(level int) ([]partition.Cell, bool) {
			if level == -1 {
				return root, true
			}
			return src(level)
		}
	}
	part, err := partition.BuildLazy(g, p.R, o, withRoot(counts), withRoot(partCounts))
	if err != nil {
		return nil, err
	}
	q := &Query{Part: part, Plan: BuildPlan(part, p), params: p}
	if !q.Plan.Failed() {
		q.Need = make([]bool, g.L+1)
		for id := range q.Plan.Included {
			q.Need[id.Level] = true
		}
	}
	return q, nil
}

// PointSource hands assembly the recovered ĥ-substream points of one
// level i that keep accepts: each distinct point once with its
// multiplicity, in the order they enter the coreset, when keep.Keep
// accepts the keys of its level-(i−1) and level-i cells
// (grid.PointKeys). A non-nil error aborts assembly and is returned as
// is.
type PointSource func(level int, keep *partition.PartFilter, yield func(p geo.Point, mult int64)) error

// Assemble is Algorithm 4 step 6 for a plan that did not FAIL: for each
// needed level in ascending order, it keeps the source's points whose
// level-i part is included, at weight multiplicity/φ_i. Membership is
// decided on the point's two cell keys by one partition.PartFilter per
// level, built from the level's included parts (the parent is one of
// theirs and the cell is not heavy), which the source applies. The kept
// points gather in a pooled buffer and the coreset is allocated once, at
// their exact count: no estimate bounds it, since the parts' τ counts
// points with multiplicity while the coreset holds each distinct point
// once, and a level's decoded candidates are several times what it keeps.
func (q *Query) Assemble(points PointSource) (*Coreset, error) {
	part, pl := q.Part, q.Plan
	cs := &Coreset{O: part.O, Grid: part.Grid, Part: part, Plan: pl, Params: q.params}
	parents := make([][]uint64, len(q.Need))
	for id := range pl.Included {
		parents[id.Level] = append(parents[id.Level], id.Parent)
	}
	buf := assemblePool.Get().(*assembleBuf)
	defer buf.release()
	for i, need := range q.Need {
		if !need {
			continue
		}
		phi := pl.Phi[i]
		err := points(i, part.Filter(i, parents[i]), func(p geo.Point, mult int64) {
			buf.points = append(buf.points, geo.Weighted{P: p, W: float64(mult) / phi})
			buf.levels = append(buf.levels, i)
		})
		if err != nil {
			return nil, err
		}
	}
	cs.Points = append(make([]geo.Weighted, 0, len(buf.points)), buf.points...)
	cs.Levels = append(make([]int, 0, len(buf.levels)), buf.levels...)
	return cs, nil
}

// assembleBuf gathers one assembly's kept points and levels. Assemblies
// run concurrently (the guess scan's workers), so buffers come from a
// pool and keep their capacity across queries.
type assembleBuf struct {
	points []geo.Weighted
	levels []int
}

var assemblePool = sync.Pool{New: func() any { return new(assembleBuf) }}

// release empties b and returns it to the pool. The kept points alias
// decoded sketch payloads, so they are cleared first: a pooled buffer
// must not keep a decode alive.
func (b *assembleBuf) release() {
	clear(b.points)
	b.points, b.levels = b.points[:0], b.levels[:0]
	assemblePool.Put(b)
}
