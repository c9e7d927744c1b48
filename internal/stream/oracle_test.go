package stream

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/partition"
	"streambalance/internal/sketch"
	"streambalance/internal/workload"
)

// countOracle is Algorithm 3 in map-backed form — the sampled counts
// Lemma 4.1 analyses, with no sketch in between. For every unit of one
// Stream it keeps the exact net count of each key among the ops the
// unit's sampler selects: level-i cell keys for h_i and h′_i, point keys
// for ĥ_i. It reads the Stream's own grid, fingerprint and samplers, so
// it samples exactly the vectors the Storing sketches hold.
type countOracle struct {
	s      *Stream
	counts [3][]map[uint64]*oracleEntry // [substream][level]: key → entry
}

// oracleEntry is one key's payload — the cell index or the point — and
// its net sampled count.
type oracleEntry struct {
	payload []int64
	count   int64
}

func newCountOracle(s *Stream) *countOracle {
	o := &countOracle{s: s}
	for sub, us := range o.substreams() {
		for range us {
			o.counts[sub] = append(o.counts[sub], map[uint64]*oracleEntry{})
		}
	}
	return o
}

// substreams lists the Stream's units per substream, level by level.
func (o *countOracle) substreams() [3][]unit { return [3][]unit{o.s.h, o.s.hp, o.s.hat} }

func (o *countOracle) apply(ops []Op) {
	for _, op := range ops {
		key := o.s.fp.Key(op.P)
		d := int64(1)
		if op.Delete {
			d = -1
		}
		for sub, us := range o.substreams() {
			for i, u := range us {
				if !u.samp.Sample(key) {
					continue
				}
				k, payload := key, []int64(op.P)
				if sub < 2 {
					payload = o.s.g.CellIndex(op.P, i)
					k = o.s.g.KeyOf(i, payload)
				}
				m := o.counts[sub][i]
				e := m[k]
				if e == nil {
					e = &oracleEntry{payload: payload}
					m[k] = e
				}
				if e.count += d; e.count == 0 {
					delete(m, k)
				}
			}
		}
	}
}

// check decodes every unit of the oracle's Stream and holds it to the
// oracle: a decode must equal the surviving sampled counts exactly —
// keys, counts and payloads — and a vector
// whose support exceeds the sketch's capacity must FAIL. It returns how
// many units per substream decoded and matched, how many FAILed over
// budget, and how many matched units satisfy shared.
func (o *countOracle) check(t *testing.T, shared func(unit) bool) (matched [3]int, overFull, matchedShared int) {
	t.Helper()
	caps := [3]int{o.s.cfg.CellSparsity, o.s.cfg.CellSparsity, o.s.cfg.PointSparsity}
	for sub, us := range o.substreams() {
		for i, u := range us {
			want := o.counts[sub][i]
			items, ok := u.st.Result()
			if len(want) > caps[sub] {
				if ok {
					t.Fatalf("substream %d level %d: support %d > capacity %d, but the sketch decoded %d items",
						sub, i, len(want), caps[sub], len(items))
				}
				overFull++
				continue
			}
			if !ok {
				continue // an in-budget FAIL is allowed (w.h.p. rare); a wrong answer is not
			}
			if len(items) != len(want) {
				t.Fatalf("substream %d level %d: decoded %d keys, oracle %d", sub, i, len(items), len(want))
			}
			for _, it := range items {
				e := want[it.Key]
				if e == nil || it.Count != e.count || !slices.Equal(it.Payload, e.payload) {
					t.Fatalf("substream %d level %d key %d: decoded %d × %v, oracle %+v", sub, i, it.Key, it.Count, it.Payload, e)
				}
			}
			matched[sub]++
			if shared(u) {
				matchedShared++
			}
		}
	}
	return matched, overFull, matchedShared
}

// TestSketchesMatchCountOracle checks the sketch path against the
// algorithm rather than against a predecessor: on a churn stream with
// deletions, every h, h′ and ĥ level that decodes must equal the
// oracle's surviving sampled counts exactly, and every level whose
// support exceeds the sketch's capacity must FAIL. It runs on a
// standalone Stream fed op by op and through Apply, and on every guess
// of an Auto ensemble, whose rate-1 units are shared across guesses.
func TestSketchesMatchCountOracle(t *testing.T) {
	cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 81},
		CellSparsity: 128, PointSparsity: 256}
	ops := mixedOps(82, 3000)
	half := len(ops) / 2
	var total [3]int
	var overFull int
	noneShared := func(unit) bool { return false }

	c := cfg
	live, _ := testMixture(82, 3000)
	c.O = goodGuess(live, 3)
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	o := newCountOracle(s)
	for _, op := range ops[:half] {
		if op.Delete {
			s.Delete(op.P)
		} else {
			s.Insert(op.P)
		}
	}
	s.Apply(ops[half:])
	o.apply(ops)
	m, f, _ := o.check(t, noneShared)
	for k := range total {
		total[k] += m[k]
	}
	overFull += f

	a, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	holders := map[*sketch.Storing]int{}
	for _, g := range a.streams {
		for _, u := range g.units {
			holders[u.st]++
		}
	}
	a.Apply(ops[:half])
	a.Apply(ops[half:])
	var sharedMatched int
	for _, g := range a.streams {
		o := newCountOracle(g)
		o.apply(ops)
		m, f, sm := o.check(t, func(u unit) bool { return holders[u.st] > 1 })
		for k := range total {
			total[k] += m[k]
		}
		overFull += f
		sharedMatched += sm
	}
	t.Logf("matched h/h′/ĥ levels %v, over-full FAILs %d, matched shared units %d", total, overFull, sharedMatched)
	for sub, n := range total {
		if n == 0 {
			t.Fatalf("no level of substream %d decoded: nothing was compared", sub)
		}
	}
	if overFull == 0 {
		t.Fatal("no level exceeded its capacity: the FAIL side went unexercised")
	}
	if sharedMatched == 0 {
		t.Fatal("no shared rate-1 unit was compared")
	}
}

// oracleFixture is a 3-cluster mixture and a legitimate o: the cost at
// the true centers over 4.
func oracleFixture(seed int64, n int) (geo.PointSet, float64) {
	rng := rand.New(rand.NewSource(seed))
	ps, truec := workload.Mixture{N: n, D: 2, Delta: 1 << 10, K: 3, Spread: 9, Skew: 2}.Generate(rng)
	var opt float64
	for _, p := range ps {
		d, _ := geo.DistToSet(p, truec)
		opt += d * d
	}
	return ps, opt / 4
}

// oracleStream builds a Stream at guess o whose samplers the oracle
// reads; its sketches stay small, since only the samplers matter here.
func oracleStream(t *testing.T, seed int64, o float64, ps geo.PointSet) (*Stream, *countOracle) {
	t.Helper()
	s, err := New(Config{Dim: 2, Delta: 1 << 10, O: o, Params: coreset.Params{K: 3, R: 2, Seed: seed},
		CellSparsity: 16, PointSparsity: 16})
	if err != nil {
		t.Fatal(err)
	}
	oc := newCountOracle(s)
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = Op{P: p}
	}
	oc.apply(ops)
	return s, oc
}

// estimates returns substream sub's level-i cell estimates, sampled
// count / rate, in the form partition.BuildLazy consumes: sorted by key,
// each with its parent's key.
func (o *countOracle) estimates(sub, level int) []partition.Cell {
	u := o.substreams()[sub][level]
	out := make([]partition.Cell, 0, len(o.counts[sub][level]))
	for key, e := range o.counts[sub][level] {
		out = append(out, partition.Cell{Key: key, Parent: o.s.g.ParentKey(level, e.payload),
			CellTau: partition.CellTau{Index: e.payload, Tau: float64(e.count) / u.samp.Phi()}})
	}
	slices.SortFunc(out, func(a, b partition.Cell) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// goodCell reports whether an estimate satisfies Definition 3.1
// relative to the exact count and the level threshold: within ±0.1·T or
// within relSlack relative.
func goodCell(estimate, exact, T, relSlack float64) bool {
	d := math.Abs(estimate - exact)
	return d <= 0.1*T || d <= relSlack*exact
}

// TestLemma41CellEstimatesGood: Lemma 4.1 / Definition 3.1 — with the
// stream's rates ψ_i, every h-substream cell estimate is within
// ±0.1·T_i(o) or 1±35%. (The paper's 1±1% needs the 10⁶λ′ rate; the
// practical 256/T rate gives the wider band, which is what the
// heavy-marking thresholds tolerate.) The estimates are the oracle's
// exact sampled counts over the stream's own h samplers.
func TestLemma41CellEstimatesGood(t *testing.T) {
	ps, o := oracleFixture(1, 6000)
	s, oc := oracleStream(t, 2, o, ps)
	exact := partition.ExactCounts(s.g, ps)
	bad, total := 0, 0
	for level := range s.h {
		T := partition.ThresholdT(s.g, level, o, 2)
		est := map[uint64]float64{}
		for _, c := range oc.estimates(0, level) {
			est[c.Key] = c.Tau
		}
		for _, ct := range exact[level+1] {
			total++
			if !goodCell(est[ct.Key], ct.Tau, T, 0.35) { // zero if never sampled
				bad++
			}
		}
	}
	if total == 0 {
		t.Fatal("no cells")
	}
	t.Logf("%d bad of %d cell estimates", bad, total)
	// Lemma 4.1 promises goodness w.h.p. per cell; allow a small tail.
	if frac := float64(bad) / float64(total); frac > 0.02 {
		t.Fatalf("%.2f%% of %d cell estimates bad", 100*frac, total)
	}
}

// TestSampledCountsDrivePartition: the h and h′ estimates over the
// stream's samplers plug into BuildLazy and yield a partition close to
// the exact one — the same coverage and similar heavy-cell counts.
func TestSampledCountsDrivePartition(t *testing.T) {
	ps, o := oracleFixture(5, 5000)
	s, oc := oracleStream(t, 6, o, ps)
	root := func(level int) ([]partition.Cell, bool) {
		idx := make([]int64, s.g.Dim)
		return []partition.Cell{{Key: s.g.KeyOf(-1, idx), CellTau: partition.CellTau{Index: idx, Tau: float64(len(ps))}}}, true
	}
	source := func(sub int) partition.CountSource {
		return func(level int) ([]partition.Cell, bool) {
			if level == -1 {
				return root(level)
			}
			return oc.estimates(sub, level), true
		}
	}
	est, err := partition.BuildLazy(s.g, 2, o, source(0), source(1))
	if err != nil {
		t.Fatal(err)
	}
	counts := partition.ExactCounts(s.g, ps)
	exactSource := func(level int) ([]partition.Cell, bool) { return counts[level+1], true }
	exact, err := partition.BuildLazy(s.g, 2, o, exactSource, exactSource)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, p := range ps {
		if _, ok := est.PartOf(p); ok {
			covered++
		}
	}
	if float64(covered) < 0.98*float64(len(ps)) {
		t.Fatalf("estimated partition covers only %d/%d points", covered, len(ps))
	}
	he, hx := est.HeavyCount(), exact.HeavyCount()
	if he < hx/3 || he > hx*3 {
		t.Fatalf("estimated heavy cells %d far from exact %d", he, hx)
	}
}
