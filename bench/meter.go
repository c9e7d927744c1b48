package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"streambalance"
	"streambalance/internal/obs"
	"streambalance/internal/sketch"
)

// layer accumulates one layer's calls over the recorded rounds.
type layer struct {
	secs  []float64 // wall seconds per call
	units int64     // work through the layer: ops for ingest, points for dist
	alloc uint64    // heap bytes allocated during the calls (traced rounds)
}

// meter drives the closed loop — one client, one outstanding call — and
// times each layer from outside by wrapping its public calls. In an
// untraced run every round is recorded. In a traced run odd rounds run
// with obs metrics and spans on and are recorded; even rounds run with
// them off and serve only as the baseline for the tracing overhead, so
// both halves see the same evolving state.
type meter struct {
	tracing bool
	rec     bool // the current round's layer calls are recorded
	traced  bool // the current round records spans and counters
	root    obs.Span

	ingest, query, dist, solve layer

	walls             []float64 // seconds per recorded round
	recSecs           float64   // Σ wall seconds of recorded operations, rounds or not
	baseline          []float64 // traced run: seconds per untraced round
	attempted, failed int

	// Traced-run detail.
	cache       func() sketch.CacheStats // decode-cache counters of the ensemble, if any
	delta       map[string]float64       // counter increments summed over traced rounds
	heapPeak    float64                  // bytes, sampled around traced rounds
	dirty, unit int                      // DirtyLevels sums before traced queries
	succeeded   int                      // traced queries that returned a coreset
	self        map[string]float64       // self nanoseconds per layer from the spans
	rootSecs    float64                  // Σ bench.round span durations
	tracedSecs  float64                  // Σ traced rounds' wall time, timed outside the spans
	misnested   int                      // spans that break the round's tree (see misnested)
	events      []obs.Event
	dropped     int64
}

func newMeter(tracing bool) *meter {
	return &meter{tracing: tracing, delta: map[string]float64{}, self: map[string]float64{}}
}

// round runs round r of the loop; f reports whether its operation
// succeeded.
func (m *meter) round(r int, f func() bool) {
	traced := m.tracing && r%2 == 1
	wall := m.run(traced, f)
	if m.rec {
		m.walls = append(m.walls, wall)
	} else {
		m.baseline = append(m.baseline, wall)
	}
}

// run executes one operation of the loop, counting it as attempted, and
// returns its wall time in seconds.
func (m *meter) run(traced bool, f func() bool) float64 {
	m.traced = traced
	m.rec = !m.tracing || traced
	var before map[string]float64
	if traced {
		before = m.read()
		obs.Enable()
		obs.Trace.Enable()
	}
	t0 := time.Now()
	m.root = obs.Trace.StartRoot("bench.round")
	ok := f()
	m.root.End()
	wall := time.Since(t0).Seconds()
	if traced {
		obs.Trace.Disable()
		obs.Disable()
		for k, v := range m.read() {
			m.delta[k] += v - before[k]
		}
		m.drain(wall)
	}
	if m.rec {
		m.recSecs += wall
	}
	m.traced = false
	m.attempted++
	if !ok {
		m.failed++
	}
	return wall
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// call times f as one call into layer l, under a child span of the
// current round.
func (m *meter) call(l *layer, name string, units int64, f func()) {
	sp := obs.Trace.StartChild(m.root.Context(), name)
	var a0 uint64
	if m.traced {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	f()
	secs := time.Since(t0).Seconds()
	sp.End()
	if m.traced {
		l.alloc += heapAllocs() - a0
	}
	if m.rec {
		l.secs = append(l.secs, secs)
		l.units += units
	}
}

func (m *meter) apply(a *streambalance.AutoStream, ops []streambalance.Op) {
	m.call(&m.ingest, "bench.apply", int64(len(ops)), func() { a.Apply(ops) })
}

func (m *meter) result(a *streambalance.AutoStream) (cs *streambalance.Coreset, err error) {
	if m.traced {
		d, n := a.DirtyLevels()
		m.dirty += d
		m.unit += n
	}
	m.call(&m.query, "bench.result", 1, func() { cs, err = a.Result() })
	if m.traced && err == nil {
		m.succeeded++
	}
	return cs, err
}

func (m *meter) distributed(machines [][]streambalance.Point, points int, cfg streambalance.DistConfig) (rep *streambalance.DistReport, err error) {
	m.call(&m.dist, "bench.dist", int64(points), func() { rep, err = streambalance.DistributedCoreset(machines, cfg) })
	return rep, err
}

func (m *meter) solveCapacitated(ws []streambalance.Weighted, t float64, opt streambalance.SolveOptions) (sol streambalance.Solution, ok bool) {
	m.call(&m.solve, "bench.solve", 1, func() { sol, ok = streambalance.SolveCapacitated(ws, k, t, opt) })
	return sol, ok
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

// read samples every counter the per-layer metrics are built from. Obs
// counters only move while obs is enabled, i.e. in traced rounds; the
// cache and runtime counters always move, so the meter sums
// after-minus-before over traced rounds for all of them alike.
func (m *meter) read() map[string]float64 {
	c := map[string]float64{
		"ops":            float64(obs.C("stream_ops_total").Load()),
		"sketch_updates": float64(obs.C("stream_sketch_updates_total").Load()),
		"guess_attempts": float64(obs.C("stream_guess_attempts_total").Load()),
		"decode_fails":   float64(obs.C("sketch_decode_fail_total").Load()),
		"flow_pivots":    float64(obs.C("flow_pivots_total").Load()),
		"dist_frames":    float64(obs.C("dist_frames_total").Load()),
	}
	for _, s := range substreams {
		c["coalesce_in."+s] = float64(obs.C(obs.FormatLabeled("stream_coalesce_ops_in_total", []string{"substream"}, []string{s})).Load())
		c["coalesce_out."+s] = float64(obs.C(obs.FormatLabeled("stream_coalesce_keys_out_total", []string{"substream"}, []string{s})).Load())
	}
	for name, h := range map[string]*obs.Histogram{
		"decode":  obs.H("sketch_decode_ns"),
		"flow":    obs.H("flow_solve_ns"),
		"machine": obs.H("dist_machine_compute_ns"),
	} {
		c[name+"_count"] = float64(h.Count())
		c[name+"_ns"] = float64(h.Sum())
	}
	if m.cache != nil {
		cs := m.cache()
		c["cache_hits"] = float64(cs.Hits)
		c["cache_misses"] = float64(cs.Misses)
		c["cache_stale"] = float64(cs.Stale)
		c["cache_splices"] = float64(cs.Splices)
		c["cache_fallbacks"] = float64(cs.SpliceFallbacks)
	}
	metrics.Read(runtimeSamples)
	c["gc_cpu"] = runtimeSamples[0].Value.Float64()
	c["all_cpu"] = runtimeSamples[1].Value.Float64()
	c["gc_cycles"] = float64(runtimeSamples[2].Value.Uint64())
	if heap := float64(runtimeSamples[3].Value.Uint64()); heap > m.heapPeak {
		m.heapPeak = heap
	}
	return c
}

var substreams = []string{"h", "hp", "hat"}

// drain moves the round's spans out of the tracer's ring — it holds only
// 4,096 — and attributes them to layers. The bench's own spans form one
// tree per round (bench.round over bench.apply/result/dist/solve); the
// program's stream.select and stream.extract spans are flat, so they are
// attributed by interval containment. A layer's self time is its span
// minus the part of it that its child spans cover.
func (m *meter) drain(wall float64) {
	evs := obs.Trace.Events()
	m.dropped += obs.Trace.Dropped()
	obs.Trace.Reset()
	m.events = append(m.events, evs...)

	var root obs.Event
	for _, ev := range evs {
		if ev.Name == "bench.round" {
			root = ev
		}
	}
	var children, selects, extracts []obs.Event
	for _, ev := range evs {
		switch {
		case ev.Parent != "" && ev.Parent == root.Span:
			children = append(children, ev)
		case ev.Name == "stream.select":
			selects = append(selects, ev)
		case ev.Name == "stream.extract":
			extracts = append(extracts, ev)
		}
	}
	benchSelf := float64(root.Dur) - covered(root, children)
	for _, c := range children {
		if c.Name == "bench.result" {
			// Result's time is stream.select's; the wrapper's own time
			// around it is the bench's.
			benchSelf += float64(c.Dur) - covered(c, selects)
			continue
		}
		m.self[c.Name] += float64(c.Dur)
	}
	for _, s := range selects {
		inner := covered(s, extracts)
		m.self["stream.select"] += float64(s.Dur) - inner
		m.self["stream.extract"] += inner
	}
	m.self["bench"] += benchSelf
	m.rootSecs += float64(root.Dur) / 1e9
	m.tracedSecs += wall
	m.misnested += misnested(root, children, selects, extracts)
}

// misnested counts the round's spans that break the tree the attribution
// assumes: a bench call outside its round or overlapping the call before
// it (the loop has one call outstanding), a stream.select outside every
// bench.result, or a stream.extract outside every stream.select.
func misnested(root obs.Event, children, selects, extracts []obs.Event) int {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var n int
	var results []obs.Event
	end := root.Start
	for _, c := range children {
		if !inside(c, root) || c.Start < end {
			n++
		}
		end = max(end, c.Start+c.Dur)
		if c.Name == "bench.result" {
			results = append(results, c)
		}
	}
	for _, s := range selects {
		if !insideAny(s, results) {
			n++
		}
	}
	for _, x := range extracts {
		if !insideAny(x, selects) {
			n++
		}
	}
	return n
}

func inside(c, p obs.Event) bool { return c.Start >= p.Start && c.Start+c.Dur <= p.Start+p.Dur }

func insideAny(c obs.Event, ps []obs.Event) bool {
	for _, p := range ps {
		if inside(c, p) {
			return true
		}
	}
	return false
}

// covered returns how many nanoseconds of parent's interval the union of
// the children's intervals covers.
func covered(parent obs.Event, children []obs.Event) float64 {
	lo, hi := parent.Start, parent.Start+parent.Dur
	var ivs [][2]int64
	for _, c := range children {
		s, e := max(c.Start, lo), min(c.Start+c.Dur, hi)
		if s < e {
			ivs = append(ivs, [2]int64{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		s := max(iv[0], end)
		if iv[1] > s {
			total += iv[1] - s
			end = iv[1]
		}
	}
	return float64(total)
}
