package obs

// Labeled metric vectors. A CounterVec/GaugeVec/HistogramVec is a family
// of metrics sharing one base name and a fixed label schema — shard id,
// substream, guess, protocol phase — each distinct label-value tuple
// resolving to its own Counter/Gauge/Histogram. The member metrics are
// registered in the backing Registry under the same canonical
// `name{l1="v1",...}` strings the instrumentation used to build by hand,
// so every read surface (Snapshot, WriteProm, WriteJSON, expvar) and the
// ad-hoc obs.C(`name{label="x"}`) handles stay byte-compatible: a vector
// is a fast lookup front-end, not a new metric kind.
//
// Resolution is a lock-free read over an open-addressed interning table:
// the label values are hashed (FNV-1a), probed against an immutable slot
// array reached through one atomic pointer load, and compared
// element-wise — no allocation, no mutex, no name formatting on the hit
// path. Only the first use of a tuple takes the vector mutex to format
// the canonical name, register the metric and publish a grown table.
// Entries are never deleted (label sets are bounded by construction:
// shards, substreams, levels, phases), which is what makes the
// immutable-table scheme sound.
//
// The mutating helpers (Inc/Add/Set/Observe with trailing label values)
// check the global enable flag before resolving, so the disabled path
// costs one atomic load like every other metric call — gated by
// TestDisabledVecOverheadBudget alongside the scalar budget. Hot loops
// that already hold their labels at construction time should resolve
// once via With and keep the returned handle, exactly like obs.C.

import (
	"strings"
	"sync"
	"sync/atomic"
)

// vecEntry is one interned (label values → metric) binding. Immutable
// after publication.
type vecEntry[M any] struct {
	hash uint64
	vals []string
	m    *M
}

// vecTable is an immutable open-addressed probe array. Readers reach it
// through one atomic pointer load; writers replace it wholesale on grow.
type vecTable[M any] struct {
	mask  uint64
	slots []atomic.Pointer[vecEntry[M]]
}

func (t *vecTable[M]) get(h uint64, vals []string) *M {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.hash == h && valsEqual(e.vals, vals) {
			return e.m
		}
	}
}

func valsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashVals is FNV-1a over the label values with a 0xff fold between
// values so ["a","b"] and ["ab",""] hash apart. Collisions are
// harmless — lookup verifies element-wise equality — they only cost
// probe length.
func hashVals(vals []string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, v := range vals {
		for i := 0; i < len(v); i++ {
			h = (h ^ uint64(v[i])) * prime64
		}
		h = (h ^ 0xff) * prime64
	}
	return h
}

// vec is the shared implementation behind the three vector types.
type vec[M any] struct {
	name   string
	labels []string
	reg    *Registry
	lookup func(*Registry, string) *M // Registry.Counter / .Gauge / .Histogram

	mu    sync.Mutex
	count int
	tab   atomic.Pointer[vecTable[M]]
}

func initVec[M any](v *vec[M], r *Registry, name string, labels []string, lookup func(*Registry, string) *M) {
	if r == nil {
		r = Default
	}
	v.name, v.labels, v.reg, v.lookup = name, labels, r, lookup
	v.tab.Store(&vecTable[M]{mask: 7, slots: make([]atomic.Pointer[vecEntry[M]], 8)})
}

// with resolves the metric for one label-value tuple, interning it on
// first use. The hit path is lock-free and allocation-free.
func (v *vec[M]) with(vals []string) *M {
	if len(vals) != len(v.labels) {
		panic("obs: wrong label value count for vector " + v.name)
	}
	h := hashVals(vals)
	if m := v.tab.Load().get(h, vals); m != nil {
		return m
	}
	return v.miss(h, vals)
}

func (v *vec[M]) miss(h uint64, vals []string) *M {
	v.mu.Lock()
	defer v.mu.Unlock()
	t := v.tab.Load()
	if m := t.get(h, vals); m != nil { // raced with another miss
		return m
	}
	m := v.lookup(v.reg, FormatLabeled(v.name, v.labels, vals))
	e := &vecEntry[M]{hash: h, vals: append([]string(nil), vals...), m: m}
	v.count++
	if uint64(v.count)*2 > t.mask+1 { // keep load factor ≤ 1/2
		nt := &vecTable[M]{mask: (t.mask+1)*2 - 1, slots: make([]atomic.Pointer[vecEntry[M]], (t.mask+1)*2)}
		for i := range t.slots {
			if old := t.slots[i].Load(); old != nil {
				nt.insert(old)
			}
		}
		nt.insert(e)
		v.tab.Store(nt)
		return m
	}
	t.insert(e)
	return m
}

// insert places an entry in the first free probe slot. Callers hold the
// vector mutex; the atomic store publishes the entry to lock-free
// readers.
func (t *vecTable[M]) insert(e *vecEntry[M]) {
	for i := e.hash & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].Load() == nil {
			t.slots[i].Store(e)
			return
		}
	}
}

// FormatLabeled renders the canonical registry name of one member of a
// labeled family: `name{l1="v1",l2="v2"}` with Prometheus label-value
// escaping, or the bare name for an empty schema. It is the exact string
// the pre-vector instrumentation concatenated by hand, so vectors and
// ad-hoc obs.C lookups of the same labeled name share one metric.
func FormatLabeled(name string, labels, vals []string) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.Grow(len(name) + 16*len(labels))
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l)
		sb.WriteString(`="`)
		for j := 0; j < len(vals[i]); j++ {
			switch c := vals[i][j]; c {
			case '\\', '"':
				sb.WriteByte('\\')
				sb.WriteByte(c)
			case '\n':
				sb.WriteString(`\n`)
			default:
				sb.WriteByte(c)
			}
		}
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// CounterVec is a counter family keyed by a fixed label schema.
type CounterVec struct{ v vec[Counter] }

// CounterVec returns a counter family on this registry.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	c := &CounterVec{}
	initVec(&c.v, r, name, labels, (*Registry).Counter)
	return c
}

// CV returns a counter family on the Default registry.
func CV(name string, labels ...string) *CounterVec { return Default.CounterVec(name, labels...) }

// With resolves (interning on first use) the member counter for the
// given label values. Hot paths should call it once and keep the handle.
func (c *CounterVec) With(vals ...string) *Counter { return c.v.with(vals) }

// Inc increments the member counter when telemetry is enabled; disabled,
// it returns after one atomic load without resolving labels.
func (c *CounterVec) Inc(vals ...string) {
	if !enabled.Load() {
		return
	}
	c.v.with(vals).Inc()
}

// Add adds n to the member counter when telemetry is enabled.
func (c *CounterVec) Add(n int64, vals ...string) {
	if !enabled.Load() {
		return
	}
	c.v.with(vals).Add(n)
}

// GaugeVec is a gauge family keyed by a fixed label schema.
type GaugeVec struct{ v vec[Gauge] }

// GaugeVec returns a gauge family on this registry.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	g := &GaugeVec{}
	initVec(&g.v, r, name, labels, (*Registry).Gauge)
	return g
}

// With resolves the member gauge for the given label values.
func (g *GaugeVec) With(vals ...string) *Gauge { return g.v.with(vals) }

// Set stores v in the member gauge when telemetry is enabled.
func (g *GaugeVec) Set(val float64, vals ...string) {
	if !enabled.Load() {
		return
	}
	g.v.with(vals).Set(val)
}

// SetInt stores an integer value in the member gauge when telemetry is
// enabled.
func (g *GaugeVec) SetInt(val int64, vals ...string) { g.Set(float64(val), vals...) }

// HistogramVec is a histogram family keyed by a fixed label schema.
type HistogramVec struct{ v vec[Histogram] }

// HistogramVec returns a histogram family on this registry.
func (r *Registry) HistogramVec(name string, labels ...string) *HistogramVec {
	h := &HistogramVec{}
	initVec(&h.v, r, name, labels, (*Registry).Histogram)
	return h
}

// HV returns a histogram family on the Default registry.
func HV(name string, labels ...string) *HistogramVec { return Default.HistogramVec(name, labels...) }

// With resolves the member histogram for the given label values.
func (h *HistogramVec) With(vals ...string) *Histogram { return h.v.with(vals) }

// Observe records one value in the member histogram when telemetry is
// enabled.
func (h *HistogramVec) Observe(val int64, vals ...string) {
	if !enabled.Load() {
		return
	}
	h.v.with(vals).Observe(val)
}

// ObserveSince records the nanoseconds elapsed since a NowNano timestamp
// in the member histogram.
func (h *HistogramVec) ObserveSince(t0 int64, vals ...string) {
	if t0 == 0 || !enabled.Load() {
		return
	}
	h.v.with(vals).ObserveSince(t0)
}
