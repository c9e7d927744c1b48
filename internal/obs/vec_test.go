package obs

import (
	"strconv"
	"sync"
	"testing"
)

func TestFormatLabeled(t *testing.T) {
	cases := []struct {
		name   string
		labels []string
		vals   []string
		want   string
	}{
		{"m", nil, nil, "m"},
		{"ops", []string{"shard"}, []string{"3"}, `ops{shard="3"}`},
		{"bits", []string{"phase", "round"}, []string{"round2-h", "1"}, `bits{phase="round2-h",round="1"}`},
		{"esc", []string{"l"}, []string{`a"b\c` + "\n"}, `esc{l="a\"b\\c\n"}`},
	}
	for _, c := range cases {
		if got := FormatLabeled(c.name, c.labels, c.vals); got != c.want {
			t.Errorf("FormatLabeled(%q, %v, %v) = %q, want %q", c.name, c.labels, c.vals, got, c.want)
		}
	}
}

// Vectors must be a pure front-end over the registry name space: a vector
// member and an ad-hoc obs-style lookup of the hand-built labeled name
// resolve to the same metric, so migrated call sites keep feeding the
// metrics existing dashboards scrape.
func TestVecSharesMetricWithAdHocName(t *testing.T) {
	r := NewRegistry()
	prev := Enabled()
	Enable()
	defer SetEnabled(prev)
	cv := r.CounterVec("vt_shared_total", "shard")
	cv.With("7").Add(3)
	r.Counter(`vt_shared_total{shard="7"}`).Add(2)
	if got := cv.With("7").Load(); got != 5 {
		t.Fatalf("vector member and ad-hoc handle diverged: got %d, want 5", got)
	}
	snap := r.Snapshot()
	if snap.Counters[`vt_shared_total{shard="7"}`] != 5 {
		t.Fatalf("snapshot missing canonical labeled name: %v", snap.Counters)
	}
}

func TestVecWrongArity(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("vt_arity_total", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("With with wrong label value count did not panic")
		}
	}()
	cv.With("only-one")
}

// Interning must survive growth well past the initial 8-slot table and
// keep every handle stable across the table swaps.
func TestVecGrowth(t *testing.T) {
	r := NewRegistry()
	prev := Enabled()
	Enable()
	defer SetEnabled(prev)
	cv := r.CounterVec("vt_grow_total", "i")
	handles := make([]*Counter, 100)
	for i := range handles {
		handles[i] = cv.With(strconv.Itoa(i))
		handles[i].Add(int64(i))
	}
	for i, h := range handles {
		if again := cv.With(strconv.Itoa(i)); again != h {
			t.Fatalf("handle for i=%d changed identity after growth", i)
		}
		if h.Load() != int64(i) {
			t.Fatalf("handle for i=%d lost its value: %d", i, h.Load())
		}
	}
}

func TestGaugeAndHistogramVec(t *testing.T) {
	r := NewRegistry()
	prev := Enabled()
	Enable()
	defer SetEnabled(prev)

	gv := r.GaugeVec("vt_depth", "shard")
	gv.SetInt(42, "0")
	if got := gv.With("0").Load(); got != 42 {
		t.Fatalf("gauge member = %v, want 42", got)
	}

	hv := r.HistogramVec("vt_lat_ns", "round")
	hv.Observe(100, "1")
	hv.Observe(200, "1")
	if c, s := hv.With("1").Count(), hv.With("1").Sum(); c != 2 || s != 300 {
		t.Fatalf("histogram member = (%d, %d), want (2, 300)", c, s)
	}
	snap := r.Snapshot()
	if _, ok := snap.Hists[`vt_lat_ns{round="1"}`]; !ok {
		t.Fatalf("histogram member missing from snapshot: %v", snap.Hists)
	}
}

// Disabled mutators must not intern: a process with telemetry off should
// not grow label tables (nor allocate) from hot-path Inc calls.
func TestVecDisabledDoesNotIntern(t *testing.T) {
	r := NewRegistry()
	prev := Enabled()
	Disable()
	cv := r.CounterVec("vt_off_total", "k")
	cv.Inc("a")
	cv.Add(5, "b")
	SetEnabled(prev)
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Fatalf("disabled Inc/Add interned %d members, want 0", n)
	}
}

// Concurrent first-use of overlapping label tuples exercises the
// lock-free read path against miss-path table swaps; run under -race by
// `make check`.
func TestVecConcurrent(t *testing.T) {
	r := NewRegistry()
	prev := Enabled()
	Enable()
	defer SetEnabled(prev)
	cv := r.CounterVec("vt_conc_total", "w")

	const workers, perWorker, distinct = 8, 1000, 17
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cv.Inc(strconv.Itoa(i % distinct))
			}
		}()
	}
	wg.Wait()

	var total int64
	for i := 0; i < distinct; i++ {
		total += cv.With(strconv.Itoa(i)).Load()
	}
	if want := int64(workers * perWorker); total != want {
		t.Fatalf("concurrent increments lost: got %d, want %d", total, want)
	}
}
