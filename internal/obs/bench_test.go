package obs

import (
	"testing"
	"time"
)

// The disabled fast path is the contract that lets hot loops carry
// unconditional instrumentation: DESIGN.md §9 budgets it at <2 ns/op
// (one atomic flag load + a predictable branch). BenchmarkDisabled*
// measure it; TestDisabledOverheadBudget gates it in `make check`
// with a deliberately loose ceiling so a loaded CI machine does not
// flake while a regression to, say, a mutex or a map lookup still
// fails loudly.

var benchCounter Counter
var benchHist Histogram
var benchSink int64

func BenchmarkDisabledCounter(b *testing.B) {
	prev := Enabled()
	Disable()
	defer SetEnabled(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

func BenchmarkDisabledHistogram(b *testing.B) {
	prev := Enabled()
	Disable()
	defer SetEnabled(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(int64(i))
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	prev := Trace.Enabled()
	Trace.Disable()
	defer func() {
		if prev {
			Trace.Enable()
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Trace.Start("bench")
		sp.End()
	}
}

var benchVec = CV("bench_vec_total", "shard")

func BenchmarkDisabledCounterVec(b *testing.B) {
	prev := Enabled()
	Disable()
	defer SetEnabled(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchVec.Inc("0")
	}
}

func BenchmarkEnabledCounterVec(b *testing.B) {
	prev := Enabled()
	Enable()
	defer SetEnabled(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchVec.Inc("0")
	}
	benchSink = benchVec.With("0").Load()
}

func BenchmarkEnabledCounter(b *testing.B) {
	prev := Enabled()
	Enable()
	defer SetEnabled(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
	benchSink = benchCounter.Load()
}

// TestDisabledOverheadBudget is the `make check` gate for the disabled
// fast path. The ceiling (25 ns/op) is ~10× the expected cost so shared
// CI hardware does not flake; a regression that adds a lock, a map
// lookup or an unconditional time.Now blows well past it. Run without
// -race: race instrumentation multiplies atomic-load cost by design.
func TestDisabledOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates atomic loads by design")
	}
	prev := Enabled()
	Disable()
	defer SetEnabled(prev)

	const iters = 2_000_000
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 5; attempt++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			benchCounter.Inc()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	perOp := float64(best.Nanoseconds()) / iters
	t.Logf("disabled counter fast path: %.2f ns/op (best of 5)", perOp)
	if perOp > 25 {
		t.Fatalf("disabled counter fast path costs %.1f ns/op, budget is 25 ns/op", perOp)
	}
}

// TestDisabledVecOverheadBudget holds labeled vectors to the same ceiling
// as scalar metrics: a disabled CounterVec.Inc must return on the flag
// load before touching label hashing or the interning table.
func TestDisabledVecOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates atomic loads by design")
	}
	prev := Enabled()
	Disable()
	defer SetEnabled(prev)

	const iters = 2_000_000
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 5; attempt++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			benchVec.Inc("0")
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	perOp := float64(best.Nanoseconds()) / iters
	t.Logf("disabled counter-vec fast path: %.2f ns/op (best of 5)", perOp)
	if perOp > 25 {
		t.Fatalf("disabled counter-vec fast path costs %.1f ns/op, budget is 25 ns/op", perOp)
	}
}
