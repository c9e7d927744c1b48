package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"streambalance"
	"streambalance/internal/obs"
)

const manifestPath = "../BENCHMARK.json"

// smokeScale shrinks inputs and sketch budgets 16× so that every workload,
// untraced and traced, runs in a few seconds.
const smokeScale = "0.0625"

func runBench(t *testing.T, args ...string) (int, report, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	var res result
	if len(lines) >= 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
			t.Fatalf("report line: %v\n%s", err, out.String())
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("result line: %v\n%s", err, out.String())
		}
	}
	return code, rep, res, errOut.String()
}

type unitDir struct{ unit, better string }

// TestWorkloadsSmoke runs every workload untraced and traced at a small
// scale: every check passes, no operation fails, and the metrics emitted
// are exactly those BENCHMARK.json lists, with the same units, so the
// manifest and the program cannot drift apart.
func TestWorkloadsSmoke(t *testing.T) {
	man, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("workloads: program has %v, manifest %v", got, names)
	}
	want := map[string]map[string]unitDir{"0": {}, "1": {}}
	for _, m := range man.EndToEnd {
		want["0"][m.Name] = unitDir{m.Unit, m.Better}
	}
	for _, m := range man.PerLayer {
		want["1"][m.Name] = unitDir{m.Unit, m.Better}
	}
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		got := map[string]unitDir{}
		for _, d := range defs {
			got[d.name] = unitDir{d.unit, d.better}
		}
		if !equalDefs(got, want[trace]) {
			t.Errorf("trace %s: program defines %v, manifest lists %v", trace, got, want[trace])
		}
	}

	dir := t.TempDir()
	for _, w := range names {
		for _, trace := range []string{"0", "1"} {
			code, rep, res, stderr := runBench(t, "-workload", w, "-seed", "3", "-seconds", "0.2",
				"-scale", smokeScale, "-trace", trace, "-spans", dir)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: exit %d, correct %v, failed %d of %d; checks %+v\n%s",
					w, trace, code, res.Correct, res.Failed, res.Attempted, rep.Checks, stderr)
			}
			got := map[string]unitDir{}
			for name, v := range res.Metrics {
				got[name] = unitDir{v.Unit, want[trace][name].better}
			}
			if !equalDefs(got, want[trace]) {
				t.Errorf("%s trace %s: emitted %v, manifest lists %v", w, trace, got, want[trace])
			}
			if trace == "1" {
				if _, err := os.Stat(filepath.Join(dir, w+".spans.json")); err != nil {
					t.Errorf("%s: spans file: %v", w, err)
				}
			}
		}
	}
}

func equalDefs(a, b map[string]unitDir) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 200; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 100}, {0.95, 190}} {
		if v, ok, why := percentile(xs, c.q); !ok || v != c.want {
			t.Errorf("p%g of 1..200 = %v, %v (%s), want %v", 100*c.q, v, ok, why, c.want)
		}
	}
	// 100 samples leave 5 beyond p95: too few to report it.
	if v, ok, why := percentile(xs[100:], 0.95); ok || why == "" {
		t.Errorf("p95 of 100 samples = %v, ok %v, reason %q; want not ok with a reason", v, ok, why)
	}
	if _, ok, _ := percentile(xs[100:], 0.5); !ok {
		t.Error("p50 of 100 samples not reported")
	}
	if _, ok, why := percentile(nil, 0.5); ok || why == "" {
		t.Error("p50 of no samples reported")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// TestStrongRatioCatchesInflatedWeight: the exact coreset Q′ = Q passes;
// tripling the weight of the point that dominates the cost must fail.
func TestStrongRatioCatchesInflatedWeight(t *testing.T) {
	var q []streambalance.Weighted
	for _, c := range mixtureCenters {
		for dx := int64(-5); dx < 5; dx++ {
			for dy := int64(-5); dy < 5; dy++ {
				q = append(q, streambalance.Weighted{P: streambalance.Point{c[0] + dx, c[1] + dy}, W: 1})
			}
		}
	}
	q = append(q, streambalance.Weighted{P: streambalance.Point{2048, 2048}, W: 1}) // far from every center

	o := &outcome{}
	o.checkQuality(&streambalance.Coreset{Points: q}, nil, q, mixtureCenters)
	inflated := append([]streambalance.Weighted(nil), q...)
	inflated[len(inflated)-1].W *= 3
	o.checkQuality(&streambalance.Coreset{Points: inflated}, nil, q, mixtureCenters)
	if len(o.checks) != 2 || !o.checks[0].OK || o.checks[1].OK {
		t.Fatalf("want exact coreset to pass and inflated one to fail, got %+v", o.checks)
	}
}

// TestLinearityCheckDetectsMismatch: an ensemble that reached a multiset
// through churn matches a fresh one fed that multiset in one Apply, and
// not one fed the multiset less one point.
func TestLinearityCheckDetectsMismatch(t *testing.T) {
	e := env{seed: 7, sz: sizesFor(0.0625)}
	cfg := streamConfig(e)
	a, err := streambalance.NewAutoStream(cfg, oFactor)
	if err != nil {
		t.Fatal(err)
	}
	ps := mixture(rand.New(rand.NewSource(e.seed)), 300)
	a.Apply(inserts(ps))
	var del []streambalance.Op
	for _, p := range ps[:100] {
		del = append(del, streambalance.Op{P: p, Delete: true})
	}
	a.Apply(del)
	live := aggregate(ps[100:], nil)
	if err := checkLinearity(cfg, live, a.StateDigest()); err != nil {
		t.Fatalf("net multiset: %v", err)
	}
	live[0].W--
	if err := checkLinearity(cfg, live, a.StateDigest()); err == nil {
		t.Fatal("a multiset missing one point passed the linearity check")
	}
}

// TestFailedResultCounts: with sketch budgets too small for any guess to
// decode, every query fails; the run still completes, counts each
// failure, and fails its checks instead of aborting.
func TestFailedResultCounts(t *testing.T) {
	e := env{seed: 1, seconds: 0.01, sz: sizesFor(0.0625)}
	e.sz.cellSparsity, e.sz.pointSparsity = 1, 1
	o, err := serveChurn(e)
	if err != nil {
		t.Fatal(err)
	}
	if o.m.attempted < serveCheckAt || o.m.failed != o.m.attempted {
		t.Errorf("failed %d of %d queries, want all of at least %d", o.m.failed, o.m.attempted, serveCheckAt)
	}
	var failedChecks int
	for _, c := range o.checks {
		if !c.OK {
			failedChecks++
		}
	}
	if failedChecks == 0 {
		t.Errorf("no check failed: %+v", o.checks)
	}
}

func TestRefusesMoreProcsThanCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	if code := run([]string{"-workload", "bulk_churn"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("exit %d with GOMAXPROCS above NumCPU, want 2", code)
	}
}

// TestCompareFlagsDifferences: two identical sets agree; a set whose
// end-to-end medians moved beyond their bounds makes compare exit 1, and
// so does one seed's coreset size moving by less than its bound.
func TestCompareFlagsDifferences(t *testing.T) {
	man, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	write := func(dir string, value func(metric string, seed int) float64) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for seed := 1; seed <= 3; seed++ {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
			for _, m := range man.EndToEnd {
				res.Metrics[m.Name] = metricValue{value(m.Name, seed), m.Unit}
			}
			var b bytes.Buffer
			enc := json.NewEncoder(&b)
			if err := enc.Encode(report{Workload: "bulk_churn", Seed: int64(seed), Meta: meta()}); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(res); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "run"+string(rune('0'+seed))+".json"), b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := func(_ string, seed int) float64 { return float64(100 + seed) }
	root := t.TempDir()
	dir := func(name string) string { return filepath.Join(root, name) }
	write(dir("a"), base)
	write(dir("same"), base)
	write(dir("moved"), func(m string, seed int) float64 { return 2 * base(m, seed) })
	write(dir("nudged"), func(m string, seed int) float64 {
		if m == "coreset_points" && seed == 2 {
			return base(m, seed) + 1
		}
		return base(m, seed)
	})
	for _, c := range []struct {
		set  string
		want int
	}{{"same", 0}, {"moved", 1}, {"nudged", 1}} {
		var out bytes.Buffer
		if code := compareDirs([]string{dir("a"), dir(c.set)}, manifestPath, &out, io.Discard); code != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.set, code, c.want, out.String())
		}
	}
}

// TestMisnestedSpans: a well-formed round passes; a bench call overlapping
// its predecessor, a select outside Result and an extract outside select
// each count once.
func TestMisnestedSpans(t *testing.T) {
	ev := func(name string, start, dur int64) obs.Event { return obs.Event{Name: name, Start: start, Dur: dur} }
	root := ev("bench.round", 0, 100)
	apply, res := ev("bench.apply", 0, 40), ev("bench.result", 40, 60)
	sel, ext := ev("stream.select", 45, 50), ev("stream.extract", 50, 10)
	if n := misnested(root, []obs.Event{res, apply}, []obs.Event{sel}, []obs.Event{ext}); n != 0 {
		t.Errorf("well-formed round: %d misnested, want 0", n)
	}
	overlap := ev("bench.result", 30, 70)
	stray := ev("stream.select", 10, 20)
	if n := misnested(root, []obs.Event{apply, overlap}, []obs.Event{stray}, []obs.Event{ev("stream.extract", 90, 20)}); n != 3 {
		t.Errorf("broken round: %d misnested, want 3", n)
	}
}
