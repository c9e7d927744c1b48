// Command bench is the end-to-end benchmark of the streaming balanced
// clustering system. One process runs one workload through the public
// facade, times every layer from outside by wrapping its public calls,
// checks that the outputs are correct and prints its metrics:
//
//	bench -workload serve_churn -seed 1 -seconds 15 -trace 0
//	bench -workload serve_churn -seed 1 -seconds 15 -trace 1 -spans out/
//	bench -compare runsA/ runsB/
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json in an untraced run, its per-layer metrics in a traced
// one. The line before it is a report with the run's meta stamps, its
// check results and sample counts. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"streambalance/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricDef struct {
	name, unit, better string
	value              func(o *outcome) float64
}

const mib = 1 << 20

// endToEnd are the metrics a user of the system sees, reported by every
// workload in untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", func(o *outcome) float64 { return median(o.setup) }},
	{"round_p50_ms", "ms", "lower", func(o *outcome) float64 {
		v, _, _ := percentile(o.m.walls, 0.5)
		return 1000 * v
	}},
	{"ingest_ops_per_s", "ops/s", "higher", func(o *outcome) float64 {
		l := &o.m.ingest
		if len(l.secs) == 0 {
			l = &o.m.dist
		}
		// Every call of a workload carries the same number of ops, so this
		// is the rate of the median call: a call that a GC cycle or the
		// host stalls moves it less than it moves a total.
		return ratio(ratio(float64(l.units), float64(len(l.secs))), median(l.secs))
	}},
	{"coreset_points", "count", "lower", func(o *outcome) float64 { return o.coresetPoints }},
	{"summary_kb", "KiB", "lower", func(o *outcome) float64 { return o.summaryKiB }},
	{"rss_peak_mb", "MiB", "lower", func(o *outcome) float64 { return o.rssMiB }},
}

func busy(o *outcome, l *layer) float64 { return ratio(sum(l.secs), o.m.recSecs) }

// rate is a layer's work units per second of its busy time.
func rate(l *layer, units float64) float64 { return ratio(units, sum(l.secs)) }

func perQuery(o *outcome, v float64) float64 { return ratio(v, float64(len(o.m.query.secs))) }

// perLayer are the metrics of single layers, reported by traced runs over
// their traced rounds. They are shares, rates and counts rather than
// times, so a layer a workload does not run reads 0 without posing as a
// measured time.
var perLayer = []metricDef{
	// stream, ingest: timed around Apply.
	{"stream.apply.busy_frac", "frac", "lower", func(o *outcome) float64 { return busy(o, &o.m.ingest) }},
	{"stream.apply.ops_per_s", "ops/s", "higher", func(o *outcome) float64 { return rate(&o.m.ingest, float64(o.m.ingest.units)) }},
	{"stream.apply.alloc_b_per_op", "B/op", "lower", func(o *outcome) float64 {
		return ratio(float64(o.m.ingest.alloc), float64(o.m.ingest.units))
	}},
	{"stream.fanout_per_op", "updates/op", "lower", func(o *outcome) float64 {
		return ratio(o.m.delta["sketch_updates"], o.m.delta["ops"])
	}},
	{"stream.coalesce.h", "ops/key", "higher", coalesce("h")},
	{"stream.coalesce.hp", "ops/key", "higher", coalesce("hp")},
	{"stream.coalesce.hat", "ops/key", "higher", coalesce("hat")},

	// stream, selection: timed around Result; stream.select and
	// stream.extract self times from the program's spans.
	{"stream.result.busy_frac", "frac", "lower", func(o *outcome) float64 { return busy(o, &o.m.query) }},
	{"stream.result.queries_per_s", "1/s", "higher", func(o *outcome) float64 {
		return rate(&o.m.query, float64(len(o.m.query.secs)))
	}},
	{"stream.select.self_frac", "frac", "lower", func(o *outcome) float64 {
		return ratio(o.m.self["stream.select"]/1e9, sum(o.m.query.secs))
	}},
	{"stream.extract.self_frac", "frac", "lower", func(o *outcome) float64 {
		return ratio(o.m.self["stream.extract"]/1e9, sum(o.m.query.secs))
	}},
	{"stream.guess.attempts_per_query", "count", "lower", func(o *outcome) float64 { return perQuery(o, o.m.delta["guess_attempts"]) }},
	{"stream.guess.useful_frac", "frac", "higher", func(o *outcome) float64 {
		return ratio(float64(o.m.succeeded), o.m.delta["guess_attempts"])
	}},
	{"stream.dirty_frac", "frac", "lower", func(o *outcome) float64 { return ratio(float64(o.m.dirty), float64(o.m.unit)) }},

	// sketch: decode and cache, from sketch_decode_ns and CacheStats.
	{"sketch.decodes_per_query", "count", "lower", func(o *outcome) float64 { return perQuery(o, o.m.delta["decode_count"]) }},
	{"sketch.decode.cpu_frac", "frac", "lower", func(o *outcome) float64 {
		return ratio(o.m.delta["decode_ns"]/1e9, sum(o.m.query.secs))
	}},
	{"sketch.decode.fail_frac", "frac", "lower", func(o *outcome) float64 {
		return ratio(o.m.delta["decode_fails"], o.m.delta["decode_count"])
	}},
	{"sketch.cache.hit_frac", "frac", "higher", func(o *outcome) float64 {
		d := o.m.delta
		return ratio(d["cache_hits"], d["cache_hits"]+d["cache_misses"]+d["cache_stale"])
	}},
	{"sketch.cache.splice_frac", "frac", "higher", func(o *outcome) float64 {
		d := o.m.delta
		return ratio(d["cache_splices"], d["cache_splices"]+d["cache_fallbacks"]+d["cache_misses"])
	}},
	{"sketch.cache_mb", "MiB", "lower", func(o *outcome) float64 { return o.cacheMiB }},

	// solve, assign and flow: timed around SolveCapacitated.
	{"solve.busy_frac", "frac", "lower", func(o *outcome) float64 { return busy(o, &o.m.solve) }},
	{"solve.answers_per_s", "1/s", "higher", func(o *outcome) float64 {
		return rate(&o.m.solve, float64(len(o.m.solve.secs)))
	}},
	{"solve.alloc_mb", "MiB", "lower", func(o *outcome) float64 {
		return ratio(float64(o.m.solve.alloc)/mib, float64(len(o.m.solve.secs)))
	}},
	{"flow.solves_per_answer", "count", "lower", func(o *outcome) float64 {
		return ratio(o.m.delta["flow_count"], float64(len(o.m.solve.secs)))
	}},
	{"flow.pivots_per_solve", "count", "lower", func(o *outcome) float64 {
		return ratio(o.m.delta["flow_pivots"], o.m.delta["flow_count"])
	}},
	{"flow.cpu_frac", "frac", "lower", func(o *outcome) float64 {
		return ratio(o.m.delta["flow_ns"]/1e9, sum(o.m.solve.secs))
	}},

	// dist: timed around DistributedCoreset.
	{"dist.busy_frac", "frac", "lower", func(o *outcome) float64 { return busy(o, &o.m.dist) }},
	{"dist.points_per_s", "points/s", "higher", func(o *outcome) float64 { return rate(&o.m.dist, float64(o.m.dist.units)) }},
	{"dist.frames_per_run", "count", "lower", func(o *outcome) float64 {
		return ratio(o.m.delta["dist_frames"], float64(len(o.m.dist.secs)))
	}},
	{"dist.wire_over_formula", "ratio", "lower", func(o *outcome) float64 { return o.wireRatio }},
	{"dist.machine_cpu_frac", "frac", "lower", func(o *outcome) float64 {
		return ratio(o.m.delta["machine_ns"]/1e9, sum(o.m.dist.secs))
	}},

	// runtime, through runtime/metrics.
	{"go.gc_cpu_frac", "frac", "lower", func(o *outcome) float64 { return ratio(o.m.delta["gc_cpu"], o.m.delta["all_cpu"]) }},
	{"go.gc_per_s", "1/s", "lower", func(o *outcome) float64 { return ratio(o.m.delta["gc_cycles"], o.m.recSecs) }},
	{"go.heap_peak_mb", "MiB", "lower", func(o *outcome) float64 { return o.m.heapPeak / mib }},

	// obs and the bench itself.
	{"obs.overhead_frac", "frac", "lower", func(o *outcome) float64 {
		if len(o.m.baseline) == 0 {
			return 0
		}
		return median(o.m.walls)/median(o.m.baseline) - 1
	}},
	{"obs.spans_dropped", "count", "lower", func(o *outcome) float64 { return float64(o.m.dropped) }},
	{"bench.self_frac", "frac", "lower", func(o *outcome) float64 { return ratio(o.m.self["bench"]/1e9, o.m.rootSecs) }},
}

func coalesce(s string) func(o *outcome) float64 {
	return func(o *outcome) float64 {
		return ratio(o.m.delta["coalesce_in."+s], o.m.delta["coalesce_out."+s])
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Meta     map[string]any `json:"meta"`
	Checks   []check        `json:"checks"`
	Samples  map[string]int `json:"samples"`
	Notes    map[string]any `json:"notes"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: bulk_churn, serve_churn, hot_sites or place_dist")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fl.Float64("seconds", 25, "how long the closed loop runs, beyond its minimum round count")
	trace := fl.Int("trace", 0, "1 = traced run: obs on in alternate rounds, per-layer metrics")
	spans := fl.String("spans", "", "traced runs: write the recorded spans to `DIR`/<workload>.spans.json")
	scale := fl.Float64("scale", 1, "scale inputs and sketch budgets (tests use small values)")
	compare := fl.Bool("compare", false, "compare two directories of run outputs: bench -compare A/ B/")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareDirs(fl.Args(), "BENCHMARK.json", stdout, stderr)
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "bench: refusing to run with GOMAXPROCS=%d above NumCPU=%d: the load would not fit the machine\n", procs, cpus)
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (one of %s), -seconds > 0, -scale > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e := env{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: sizesFor(*scale)}
	o, err := wl(e)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if e.trace {
		m := o.m
		o.check("spans_dropped", m.dropped == 0, "%d spans overwritten in the tracer's ring", m.dropped)
		// The layers' self times, without the bench's remainder, must
		// cover 90% of the wall time measured outside the spans: a layer
		// whose spans go missing or escape their parent leaves its time to
		// the remainder and fails this.
		var layers float64
		for name, ns := range m.self {
			if name != "bench" {
				layers += ns / 1e9
			}
		}
		o.check("trace_attribution", m.misnested == 0 && layers >= 0.9*m.tracedSecs,
			"%d spans outside their parent or overlapping a sibling; layer self times cover %.4f s of %.4f s traced wall, need 90%%",
			m.misnested, layers, m.tracedSecs)
		if *spans != "" {
			if err := writeSpans(filepath.Join(*spans, *name+".spans.json"), m.events); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
	}

	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := result{Correct: true, Attempted: o.m.attempted, Failed: o.m.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{finite(d.value(o)), d.unit}
	}
	for _, c := range o.checks {
		res.Correct = res.Correct && c.OK
	}
	rep := report{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: e.trace,
		Meta: meta(), Checks: o.checks,
		Samples: map[string]int{"rounds": len(o.m.walls), "setups": len(o.setup), "baseline_rounds": len(o.m.baseline)},
		Notes:   map[string]any{"fail_frac": ratio(float64(o.m.failed), float64(o.m.attempted)), "strong_ratio": finite(o.strong)},
	}
	if v, ok, why := percentile(o.m.walls, 0.95); ok {
		rep.Notes["round_p95_ms"] = 1000 * v
	} else {
		rep.Notes["round_p95_ms"] = nil
		rep.Notes["round_p95_reason"] = why
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// finite maps the non-finite values JSON cannot carry to 0; they only
// arise where a check has already failed.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeSpans(path string, events []obs.Event) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// meta stamps what a comparison between runs must hold fixed. The tree
// hash covers every *.go and go.mod file under the working directory, so
// it names the code that ran whether or not it was committed.
func meta() map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"tree_hash":  treeHash("."),
	}
}

func treeHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown: " + err.Error()
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
