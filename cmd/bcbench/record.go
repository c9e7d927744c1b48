// Benchmark recorder: `go test -run '^$' -bench … -benchmem -count 5 … |
// bcbench -record BENCH_x.json` turns go test benchmark output into a
// BENCH_*.json record. The timing itself is the testing package's: each
// benchmark's b.N=1 probe warms it up and every run starts after a
// runtime.GC(), so the recorder only summarizes the -count repeats.
//
// A record is
//
//	{"meta": {…runMeta…},
//	 "benchmarks": {"BenchmarkIngestAutoApply/unique": {
//	     "pkg": "streambalance/internal/stream",
//	     "metrics": {"ns/op": {"median": …, "q1": …, "q3": …, "n": 5}, …}}}}
//
// with one entry per benchmark (its name without the -N GOMAXPROCS
// suffix) and one summary per unit it reported: ns/op, B/op and
// allocs/op from -benchmem, plus every b.ReportMetric unit.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// summary is one unit's spread over a benchmark's repeated runs: the
// median and the quartiles (linear interpolation between order
// statistics) of n values.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// benchEntry is one benchmark of a record: the package whose _test.go
// defines it and a summary per reported unit.
type benchEntry struct {
	Pkg     string             `json:"pkg"`
	Metrics map[string]summary `json:"metrics"`
}

// benchRun is the parsed go test output: every value each benchmark
// reported, per unit in run order, plus the header facts.
type benchRun struct {
	pkg    map[string]string               // benchmark -> package
	values map[string]map[string][]float64 // benchmark -> unit -> values
	cpu    string
	procs  int // the shared -N suffix; 1 when names carry none
}

// parseBenchOutput reads go test -bench output. It fails on a failed
// test or benchmark (a "--- FAIL" or "FAIL" line), on a result line it
// cannot read, on names whose -N suffixes disagree, and on input with no
// benchmark results. Every line read is copied to echo.
func parseBenchOutput(r io.Reader, echo io.Writer) (*benchRun, error) {
	run := &benchRun{
		pkg:    map[string]string{},
		values: map[string]map[string][]float64{},
		procs:  -1,
	}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var failed string
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "--- FAIL"), line == "FAIL", strings.HasPrefix(line, "FAIL\t"):
			if failed == "" {
				failed = line
			}
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			run.cpu = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if err := run.add(pkg, line); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if failed != "" {
		return nil, fmt.Errorf("go test reported a failure: %q", failed)
	}
	if len(run.values) == 0 {
		return nil, errors.New("no benchmark results in the input")
	}
	if run.procs < 0 {
		run.procs = 1
	}
	return run, nil
}

// add parses one result line: name, iteration count, then value/unit
// pairs.
func (run *benchRun) add(pkg, line string) error {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return fmt.Errorf("malformed benchmark line %q", line)
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return fmt.Errorf("malformed benchmark line %q: iteration count: %w", line, err)
	}
	name, procs := splitProcs(f[0])
	if run.procs >= 0 && procs != run.procs {
		return fmt.Errorf("benchmark %s ran at GOMAXPROCS %d, earlier ones at %d; record one -cpu value per file", name, procs, run.procs)
	}
	run.procs = procs
	if p, ok := run.pkg[name]; ok && p != pkg {
		return fmt.Errorf("benchmark %s is defined in both %s and %s", name, p, pkg)
	}
	run.pkg[name] = pkg
	units := run.values[name]
	if units == nil {
		units = map[string][]float64{}
		run.values[name] = units
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return fmt.Errorf("malformed benchmark line %q: %w", line, err)
		}
		units[f[i+1]] = append(units[f[i+1]], v)
	}
	return nil
}

// splitProcs strips the -N GOMAXPROCS suffix the testing package
// appends to every benchmark name when GOMAXPROCS > 1, returning N (1
// when there is none).
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return name, 1
	}
	return name[:i], n
}

// quantile is the p-quantile of sorted xs by linear interpolation
// between the order statistics at (len−1)·p.
func quantile(xs []float64, p float64) float64 {
	pos := float64(len(xs)-1) * p
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func summarize(vals []float64) summary {
	xs := slices.Clone(vals)
	slices.Sort(xs)
	return summary{Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// record builds the BENCH_*.json document of a parsed run.
func (run *benchRun) record() map[string]any {
	benches := map[string]benchEntry{}
	for name, units := range run.values {
		e := benchEntry{Pkg: run.pkg[name], Metrics: map[string]summary{}}
		for unit, vals := range units {
			e.Metrics[unit] = summarize(vals)
		}
		benches[name] = e
	}
	meta := runMeta(run.procs)
	if run.cpu != "" {
		meta["cpu"] = run.cpu
	}
	return map[string]any{"meta": meta, "benchmarks": benches}
}

// runRecord is the -record entry point: parse r, and only when it holds
// a clean benchmark run write the record to path.
func runRecord(r io.Reader, echo io.Writer, path string) error {
	run, err := parseBenchOutput(r, echo)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(run.record(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(echo, "bcbench: wrote %s (%d benchmarks)\n", path, len(run.values))
	return nil
}
