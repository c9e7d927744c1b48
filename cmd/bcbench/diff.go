// Benchmark regression gate: `bcbench -diff old.json new.json` compares
// the medians of two BENCH_*.json records (see record.go) benchmark by
// benchmark and unit by unit, and exits non-zero when a gated metric
// regressed beyond the tolerance.
//
// The unit decides the direction:
//
//	lower-is-better:  ns/op, B/op, allocs/op and any "*-bytes/op",
//	higher-is-better: any "*/sec" rate,
//	informational:    every other unit (counts, ratios) — never gated.
//
// A gated metric regresses when its better-direction ratio drops below
// the tolerance: new/old < tol for higher-is-better, old/new < tol for
// lower-is-better. The default tol 0.6 trips on a 2x regression
// (ratio 0.5) while riding out the ±20-30% wall-clock noise a shared CI
// host produces. The "meta" block is never compared.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDirection classifies a "benchmark unit" key by its unit: +1
// higher-is-better, -1 lower-is-better, 0 informational (never gated).
func metricDirection(key string) int {
	unit := key[strings.LastIndexByte(key, ' ')+1:]
	switch {
	case strings.HasSuffix(unit, "/sec"):
		return 1
	case unit == "ns/op", unit == "B/op", unit == "allocs/op", strings.HasSuffix(unit, "-bytes/op"):
		return -1
	default:
		return 0
	}
}

// loadBench reads a record's medians, keyed "benchmark unit".
func loadBench(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec struct {
		Benchmarks map[string]benchEntry `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for name, e := range rec.Benchmarks {
		for unit, s := range e.Metrics {
			out[name+" "+unit] = s.Median
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark metrics found", path)
	}
	return out, nil
}

// diffBench compares two records' medians and writes a report. It
// returns the number of gated metrics that regressed beyond tol.
func diffBench(w io.Writer, oldM, newM map[string]float64, tol float64) int {
	keys := make([]string, 0, len(oldM))
	for k := range oldM {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	regressions := 0
	fmt.Fprintf(w, "  %-56s %14s %14s %8s  %s\n", "benchmark unit (median)", "old", "new", "ratio", "status")
	for _, k := range keys {
		dir := metricDirection(k)
		ov := oldM[k]
		nv, ok := newM[k]
		if !ok {
			if dir != 0 {
				fmt.Fprintf(w, "  %-56s %14.4g %14s %8s  missing in new\n", k, ov, "-", "-")
			}
			continue
		}
		if dir == 0 {
			continue
		}
		// better-direction ratio: >1 improved, <1 regressed.
		var ratio float64
		switch {
		case ov == 0 && nv == 0:
			ratio = 1
		case ov == 0 || nv == 0:
			ratio = 0
		case dir > 0:
			ratio = nv / ov
		default:
			ratio = ov / nv
		}
		status := "ok"
		if ratio < tol {
			status = "REGRESSION"
			regressions++
		} else if ratio > 1/tol {
			status = "improved"
		}
		fmt.Fprintf(w, "  %-56s %14.4g %14.4g %8.3f  %s\n", k, ov, nv, ratio, status)
	}
	for k := range newM {
		if _, ok := oldM[k]; !ok && metricDirection(k) != 0 {
			fmt.Fprintf(w, "  %-56s %14s %14.4g %8s  new metric\n", k, "-", newM[k], "-")
		}
	}
	return regressions
}

// runDiff is the -diff entry point: load, compare, report. Returns the
// regression count.
func runDiff(w io.Writer, oldPath, newPath string, tol float64) (int, error) {
	if tol <= 0 || tol >= 1 {
		return 0, fmt.Errorf("-tol must be in (0, 1), got %g", tol)
	}
	oldM, err := loadBench(oldPath)
	if err != nil {
		return 0, err
	}
	newM, err := loadBench(newPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "bench diff  %s -> %s  (tol %.2f: gated medians fail below %.2fx of old)\n",
		oldPath, newPath, tol, tol)
	regs := diffBench(w, oldM, newM, tol)
	if regs > 0 {
		fmt.Fprintf(w, "  %d regression(s) beyond tolerance\n", regs)
	} else {
		fmt.Fprintln(w, "  no regressions beyond tolerance")
	}
	return regs, nil
}
