package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchFixture is a miniature record in the -record schema with every
// unit class the gate knows: higher-is-better rates, lower-is-better
// ns/op, B/op, allocs/op and wire bytes, and an informational custom
// unit that must never gate. Only medians are compared; the quartiles
// and n ride along.
const benchFixture = `{
  "meta": {"git_revision": "abc", "wall_clock_sec": 12.5, "gomaxprocs": 2},
  "benchmarks": {
    "BenchmarkIngest/unique": {"pkg": "p/stream", "metrics": {
      "ops/sec":   {"median": 100000, "q1": 95000, "q3": 105000, "n": 5},
      "ns/op":     {"median": 10000,  "q1": 9500,  "q3": 10500,  "n": 5},
      "B/op":      {"median": 512,    "q1": 500,   "q3": 530,    "n": 5},
      "allocs/op": {"median": 4,      "q1": 4,     "q3": 4,      "n": 5}}},
    "BenchmarkDist/Workers8": {"pkg": "p", "metrics": {
      "ns/op":            {"median": 5e7,   "q1": 4.8e7, "q3": 5.1e7, "n": 5},
      "wire-bytes/op":    {"median": 81920, "q1": 81920, "q3": 81920, "n": 5}}},
    "BenchmarkExtract": {"pkg": "p/stream", "metrics": {
      "ns/op":            {"median": 40.0, "q1": 39.0, "q3": 41.0, "n": 5},
      "attempts/query":   {"median": 14,   "q1": 14,   "q3": 14,   "n": 5}}}
  }
}`

func writeFixture(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDiffNoRegressionOnIdenticalRecords: the same medians under a
// different meta block (another revision, another wall time) are clean;
// meta values never reach the report.
func TestDiffNoRegressionOnIdenticalRecords(t *testing.T) {
	old := writeFixture(t, "old.json", benchFixture)
	nw := writeFixture(t, "new.json", strings.NewReplacer(
		`"git_revision": "abc"`, `"git_revision": "def"`,
		`"wall_clock_sec": 12.5`, `"wall_clock_sec": 99`,
		`"gomaxprocs": 2`, `"gomaxprocs": 1`,
	).Replace(benchFixture))
	var sb strings.Builder
	regs, err := runDiff(&sb, old, nw, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 0 {
		t.Fatalf("identical records reported %d regressions:\n%s", regs, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("missing all-clear line:\n%s", out)
	}
	for _, key := range []string{"wall_clock_sec", "gomaxprocs", "git_revision"} {
		if findLine(out, key) != "" {
			t.Fatalf("meta key %s compared:\n%s", key, out)
		}
	}
}

// TestDiffDetectsTwofoldRegression: the acceptance scenario — a
// synthetic 2x regression on each metric class must trip the default
// tolerance, whichever direction "worse" is for that unit.
func TestDiffDetectsTwofoldRegression(t *testing.T) {
	old := writeFixture(t, "old.json", benchFixture)
	regressed := strings.NewReplacer(
		`"median": 100000`, `"median": 50000`, // rate halved
		`"median": 5e7`, `"median": 1e8`, // wall time per op doubled
		`"median": 81920`, `"median": 163840`, // wire bytes doubled
		`"median": 40.0`, `"median": 80.0`, // latency doubled
	).Replace(benchFixture)
	nw := writeFixture(t, "new.json", regressed)

	var sb strings.Builder
	regs, err := runDiff(&sb, old, nw, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 4 {
		t.Fatalf("want 4 regressions, got %d:\n%s", regs, sb.String())
	}
	out := sb.String()
	for _, key := range []string{
		"BenchmarkIngest/unique ops/sec",
		"BenchmarkDist/Workers8 ns/op",
		"BenchmarkDist/Workers8 wire-bytes/op",
		"BenchmarkExtract ns/op",
	} {
		if line := findLine(out, key); !strings.Contains(line, "REGRESSION") {
			t.Fatalf("%s not flagged:\n%s", key, out)
		}
	}
	// The untouched metrics stay ok; informational units never appear.
	if l := findLine(out, "BenchmarkIngest/unique ns/op"); !strings.Contains(l, "ok") {
		t.Fatalf("unchanged ns/op flagged:\n%s", out)
	}
	if l := findLine(out, "attempts/query"); l != "" {
		t.Fatalf("informational unit attempts/query gated:\n%s", out)
	}
}

func TestDiffToleranceBoundary(t *testing.T) {
	old := writeFixture(t, "old.json", benchFixture)
	// 30% rate drop: ratio 0.7 — inside the default 0.6 tolerance, outside
	// a strict 0.8 one.
	nw := writeFixture(t, "new.json", strings.Replace(benchFixture,
		`"median": 100000`, `"median": 70000`, 1))

	if regs, err := runDiff(&strings.Builder{}, old, nw, 0.6); err != nil || regs != 0 {
		t.Fatalf("tol 0.6: regs=%d err=%v, want 0 regressions", regs, err)
	}
	if regs, err := runDiff(&strings.Builder{}, old, nw, 0.8); err != nil || regs != 1 {
		t.Fatalf("tol 0.8: regs=%d err=%v, want 1 regression", regs, err)
	}
	if _, err := runDiff(&strings.Builder{}, old, nw, 1.5); err == nil {
		t.Fatal("tol outside (0,1) accepted")
	}
}

// TestDiffSchemaDrift: metrics present on only one side are reported but
// never counted as regressions — benchmark sets evolve across commits.
func TestDiffSchemaDrift(t *testing.T) {
	old := writeFixture(t, "old.json", benchFixture)
	drifted := strings.Replace(benchFixture,
		`"BenchmarkIngest/unique"`, `"BenchmarkIngest/renamed"`, 1)
	nw := writeFixture(t, "new.json", drifted)

	var sb strings.Builder
	regs, err := runDiff(&sb, old, nw, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if regs != 0 {
		t.Fatalf("schema drift counted as regression:\n%s", sb.String())
	}
	out := sb.String()
	if l := findLine(out, "BenchmarkIngest/unique ops/sec"); !strings.Contains(l, "missing in new") {
		t.Fatalf("dropped metric not reported:\n%s", out)
	}
	if l := findLine(out, "BenchmarkIngest/renamed ops/sec"); !strings.Contains(l, "new metric") {
		t.Fatalf("added metric not reported:\n%s", out)
	}
	// A record with no benchmarks (the pre-recorder schema, say) is an
	// error, not an empty pass.
	empty := writeFixture(t, "empty.json", `{"meta": {}, "ops_per_sec_batched": 1}`)
	if _, err := runDiff(&strings.Builder{}, old, empty, 0.6); err == nil {
		t.Fatal("record without benchmarks accepted")
	}
}

func TestMetricDirection(t *testing.T) {
	cases := map[string]int{
		"BenchmarkIngestAutoApply/unique ops/sec":           1,
		"BenchmarkExtractAutoCold extracts/sec":             1,
		"BenchmarkSparseUpdateSchedule/ordered upd/sec":     1,
		"BenchmarkKWiseEval/lambda=16/batch ns/op":          -1,
		"BenchmarkAssignSweep/Engine B/op":                  -1,
		"BenchmarkAssignSweep/Engine allocs/op":             -1,
		"BenchmarkDistProtocol/Workers8 wire-bytes/op":      -1,
		"BenchmarkDistProtocol/Workers8 formula-bytes/op":   -1,
		"BenchmarkExtractAutoCold attempts/query":           0,
		"BenchmarkExtractAutoIncremental dirty-level-ratio": 0,
		"BenchmarkCoresetBuild points/op":                   0,
	}
	for key, want := range cases {
		if got := metricDirection(key); got != want {
			t.Errorf("metricDirection(%q) = %d, want %d", key, got, want)
		}
	}
}

// findLine returns the first report line containing key, "" if none.
func findLine(out, key string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, key) {
			return l
		}
	}
	return ""
}
