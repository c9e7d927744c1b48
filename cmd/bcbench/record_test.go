package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testdata/gotest_bench.txt is unedited `go test -run '^$' -bench
// 'KWiseEval/lambda=16|SparseUpdateSchedule/ordered' -benchmem
// -benchtime 200x -count 5 ./internal/hashing ./internal/sketch` output
// at GOMAXPROCS 2: two packages, five repeats per benchmark, names with
// "/" and "=", the -2 suffix, and the custom upd/sec unit.
func readFixture(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "gotest_bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// recordFixture runs the recorder over input into a temp file and
// decodes the result.
func recordFixture(t *testing.T, input string) (map[string]benchEntry, map[string]any) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := runRecord(strings.NewReader(input), io.Discard, path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Meta       map[string]any        `json:"meta"`
		Benchmarks map[string]benchEntry `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Benchmarks, rec.Meta
}

func TestRecordSummarizesRepeats(t *testing.T) {
	benches, meta := recordFixture(t, readFixture(t))
	if len(benches) != 3 {
		t.Fatalf("want 3 benchmarks, got %d: %v", len(benches), benches)
	}
	// Hand-computed from the fixture's five values, sorted:
	//   scalar ns/op:  79.42 81.83 83.56 85.52 140.1
	//   batch ns/op:   58.28 59.45 60.39 62.34 64.80
	//   ordered upd/sec: 8209494 8450701 9452581 9582650 12509552
	// With n=5 the quartiles fall on the 2nd and 4th order statistics.
	for _, c := range []struct {
		name, pkg, unit string
		want            summary
	}{
		{"BenchmarkKWiseEval/lambda=16/scalar", "streambalance/internal/hashing", "ns/op", summary{83.56, 81.83, 85.52, 5}},
		{"BenchmarkKWiseEval/lambda=16/batch", "streambalance/internal/hashing", "ns/op", summary{60.39, 59.45, 62.34, 5}},
		{"BenchmarkKWiseEval/lambda=16/batch", "streambalance/internal/hashing", "allocs/op", summary{0, 0, 0, 5}},
		{"BenchmarkSparseUpdateSchedule/ordered", "streambalance/internal/sketch", "upd/sec", summary{9452581, 8450701, 9582650, 5}},
		{"BenchmarkSparseUpdateSchedule/ordered", "streambalance/internal/sketch", "ns/op", summary{433342, 427462, 484711, 5}},
	} {
		e, ok := benches[c.name]
		if !ok {
			t.Fatalf("%s missing (the -2 suffix must be stripped): %v", c.name, benches)
		}
		if e.Pkg != c.pkg {
			t.Errorf("%s: pkg %q, want %q", c.name, e.Pkg, c.pkg)
		}
		if got := e.Metrics[c.unit]; got != c.want {
			t.Errorf("%s %s: got %+v, want %+v", c.name, c.unit, got, c.want)
		}
	}
	if got := len(benches["BenchmarkSparseUpdateSchedule/ordered"].Metrics); got != 4 {
		t.Errorf("ordered: %d units, want ns/op, upd/sec, B/op, allocs/op", got)
	}
	if meta["gomaxprocs"] != 2.0 || meta["cpu"] != "Intel(R) Xeon(R) Processor" || meta["tree_hash"] == nil {
		t.Errorf("meta: %v", meta)
	}
}

// TestQuantileInterpolates checks the quartiles between order
// statistics, where n−1 is not a multiple of 4.
func TestQuantileInterpolates(t *testing.T) {
	if got, want := summarize([]float64{4, 1, 3, 2}), (summary{2.5, 1.75, 3.25, 4}); got != want {
		t.Fatalf("summarize(4,1,3,2) = %+v, want %+v", got, want)
	}
	if got, want := summarize([]float64{7}), (summary{7, 7, 7, 1}); got != want {
		t.Fatalf("summarize(7) = %+v, want %+v", got, want)
	}
}

// TestRecordRejectsFailedOrEmptyRuns: a failed benchmark, a failed
// package, no results or a result line it cannot read make the recorder
// return an error and leave no file behind.
func TestRecordRejectsFailedOrEmptyRuns(t *testing.T) {
	fixture := readFixture(t)
	for name, input := range map[string]string{
		"bench FAIL": fixture + "--- FAIL: BenchmarkIngestAutoApply/unique\n    ingest_bench_test.go:60: boom\n",
		"pkg FAIL":   strings.Replace(fixture, "PASS\nok  \tstreambalance/internal/sketch", "FAIL\tstreambalance/internal/sketch", 1),
		"bare FAIL":  fixture + "FAIL\n",
		"empty":      "",
		"no results": "goos: linux\nPASS\nok  \tstreambalance/internal/grid\t0.007s\n",
		"malformed":  "BenchmarkFoo-2   \tstray output\n",
		"mixed -cpu": fixture + "BenchmarkMulMod-4   \t 1000\t 1.2 ns/op\n",
	} {
		path := filepath.Join(t.TempDir(), "BENCH_x.json")
		if err := runRecord(strings.NewReader(input), io.Discard, path); err == nil {
			t.Errorf("%s: recorder accepted the run", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: recorder wrote %s (stat: %v)", name, path, err)
		}
	}
}

func TestSplitProcs(t *testing.T) {
	for _, c := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkMulMod-2", "BenchmarkMulMod", 2},
		{"BenchmarkKWiseEval/lambda=16/batch-16", "BenchmarkKWiseEval/lambda=16/batch", 16},
		{"BenchmarkMulMod", "BenchmarkMulMod", 1},
		{"BenchmarkA/x-y", "BenchmarkA/x-y", 1},
	} {
		if name, procs := splitProcs(c.in); name != c.name || procs != c.procs {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", c.in, name, procs, c.name, c.procs)
		}
	}
}
