// Command bcbench runs the experiment suite of DESIGN.md §3 and prints
// one table per experiment — the rows EXPERIMENTS.md records. It also
// records and compares the BENCH_*.json benchmark files.
//
// Usage:
//
//	bcbench [-scale 1.0] [-seed 1] [-only E1,E5]
//	go test -run '^$' -bench … -benchmem -count 5 PKGS | bcbench -record BENCH_x.json
//	bcbench -diff [-tol 0.6] old.json new.json
//
// -scale multiplies every instance size (use 2–4 for slower, tighter
// runs); -only restricts to a comma-separated subset of experiment ids.
// -record reads go test benchmark output on stdin, echoes it, and writes
// the median, quartiles and run count of every benchmark's units to the
// named file (see record.go); it writes nothing when the input holds a
// failure or no results. The benchmarks themselves are the go test
// Benchmark functions; `make bench-json` pipes one go test run per
// record. -diff compares the medians of two records and exits non-zero
// when a throughput, latency or allocation metric regressed beyond the
// tolerance (see diff.go) — the CI benchmark gate. Every record's meta
// block stamps the revision, a SHA-256 hash of the source tree, and the
// GOMAXPROCS and NumCPU the benchmarks ran with.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"streambalance/internal/experiments"
	"streambalance/internal/metrics"
	"streambalance/internal/obs"
)

// buildRevision and buildDirty are stamped by the Makefile bcbench
// target via -ldflags "-X main.buildRevision=... -X main.buildDirty=...".
// `go build` embeds vcs.* build settings only for package main of the
// containing module root, and test binaries / direct `go run` invocations
// often report nothing — the explicit stamp makes BENCH_*.json meta
// blocks identify their commit regardless of how the binary was built,
// with ReadBuildInfo retained as the fallback.
var (
	buildRevision string
	buildDirty    string
)

// gcMeta reads the effective GOGC percent and memory limit once — both
// shift allocation-heavy numbers enough that comparing records across
// different GC settings is meaningless, so the meta block pins them.
// SetGCPercent(-1) is the only way to read GOGC; the value is restored
// immediately and cached so the probe runs at most once per process.
var (
	gcMetaOnce sync.Once
	gcPercent  int
	gcMemLimit int64
)

func gcMeta() (int, int64) {
	gcMetaOnce.Do(func() {
		gcPercent = debug.SetGCPercent(-1)
		debug.SetGCPercent(gcPercent)
		gcMemLimit = debug.SetMemoryLimit(-1)
	})
	return gcPercent, gcMemLimit
}

// processStart is when bcbench started: both ends of a pipe start
// together, so for -record it is also when the go test run started.
var processStart = time.Now()

// runMeta identifies the run that produced a BENCH_*.json: without the
// machine and revision a throughput number cannot be compared against a
// past one. The git revision comes from the stamped build flags, else the
// binary's embedded build info ("unknown" under -buildvcs=false or `go
// run` from a tarball). The revision cannot name uncommitted code, so
// tree_hash hashes the source itself (see treeHash). procs is the
// GOMAXPROCS the benchmarks ran at (their names' -N suffix), and
// wall_clock_sec the time since bcbench started, which spans the go
// test run piped into it.
//
// The meta block refuses to stamp a run as "parallel" unless it both ran
// with GOMAXPROCS > 1 AND had more than one CPU to run on — records made
// on a single CPU show worker-pool speedups of ~1.0× no matter what the
// code does, and a consumer comparing files must be able to tell those
// runs apart from real multicore ones.
func runMeta(procs int) map[string]any {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if buildRevision != "" {
		rev = buildRevision
	}
	if buildDirty != "" {
		dirty = buildDirty == "true"
	}
	parallel := procs > 1 && runtime.NumCPU() > 1
	gogc, memLimit := gcMeta()
	m := map[string]any{
		"git_revision":     rev,
		"git_dirty":        dirty,
		"tree_hash":        treeHash(),
		"go_version":       runtime.Version(),
		"gomaxprocs":       procs,
		"num_cpu":          runtime.NumCPU(),
		"goos":             runtime.GOOS,
		"goarch":           runtime.GOARCH,
		"gogc":             gogc,
		"gomemlimit_bytes": memLimit,
		"timestamp":        time.Now().UTC().Format(time.RFC3339),
		"wall_clock_sec":   time.Since(processStart).Seconds(),
		"parallel":         parallel,
	}
	if !parallel {
		m["parallel_caveat"] = "recorded with a single effective CPU (GOMAXPROCS or NumCPU = 1); " +
			"concurrency speedups in this file read ~1.0x and reflect algorithmic wins only"
	}
	return m
}

// treeHash is a SHA-256 over every *.go and go.mod file of the module
// the working directory sits in (dot-directories skipped), so a record
// names the code that ran whether or not it was committed. It returns
// "unknown: …" when no module root is found or a file cannot be read.
func treeHash() string {
	root, err := os.Getwd()
	if err != nil {
		return "unknown: " + err.Error()
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return "unknown: no go.mod above the working directory"
		}
		root = parent
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		rel, _ := filepath.Rel(root, f) // f is under root by construction
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func main() {
	scale := flag.Float64("scale", 1.0, "instance size multiplier")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E5); empty = all")
	recordPath := flag.String("record", "", "read go test -bench output on stdin and write its per-benchmark medians and quartiles to this BENCH_*.json file")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/pprof/ and /debug/vars on this address (e.g. :6060) while running")
	metricsDump := flag.String("metrics", "", "dump a final telemetry snapshot to stderr: text (Prometheus exposition) or json")
	diffMode := flag.Bool("diff", false, "compare two BENCH_*.json records (bcbench -diff old.json new.json) and exit 1 on regression")
	tol := flag.Float64("tol", 0.6, "regression tolerance for -diff: gated medians fail below this fraction of the old value")
	flag.Parse()

	if *recordPath != "" {
		if err := runRecord(os.Stdin, os.Stdout, *recordPath); err != nil {
			fmt.Fprintln(os.Stderr, "bcbench -record:", err)
			os.Exit(1)
		}
		return
	}

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bcbench -diff [-tol 0.6] old.json new.json")
			os.Exit(2)
		}
		regs, err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *tol)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regs > 0 {
			os.Exit(1)
		}
		return
	}

	switch *metricsDump {
	case "", "text", "json":
	default:
		fmt.Fprintf(os.Stderr, "-metrics must be text or json, got %q\n", *metricsDump)
		os.Exit(2)
	}
	if *metricsDump != "" {
		obs.Enable()
		obs.Trace.Enable()
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bcbench: debug server on http://%s (/metrics, /debug/pprof/, /debug/vars, /debug/spans)\n", addr)
	}
	dumpMetrics := func() {
		var err error
		switch *metricsDump {
		case "text":
			err = obs.Default.WriteProm(os.Stderr)
		case "json":
			err = obs.Default.WriteJSON(os.Stderr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	cfg := experiments.Cfg{Seed: *seed, Scale: *scale}
	runners := map[string]func(experiments.Cfg) *metrics.Table{
		"E1":  experiments.E1CoresetQuality,
		"E2":  experiments.E2CoresetSize,
		"E3":  experiments.E3StreamingSpace,
		"E4":  experiments.E4Deletions,
		"E5":  experiments.E5Distributed,
		"E6":  experiments.E6EndToEnd,
		"E7":  experiments.E7Baselines,
		"E8":  experiments.E8BuildTime,
		"E9":  experiments.E9Separation,
		"E10": experiments.E10Ablation,
		"E11": experiments.E11HighDim,
		"E12": experiments.E12GuessSelection,
		"E13": experiments.E13AssignmentCounting,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}

	var ids []string
	if *only == "" {
		ids = order
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if runners[id] == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", id, strings.Join(order, ","))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	fmt.Printf("streambalance experiment suite  (scale=%.2g seed=%d)\n\n", *scale, *seed)
	for _, id := range ids {
		t0 := time.Now()
		tb := runners[id](cfg)
		tb.Render(os.Stdout)
		fmt.Printf("   [%s completed in %s]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
	dumpMetrics()
}
