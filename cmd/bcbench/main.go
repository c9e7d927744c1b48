// Command bcbench runs the experiment suite of DESIGN.md §3 and prints
// one table per experiment — the rows EXPERIMENTS.md records.
//
// Usage:
//
//	bcbench [-scale 1.0] [-seed 1] [-only E1,E5] [-bench] [-outdir DIR]
//	bcbench -diff [-tol 0.6] old.json new.json
//
// -scale multiplies every instance size (use 2–4 for slower, tighter
// runs); -only restricts to a comma-separated subset of experiment ids.
// -diff compares two BENCH_*.json records and exits non-zero when a
// throughput or latency metric regressed beyond the tolerance (see
// diff.go) — the CI benchmark gate. -outdir redirects the -bench
// record files so a fresh run can be diffed against the committed ones.
// -bench skips the experiment suite and instead measures the field-kernel
// and decoder hot paths (scalar vs 4-lane batched hashing, reference vs
// worklist peeling decode), dynamic-stream ingest throughput (batched
// shared-key pipeline over the guess × level-range worker pool vs per-op
// replay), coreset-extraction throughput (cold parallel decode vs serial
// vs epoch-cache warm vs incremental), capacitated-assignment throughput
// (per-call fresh solve vs the reusable assign.Solver engine) and
// distributed-protocol throughput (serial reference vs the pipelined
// driver at 1/4/8 workers, plus measured wire bytes vs the closed-form
// accounting), writing the numbers to BENCH_hash.json, BENCH_ingest.json,
// BENCH_extract.json, BENCH_assign.json and BENCH_dist.json for
// trajectory tracking. Every record's meta block stamps the revision,
// GOMAXPROCS and NumCPU it ran with.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"streambalance"
	"streambalance/internal/assign"
	"streambalance/internal/coreset"
	"streambalance/internal/dist"
	"streambalance/internal/experiments"
	"streambalance/internal/geo"
	"streambalance/internal/hashing"
	"streambalance/internal/metrics"
	"streambalance/internal/obs"
	"streambalance/internal/sketch"
	"streambalance/internal/solve"
	"streambalance/internal/stream"
	"streambalance/internal/workload"
)

// buildRevision and buildDirty are stamped by the Makefile bench/bcbench
// targets via -ldflags "-X main.buildRevision=... -X main.buildDirty=...".
// `go build` embeds vcs.* build settings only for package main of the
// containing module root, and test binaries / direct `go run` invocations
// often report nothing — the explicit stamp makes BENCH_*.json meta
// blocks identify their commit regardless of how the binary was built,
// with ReadBuildInfo retained as the fallback.
var (
	buildRevision string
	buildDirty    string
)

// benchOutDir is the -outdir flag: where writeBench places BENCH_*.json
// records ("" = current directory, the committed trajectory files).
var benchOutDir string

// writeBench records one bench result, shared by every bench function.
func writeBench(name string, rec map[string]any) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := name
	if benchOutDir != "" {
		path = filepath.Join(benchOutDir, name)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}

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

// runMeta identifies the run that produced a BENCH_*.json: without the
// machine and revision a throughput number cannot be compared against a
// past one. The git revision comes from the stamped build flags, else the
// binary's embedded build info ("unknown" under -buildvcs=false or `go
// run` from a tarball).
//
// The meta block refuses to stamp a run as "parallel" unless it both ran
// with GOMAXPROCS > 1 AND had more than one CPU to run on — records made
// on a single CPU show worker-pool speedups of ~1.0× no matter what the
// code does, and a consumer comparing files must be able to tell those
// runs apart from real multicore ones.
func runMeta(wallStart time.Time) map[string]any {
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
	parallel := runtime.GOMAXPROCS(0) > 1 && runtime.NumCPU() > 1
	gogc, memLimit := gcMeta()
	m := map[string]any{
		"git_revision":     rev,
		"git_dirty":        dirty,
		"go_version":       runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"num_cpu":          runtime.NumCPU(),
		"goos":             runtime.GOOS,
		"goarch":           runtime.GOARCH,
		"gogc":             gogc,
		"gomemlimit_bytes": memLimit,
		"timestamp":        time.Now().UTC().Format(time.RFC3339),
		"wall_clock_sec":   time.Since(wallStart).Seconds(),
		"parallel":         parallel,
	}
	if !parallel {
		m["parallel_caveat"] = "recorded with a single effective CPU (GOMAXPROCS or NumCPU = 1); " +
			"concurrency speedups in this file read ~1.0x and reflect algorithmic wins only"
	}
	return m
}

// benchHash measures the GF(2^61−1) kernel and decoder hot paths: the
// scalar per-key field routines against their 4-lane batched
// counterparts (KWise.Eval vs EvalN, Bernoulli.Sample vs SampleN,
// Fingerprint.Key vs KeyN), and the round-based reference peeling
// decoder against the worklist decoder with a reused arena. Scalar and
// batched passes are timed round-robin over the same columns (the
// lane kernels are bit-identical to the scalar routines, so both sides
// do exactly the same arithmetic). Prints a short report and records it
// as BENCH_hash.json.
func benchHash(seed int64) error {
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	const cols = 1 << 15
	const lambda = 16
	keys := make([]uint64, cols)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	dst := make([]uint64, cols)
	sel := make([]bool, cols)
	pts := make([][]int64, cols)
	for i := range pts {
		pts[i] = []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20), rng.Int63n(1 << 20), rng.Int63n(1 << 20)}
	}
	kw := hashing.NewKWise(rng, lambda)
	bern := hashing.NewBernoulli(rng, lambda, 0.1)
	fp := hashing.NewFingerprint(rng)

	// timeBoth runs the two closures round-robin so machine-noise phases
	// spread over both sides, returning ns/op over rounds×cols ops each.
	timeBoth := func(rounds int, a, b func()) (nsA, nsB float64) {
		var ea, eb time.Duration
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			a()
			ea += time.Since(t0)
			t0 = time.Now()
			b()
			eb += time.Since(t0)
		}
		ops := float64(rounds) * cols
		return ea.Seconds() * 1e9 / ops, eb.Seconds() * 1e9 / ops
	}

	var sink uint64
	evalS, evalB := timeBoth(30,
		func() {
			for _, k := range keys {
				sink ^= kw.Eval(k)
			}
		},
		func() { kw.EvalN(dst, keys) })
	sampS, sampB := timeBoth(30,
		func() {
			for i, k := range keys {
				sel[i] = bern.Sample(k)
			}
		},
		func() { bern.SampleN(sel, keys) })
	keyS, keyB := timeBoth(10,
		func() {
			for _, p := range pts {
				sink ^= fp.Key(p)
			}
		},
		func() { fp.KeyN(dst, pts) })
	_ = sink

	kernel := func(name string, s, b float64) map[string]any {
		return map[string]any{
			"kernel":            name,
			"ns_per_op_scalar":  s,
			"ns_per_op_batched": b,
			"speedup":           s / b,
		}
	}
	hashRows := []map[string]any{
		kernel("kwise_eval_lambda16", evalS, evalB),
		kernel("bernoulli_sample_lambda16", sampS, sampB),
		kernel("fingerprint_key_dim4", keyS, keyB),
	}

	// Decode suite: sketches loaded to exactly their sparsity budget, the
	// regime every successful extraction decode runs in.
	var decodeRows []map[string]any
	arena := sketch.NewDecodeArena()
	for _, s := range []int{64, 1024} {
		srng := rand.New(rand.NewSource(seed + int64(s)))
		sr := sketch.NewSparseRecovery(srng, s, 0.01, 2)
		for i := 0; i < s; i++ {
			sr.Update(uint64(srng.Int63()), []int64{int64(i), 2}, 1)
		}
		rounds := 4096 / s
		var eRef, eWork time.Duration
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			if _, ok := sr.DecodeReference(); !ok {
				return fmt.Errorf("reference decode failed at s=%d", s)
			}
			eRef += time.Since(t0)
			t0 = time.Now()
			if _, ok := sr.DecodeWith(arena); !ok {
				return fmt.Errorf("worklist decode failed at s=%d", s)
			}
			eWork += time.Since(t0)
		}
		refNS := eRef.Seconds() * 1e9 / float64(rounds)
		workNS := eWork.Seconds() * 1e9 / float64(rounds)
		decodeRows = append(decodeRows, map[string]any{
			"s":                      s,
			"ns_per_decode_ref":      refNS,
			"ns_per_decode_worklist": workNS,
			"speedup":                refNS / workNS,
		})
	}

	rec := map[string]any{
		"meta":       runMeta(start),
		"bench":      "hash_decode",
		"column_len": cols,
		"lambda":     lambda,
		"seed":       seed,
		"hash":       hashRows,
		"decode":     decodeRows,
	}
	fmt.Printf("hash kernels   (column=%d keys, lambda=%d, GOMAXPROCS=%d)\n", cols, lambda, runtime.GOMAXPROCS(0))
	for _, r := range hashRows {
		fmt.Printf("  %-26s: %7.2f ns/op scalar  %7.2f ns/op batched  (%.2fx)\n",
			r["kernel"], r["ns_per_op_scalar"], r["ns_per_op_batched"], r["speedup"])
	}
	for _, r := range decodeRows {
		fmt.Printf("  decode s=%-4d             : %9.0f ns ref  %9.0f ns worklist  (%.2fx)\n",
			r["s"], r["ns_per_decode_ref"], r["ns_per_decode_worklist"], r["speedup"])
	}
	return writeBench("BENCH_hash.json", rec)
}

// benchIngest measures ingest ops/sec of the guess-enumeration ensemble
// through the batched pipeline and the serial per-op path, prints a short
// report and records it as BENCH_ingest.json.
func benchIngest(scale float64, seed int64) error {
	start := time.Now()
	n := int(16384 * scale)
	if n < 1024 {
		n = 1024
	}
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: 4, Spread: 20, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	cfg := streambalance.StreamConfig{
		Dim: 2, Delta: 1 << 12,
		Params:       streambalance.Params{K: 4, Seed: seed},
		CellSparsity: 512, PointSparsity: 2048,
	}
	newAuto := func() *streambalance.AutoStream {
		a, err := streambalance.NewAutoStream(cfg, 4)
		if err != nil {
			panic(err)
		}
		return a
	}

	serial := newAuto()
	t0 := time.Now()
	for _, p := range ps {
		serial.Insert(p)
	}
	perOpSec := float64(n) / time.Since(t0).Seconds()

	ops := make([]streambalance.Op, n)
	for i, p := range ps {
		ops[i] = streambalance.Op{P: p}
	}
	const batchSize = 4096
	applyBatched := func(ops []streambalance.Op) float64 {
		a := newAuto()
		t0 := time.Now()
		for i := 0; i < len(ops); i += batchSize {
			end := i + batchSize
			if end > len(ops) {
				end = len(ops)
			}
			a.Apply(ops[i:end])
		}
		return float64(len(ops)) / time.Since(t0).Seconds()
	}

	// A/B over the key-coalescing stage (bit-identical paths; the knob
	// only changes the write schedule).
	batchedSec := applyBatched(ops)
	prevCo := stream.SetCoalesce(false)
	uncoalescedSec := applyBatched(ops)
	stream.SetCoalesce(prevCo)

	// Duplicate-heavy variant: every op replayed 8× back to back — the
	// coarse-level shape where coalescing collapses whole batches.
	dup8 := make([]streambalance.Op, 0, 8*len(ops))
	for _, op := range ops {
		for r := 0; r < 8; r++ {
			dup8 = append(dup8, op)
		}
	}
	dup8Sec := applyBatched(dup8)
	prevCo = stream.SetCoalesce(false)
	dup8UncoalescedSec := applyBatched(dup8)
	stream.SetCoalesce(prevCo)

	// Coalesce ratios, measured in a separate untimed pass so the timed
	// runs above never pay for telemetry.
	obs.Default.Reset()
	obs.Enable()
	applyBatched(ops)
	ratios := map[string]float64{}
	for _, sub := range []string{"h", "hp", "hat"} {
		ratios[sub] = obs.Default.Ratio(
			`stream_coalesce_ops_in_total{substream="`+sub+`"}`,
			`stream_coalesce_keys_out_total{substream="`+sub+`"}`)
	}
	obs.Disable()

	scatterSec, orderedSec := benchSketchUpdateN(seed)

	rec := map[string]any{
		"meta":                            runMeta(start),
		"bench":                           "stream_ingest",
		"n_ops":                           n,
		"guesses":                         len(serial.Guesses()),
		"gomaxprocs":                      runtime.GOMAXPROCS(0),
		"seed":                            seed,
		"ops_per_sec_per_op":              perOpSec,
		"ops_per_sec_batched":             batchedSec,
		"ops_per_sec_batched_uncoalesced": uncoalescedSec,
		"ops_per_sec_dup8":                dup8Sec,
		"ops_per_sec_dup8_uncoalesced":    dup8UncoalescedSec,
		"speedup":                         batchedSec / perOpSec,
		"coalesce_speedup":                batchedSec / uncoalescedSec,
		"coalesce_ratio":                  ratios,
		"sketch_updates_per_sec_scatter":  scatterSec,
		"sketch_updates_per_sec_ordered":  orderedSec,
	}
	fmt.Printf("stream ingest  (n=%d ops, %d guesses, GOMAXPROCS=%d)\n", n, len(serial.Guesses()), runtime.GOMAXPROCS(0))
	fmt.Printf("  per-op            : %12.0f ops/sec\n", perOpSec)
	fmt.Printf("  batched           : %12.0f ops/sec  (%.2fx)\n", batchedSec, batchedSec/perOpSec)
	fmt.Printf("  batched, no-coal  : %12.0f ops/sec  (coalesce %.2fx)\n", uncoalescedSec, batchedSec/uncoalescedSec)
	fmt.Printf("  dup8              : %12.0f ops/sec  (vs %.0f uncoalesced, %.2fx)\n",
		dup8Sec, dup8UncoalescedSec, dup8Sec/dup8UncoalescedSec)
	fmt.Printf("  coalesce ratio    : h=%.1f hp=%.1f hat=%.1f (ops in / keys out)\n",
		ratios["h"], ratios["hp"], ratios["hat"])
	fmt.Printf("  sketch UpdateN    : %12.0f upd/sec scatter, %.0f ordered (%.2fx)\n",
		scatterSec, orderedSec, orderedSec/scatterSec)
	return writeBench("BENCH_ingest.json", rec)
}

// benchSketchUpdateN isolates the sketch-level write schedule: an
// ensemble of s-sparse recovery sketches (s=2048, payload dim 2 — the
// point-sketch shape of the ingest bench config, whose ~650 KB slabs
// dominate the ensemble's slab bytes) fed 4096-row batches through
// UpdateN with bucket-ordered application off (4-lane scatter) and on.
// The batch round-robins across the ensemble so every slab visit starts
// cold, like the real ingest fan-out over ~25 guess instances × levels ×
// substreams — hammering one hot slab would hide exactly the misses the
// ordered schedule removes. Both schedules are bit-identical; the delta
// is pure slab cache locality. Returns updates/sec for (scatter,
// ordered).
func benchSketchUpdateN(seed int64) (scatterSec, orderedSec float64) {
	const s, pd, n, sketches, rounds = 2048, 2, 4096, 64, 3
	rng := rand.New(rand.NewSource(seed))
	ens := make([]*sketch.SparseRecovery, sketches)
	for i := range ens {
		ens[i] = sketch.NewSparseRecovery(rng, s, 0.01, pd)
	}
	keys := make([]uint64, n)
	payload := make([]int64, n*pd)
	deltas := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		deltas[i] = 1
		payload[i*pd] = rng.Int63n(1 << 12)
		payload[i*pd+1] = rng.Int63n(1 << 12)
	}
	run := func(ordered bool) float64 {
		prev := sketch.SetBucketOrder(ordered)
		defer sketch.SetBucketOrder(prev)
		for _, sr := range ens {
			sr.Reset()
		}
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, sr := range ens {
				sr.UpdateN(keys, payload, deltas)
			}
		}
		return float64(n*sketches*rounds) / time.Since(t0).Seconds()
	}
	run(false) // warm the page tables and scratch allocations
	scatterSec = run(false)
	orderedSec = run(true)
	return
}

// benchExtract measures coreset-extraction throughput over the guess
// ensemble: cold (decode caches dropped before every extraction, decoded
// across the worker pool), serial cold (single-worker lazy baseline),
// warm (epoch-cache hits only) and incremental (alternating small-batch
// ingest and extraction: the query splices the dirty levels onto their
// cached decode bases instead of re-peeling the whole ensemble). Prints
// a short report and records it as BENCH_extract.json.
func benchExtract(scale float64, seed int64) error {
	start := time.Now()
	n := int(4096 * scale)
	if n < 1024 {
		n = 1024
	}
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: 4, Spread: 20, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	a, err := streambalance.NewAutoStream(streambalance.StreamConfig{
		Dim: 2, Delta: 1 << 12,
		Params:       streambalance.Params{K: 4, Seed: seed},
		CellSparsity: 512, PointSparsity: 4 * 4096,
	}, 4)
	if err != nil {
		return err
	}
	ops := make([]streambalance.Op, n)
	for i, p := range ps {
		ops[i] = streambalance.Op{P: p}
	}
	a.Apply(ops)
	if _, err := a.Result(); err != nil {
		return fmt.Errorf("extraction failed on the bench ensemble: %w", err)
	}

	// The modes are timed round-robin — one cold, one serial, one warm
	// round per pass — so machine-noise phases (GC, CPU steal on shared
	// hosts) are spread over all three instead of biasing whichever block
	// ran during them. At GOMAXPROCS=1 cold and serial run the same code
	// path and should measure about the same.
	const rounds = 10
	modes := []struct {
		name string
		prep func() error // untimed setup for the round
		f    func() error // the timed extraction
	}{
		{"cold", nil, func() error {
			a.DropDecodeCache()
			_, err := a.Result()
			return err
		}},
		{"serial", nil, func() error {
			a.DropDecodeCache()
			_, err := a.ResultSerial()
			return err
		}},
		// The serial round just dropped the caches; re-warm untimed so the
		// timed call measures pure cache-hit extraction.
		{"warm", func() error { _, err := a.Result(); return err }, func() error {
			_, err := a.Result()
			return err
		}},
	}
	elapsed := make([]time.Duration, len(modes))
	for i := 0; i < rounds; i++ {
		for m, mode := range modes {
			if mode.prep != nil {
				if err := mode.prep(); err != nil {
					return fmt.Errorf("%s extraction: %w", mode.name, err)
				}
			}
			t0 := time.Now()
			if err := mode.f(); err != nil {
				return fmt.Errorf("%s extraction: %w", mode.name, err)
			}
			elapsed[m] += time.Since(t0)
		}
	}
	coldSec := rounds / elapsed[0].Seconds()
	serialSec := rounds / elapsed[1].Seconds()
	warmSec := rounds / elapsed[2].Seconds()

	// Mixed ingest + query — the serving pattern the differential decode
	// targets. Each round re-ingests a small batch of the original ops
	// (same keys, so the sketch support never grows and every level stays
	// decodable), samples how many decode units the batch dirtied, then
	// times only the extraction, which splices the dirty levels onto
	// their cached bases instead of re-peeling the ensemble. The pre-warm
	// between rounds is untimed: a serving deployment keeps the ensemble
	// warm between queries.
	const incrBatch = 16
	const incrRounds = 30
	a.WarmDecodeCache()
	var incrElapsed time.Duration
	var dirtySum, totalSum int
	for i := 0; i < incrRounds; i++ {
		lo := (i * incrBatch) % n
		hi := lo + incrBatch
		if hi > n {
			hi = n
		}
		a.Apply(ops[lo:hi])
		d, tot := a.DirtyLevels()
		dirtySum += d
		totalSum += tot
		// Collect the churn of the untimed scaffolding (batch ingest +
		// pre-warm) before starting the clock: the ensemble's live heap is
		// large at this geometry, so a concurrent GC cycle triggered by
		// scaffolding garbage spans several rounds and its mark assists
		// would otherwise tax allocations inside the ~15 ms timed query,
		// inflating it 3-4×.
		runtime.GC()
		t0 := time.Now()
		if _, err := a.Result(); err != nil {
			return fmt.Errorf("incremental extraction: %w", err)
		}
		incrElapsed += time.Since(t0)
		a.WarmDecodeCache()
	}
	incrSec := incrRounds / incrElapsed.Seconds()
	dirtyRatio := float64(dirtySum) / float64(totalSum)

	rec := map[string]any{
		"meta":                     runMeta(start),
		"bench":                    "stream_extract",
		"n_points":                 n,
		"guesses":                  len(a.Guesses()),
		"gomaxprocs":               runtime.GOMAXPROCS(0),
		"seed":                     seed,
		"extracts_per_sec_cold":    coldSec,
		"extracts_per_sec_serial":  serialSec,
		"extracts_per_sec_warm":    warmSec,
		"warm_speedup_over_cold":   warmSec / coldSec,
		"cold_speedup_over_serial": coldSec / serialSec,

		"extracts_per_sec_incremental":  incrSec,
		"incremental_speedup_over_cold": incrSec / coldSec,
		"incremental_batch_ops":         incrBatch,
		"dirty_level_ratio":             dirtyRatio,
	}
	fmt.Printf("stream extract (n=%d points, %d guesses, GOMAXPROCS=%d)\n", n, len(a.Guesses()), runtime.GOMAXPROCS(0))
	fmt.Printf("  cold    : %12.2f extracts/sec  (%.2fx over serial)\n", coldSec, coldSec/serialSec)
	fmt.Printf("  serial  : %12.2f extracts/sec\n", serialSec)
	fmt.Printf("  warm    : %12.2f extracts/sec  (%.2fx over cold)\n", warmSec, warmSec/coldSec)
	fmt.Printf("  incr    : %12.2f extracts/sec  (%.2fx over cold; batch=%d ops, %.4f dirty-level ratio)\n",
		incrSec, incrSec/coldSec, incrBatch, dirtyRatio)
	return writeBench("BENCH_extract.json", rec)
}

// benchAssign measures capacitated-assignment throughput on the
// E1-shaped workload — one fixed point set, many center sets, an
// ascending capacity sweep per center set — in two modes: fresh (the
// per-call FractionalCost, distance block and kernel workspace rebuilt
// every solve) and engine (one assign.Solver: distance block amortized
// per center set, workspace across all solves). Prints a short report
// and records it as BENCH_assign.json. Modes are timed round-robin like
// benchExtract so machine-noise phases spread over both.
func benchAssign(scale float64, seed int64) error {
	start := time.Now()
	n := int(512 * scale)
	if n < 64 {
		n = 64
	}
	const k = 4
	const centerSets = 25
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: k, Spread: 20, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	ws := geo.UnitWeights(ps)
	zs := make([][]geo.Point, centerSets)
	for i := range zs {
		zs[i] = solve.SeedKMeansPP(rng, ws, k, 2)
	}
	base := geo.TotalWeight(ws) / k
	caps := []float64{1.02 * base, 1.05 * base, 1.1 * base, 1.2 * base, 1.4 * base, 1.8 * base, 2.5 * base, 4 * base}
	solves := centerSets * len(caps)

	run := func(f func(Z []geo.Point, t float64) float64) float64 {
		var sink float64
		for _, Z := range zs {
			for _, t := range caps {
				sink += f(Z, t)
			}
		}
		return sink
	}
	eng := assign.NewSolver()
	eng.Bind(ws, 2)
	modes := []struct {
		name string
		f    func() float64
	}{
		{"fresh", func() float64 {
			return run(func(Z []geo.Point, t float64) float64 {
				c, _, _ := assign.FractionalCost(ws, Z, t, 2)
				return c
			})
		}},
		{"engine", func() float64 {
			var sink float64
			for _, Z := range zs {
				eng.SetCenters(Z)
				for _, t := range caps {
					c, _ := eng.Fractional(t)
					sink += c
				}
			}
			return sink
		}},
	}

	const rounds = 30
	elapsed := make([]time.Duration, len(modes))
	for i := 0; i < rounds; i++ {
		for m, mode := range modes {
			t0 := time.Now()
			mode.f()
			elapsed[m] += time.Since(t0)
		}
	}
	freshSec := float64(rounds*solves) / elapsed[0].Seconds()
	engineSec := float64(rounds*solves) / elapsed[1].Seconds()

	rec := map[string]any{
		"meta":                  runMeta(start),
		"bench":                 "assign_sweep",
		"n_points":              n,
		"k":                     k,
		"center_sets":           centerSets,
		"caps_per_set":          len(caps),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"seed":                  seed,
		"solves_per_sec_fresh":  freshSec,
		"solves_per_sec_engine": engineSec,
		"engine_speedup":        engineSec / freshSec,
	}
	fmt.Printf("assign sweep   (n=%d points, k=%d, %d center sets × %d caps, GOMAXPROCS=%d)\n",
		n, k, centerSets, len(caps), runtime.GOMAXPROCS(0))
	fmt.Printf("  fresh   : %12.2f solves/sec\n", freshSec)
	fmt.Printf("  engine  : %12.2f solves/sec  (%.2fx over fresh)\n", engineSec, engineSec/freshSec)
	return writeBench("BENCH_assign.json", rec)
}

// benchDist measures distributed-protocol wall-clock on a fixed 8-machine
// split: the serial reference driver vs the pipelined concurrent driver at
// 1, 4 and 8 workers, all over the default in-memory transport. It also
// records the measured wire bits against the closed-form formula
// accounting. Modes are timed round-robin like benchExtract; every run is
// checked to produce the serial run's exact bit count (the drivers are
// bit-identical by contract). Prints a short report and records it as
// BENCH_dist.json.
func benchDist(scale float64, seed int64) error {
	start := time.Now()
	n := int(16384 * scale)
	if n < 2048 {
		n = 2048
	}
	const k, s = 4, 8
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: k, Spread: 20, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	machines := make([]geo.PointSet, s)
	for i, p := range ps {
		machines[i%s] = append(machines[i%s], p)
	}
	cfg := dist.Config{Dim: 2, Delta: 1 << 12, Params: coreset.Params{K: k, Seed: seed}}

	ref, err := dist.RunSerial(machines, cfg)
	if err != nil {
		return err
	}
	modes := []struct {
		name string
		f    func() (*dist.Report, error)
	}{
		{"serial", func() (*dist.Report, error) { return dist.RunSerial(machines, cfg) }},
		{"workers1", func() (*dist.Report, error) {
			c := cfg
			c.Workers = 1
			return dist.Run(machines, c)
		}},
		{"workers4", func() (*dist.Report, error) {
			c := cfg
			c.Workers = 4
			return dist.Run(machines, c)
		}},
		{"workers8", func() (*dist.Report, error) {
			c := cfg
			c.Workers = 8
			return dist.Run(machines, c)
		}},
	}
	const rounds = 5
	elapsed := make([]time.Duration, len(modes))
	for i := 0; i < rounds; i++ {
		for m, mode := range modes {
			t0 := time.Now()
			rep, err := mode.f()
			elapsed[m] += time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s protocol run: %w", mode.name, err)
			}
			if rep.Bits != ref.Bits || rep.Coreset.Size() != ref.Coreset.Size() {
				return fmt.Errorf("%s protocol run diverged from the serial reference", mode.name)
			}
		}
	}
	secs := make([]float64, len(modes))
	for m := range modes {
		secs[m] = elapsed[m].Seconds() / rounds
	}

	rec := map[string]any{
		"meta":              runMeta(start),
		"bench":             "dist_protocol",
		"n_points":          n,
		"machines":          s,
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"seed":              seed,
		"wire_bits":         ref.Bits,
		"formula_bits":      ref.FormulaBits,
		"wire_over_formula": float64(ref.Bits) / float64(ref.FormulaBits),
		"sec_serial":        secs[0],
		"sec_workers1":      secs[1],
		"sec_workers4":      secs[2],
		"sec_workers8":      secs[3],
		"speedup_workers4":  secs[0] / secs[2],
		"speedup_workers8":  secs[0] / secs[3],
	}
	fmt.Printf("dist protocol  (n=%d points, s=%d machines, GOMAXPROCS=%d)\n", n, s, runtime.GOMAXPROCS(0))
	fmt.Printf("  wire    : %12d bits  (%.3fx of the %d-bit formula accounting)\n",
		ref.Bits, float64(ref.Bits)/float64(ref.FormulaBits), ref.FormulaBits)
	fmt.Printf("  serial  : %12.1f ms\n", secs[0]*1e3)
	for m := 1; m < len(modes); m++ {
		fmt.Printf("  %-8s: %12.1f ms  (%.2fx over serial)\n", modes[m].name, secs[m]*1e3, secs[0]/secs[m])
	}
	return writeBench("BENCH_dist.json", rec)
}

func main() {
	scale := flag.Float64("scale", 1.0, "instance size multiplier")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E5); empty = all")
	bench := flag.Bool("bench", false, "measure kernel, ingest, extraction, assignment and dist-protocol throughput, writing the BENCH_*.json records")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/pprof/ and /debug/vars on this address (e.g. :6060) while running")
	metricsDump := flag.String("metrics", "", "dump a final telemetry snapshot to stderr: text (Prometheus exposition) or json")
	diffMode := flag.Bool("diff", false, "compare two BENCH_*.json records (bcbench -diff old.json new.json) and exit 1 on regression")
	tol := flag.Float64("tol", 0.6, "regression tolerance for -diff: gated metrics fail below this fraction of the old value")
	outdir := flag.String("outdir", "", "directory for -bench BENCH_*.json output (default: current directory)")
	flag.Parse()
	benchOutDir = *outdir

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

	if *bench {
		if err := benchHash(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := benchIngest(*scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := benchExtract(*scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := benchAssign(*scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := benchDist(*scale, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dumpMetrics()
		return
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
