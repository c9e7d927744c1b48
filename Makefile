.PHONY: check check-assign check-coalesce check-dist check-hash check-incr check-obs check-shard test bench bench-diff bench-json bcbench profile-extract profile-ingest vet

# Revision stamp for benchmark binaries: BENCH_*.json meta blocks must
# identify the commit that produced them, and ReadBuildInfo's vcs.*
# settings are absent from test binaries and some build modes — so the
# bench/bcbench targets pass the revision explicitly via -ldflags -X
# (cmd/bcbench falls back to ReadBuildInfo when built without these).
GIT_REV   := $(shell git -C $(CURDIR) rev-parse HEAD 2>/dev/null || echo unknown)
GIT_DIRTY := $(shell test -n "$$(git -C $(CURDIR) status --porcelain 2>/dev/null)" && echo true || echo false)
STAMP_LDFLAGS := -X main.buildRevision=$(GIT_REV) -X main.buildDirty=$(GIT_DIRTY)

# Full correctness gate: vet, build everything, then the whole test
# suite under the race detector — the batched-ingest, parallel-extraction
# and assignment-engine equivalence tests only mean something with -race
# on. CI runs check-assign first (fast fail), then this.
check: check-coalesce check-incr
	go vet ./...
	go build ./...
	go test -race ./...

# Fast assignment-engine equivalence pass: pins the k-sink
# transportation kernel to the bipartite SSP oracle (including the
# FuzzAssignTransportMatchesSSP seed corpus), the engine to the per-call
# path, the graph arena, the blocked distance kernel and the parallel
# solve loops to the serial tables, under -race. Runs in seconds; CI
# runs it before the full suite so engine regressions fail fast.
check-assign:
	go test -short -race -run 'Assign|DistRMatrix' ./internal/flow ./internal/geo ./internal/assign ./internal/experiments

# Fast ingest-coalescing pass: vet the ingest stack, pin the key
# coalescer and the bucket-ordered UpdateN/UpdateScaledN kernels to the
# per-op scatter path bit-for-bit under -race (including the
# duplicate-heavy batch shapes and the columnar CellIndexN), then replay
# the FuzzCoalescedIngestMatchesSerial seed corpus. Runs in a couple of
# minutes; CI runs it before the full suite so ingest-write-path
# regressions fail fast.
check-coalesce:
	go vet ./internal/stream ./internal/sketch ./internal/grid
	go test -race -run 'Coalesce|Scaled|Ordered|CellIndexN|DuplicateHeavy' ./internal/stream ./internal/sketch ./internal/grid
	go test -race -run 'FuzzCoalescedIngestMatchesSerial' ./internal/stream

# Fast distributed-protocol pass: vet the protocol packages and pin the
# wire codec, both transports, the pipelined driver's bit-identity with
# the serial reference, round 2's bit-identity with the map-and-sort
# oracle (oracle_test.go) and the seeding optimization, under -race, then
# fuzz the oracle comparison for 15 s. Runs in about a minute; CI runs it
# before the full suite so protocol regressions fail fast.
check-dist:
	go vet ./internal/dist ./internal/streamfmt ./internal/solve
	go test -short -race ./internal/dist ./internal/streamfmt
	go test -short -race -run 'SeedKMeansPP|EstimateOPT' ./internal/solve
	go test -run '^$$' -fuzz FuzzRound2MatchesOracle -fuzztime 15s ./internal/dist

# Fast incremental-extraction pass: vet the decode stack, pin the
# differential (spliced) decode to the cold full peel bit-for-bit —
# single-sketch success/FAIL transitions, the arena-aliasing guard, the
# CacheBytes base accounting, fine-grained merge invalidation and the
# alternating ingest/extract ensemble equivalence — under -race, then
# replay the FuzzIncrementalDecodeMatchesCold seed corpus. Runs in a
# couple of minutes; CI runs it before the full suite so differential-
# decode regressions fail fast.
check-incr:
	go vet ./internal/sketch ./internal/stream
	go test -race -run 'Incremental|Spliced|MergeFineGrained|CacheBytesIncludesBase|StoringCacheStats|StoringMergeDrop' ./internal/sketch ./internal/stream
	go test -race -run 'FuzzIncrementalDecodeMatchesCold' ./internal/sketch

# Fast telemetry pass: vet the obs package and the bench/diff CLI, run
# their tests under -race (vectors, series, trace propagation, the
# /debug endpoints under concurrent writers, the -diff gate), then gate
# the disabled-path overhead — scalar and labeled-vector — without -race
# (race instrumentation inflates atomic loads by design, so the ns/op
# budget only means something in a plain build; see bench_test.go). CI
# runs it before the full suite so a hot-path telemetry regression fails
# fast.
check-obs:
	go vet ./internal/obs ./cmd/bcbench
	go test -race ./internal/obs ./cmd/bcbench
	go test -run OverheadBudget ./internal/obs
	go test -run xxx -bench 'Disabled' -benchtime 100000x ./internal/obs

# Fast field-kernel/decoder pass: vet the hashing/sketch/grid layers, pin
# the 4-lane batched kernels (Eval4/EvalN, SampleN, Key4/KeyN,
# ParentKeys4, UpdateN) and the worklist peeling decoder to their scalar
# references bit-for-bit under -race, then replay the lane-kernel and
# decoder fuzz seed corpora. Runs in seconds; CI runs it before the full
# suite so hot-path kernel regressions fail fast.
check-hash:
	go vet ./internal/hashing ./internal/sketch ./internal/grid
	go test -race -run 'MatchesScalar|MatchesReference|Worklist|InvCountField|DecodeArena|DecodeResults|PureAt|LaneKernels' ./internal/hashing ./internal/sketch ./internal/grid
	go test -race -run 'FuzzEvalLanesMatchScalar' ./internal/hashing
	go test -race -run 'FuzzDecodeWorklistMatchesReference' ./internal/sketch

# Fast sharded-ingest pass: vet the sharding packages, pin the Sharded
# front-end's bit-identity with serial Apply (every shard count, the
# quiet-drain cache ride, the merge-drop counter and sketch Reset) under
# -race, then replay the FuzzShardMerge seed corpus. Runs in a couple of
# minutes; CI runs it before the full suite so sharding regressions fail
# fast.
check-shard:
	go vet ./internal/stream ./internal/sketch
	go test -race -run 'Sharded|ShardMerge|StoringCacheStats|StoringMergeDrop|StoringReset' ./internal/stream ./internal/sketch
	go test -race -run FuzzShardMerge ./internal/stream

test:
	go build ./... && go test ./...

vet:
	go vet ./...

# Ingest-, extraction- and assignment-throughput benchmarks
# (EXPERIMENTS.md records the reference runs).
bench:
	go test -run xxx -bench 'Ingest|Extract|AssignSweep' -benchmem ./internal/stream/ .

# Revision-stamped bcbench binary (see STAMP_LDFLAGS above).
bcbench:
	go build -ldflags "$(STAMP_LDFLAGS)" -o bin/bcbench ./cmd/bcbench

# Regenerate every BENCH_*.json with a stamped binary, so the meta block
# records the producing commit instead of "unknown".
bench-json: bcbench
	./bin/bcbench -bench

# Benchmark regression gate: re-run the bench suite at the same default
# geometry into BENCH_DIFF_DIR, then diff every committed BENCH_*.json
# against the fresh record. bcbench -diff exits non-zero when a gated
# (per_sec / speedup / ns_per / sec_* / _bits) metric falls below
# BENCH_DIFF_TOL of its committed value; the default 0.35 is loose on
# purpose — shared CI hosts jitter ±30% and the gate is after 2x-class
# regressions, not single-digit drift (tighten locally with
# BENCH_DIFF_TOL=0.6 on quiet hardware).
BENCH_DIFF_DIR ?= /tmp/bcbench-diff
BENCH_DIFF_TOL ?= 0.35
bench-diff: bcbench
	mkdir -p $(BENCH_DIFF_DIR)
	./bin/bcbench -bench -outdir $(BENCH_DIFF_DIR)
	@for f in BENCH_*.json; do \
		./bin/bcbench -diff -tol $(BENCH_DIFF_TOL) $$f $(BENCH_DIFF_DIR)/$$f || exit 1; \
	done

# CPU profile of the batched ingest benchmark, for the next pprof-driven
# optimisation round: `go tool pprof ingest_cpu.pprof`.
profile-ingest:
	go test -run xxx -bench 'IngestAutoApply$$' -benchtime 30x -cpuprofile $(CURDIR)/ingest_cpu.pprof ./internal/stream

# CPU profile of the periodic (mixed ingest + extraction) benchmark —
# the serving pattern the differential decode targets — for the next
# pprof-driven optimisation round: `go tool pprof extract_cpu.pprof`.
profile-extract:
	go test -run xxx -bench 'ExtractAutoPeriodic$$' -benchtime 30x -cpuprofile $(CURDIR)/extract_cpu.pprof ./internal/stream
