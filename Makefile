.PHONY: check check-fast test bench bench-diff bench-json bcbench profile-extract profile-ingest vet

# Revision stamp for benchmark binaries: BENCH_*.json meta blocks must
# identify the commit that produced them, and ReadBuildInfo's vcs.*
# settings are absent from test binaries and some build modes — so the
# bench/bcbench targets pass the revision explicitly via -ldflags -X
# (cmd/bcbench falls back to ReadBuildInfo when built without these).
GIT_REV   := $(shell git -C $(CURDIR) rev-parse HEAD 2>/dev/null || echo unknown)
GIT_DIRTY := $(shell test -n "$$(git -C $(CURDIR) status --porcelain 2>/dev/null)" && echo true || echo false)
STAMP_LDFLAGS := -X main.buildRevision=$(GIT_REV) -X main.buildDirty=$(GIT_DIRTY)

# Fast pre-gate: vet, build, then the whole suite in -short mode (fuzz
# seed corpora replay in plain go test). CI runs it before check so a
# broken build or an obvious equivalence failure fails in a minute or two.
check-fast:
	go vet ./...
	go build ./...
	go test -short ./...

# Full correctness gate: the whole suite, non-short, under the race
# detector — the batched-ingest, parallel-extraction, Fork/Merge,
# pipelined-dist and assignment-engine equivalence tests only mean
# something with -race on. Then three plain-build steps: the
# disabled-telemetry overhead budget and its bench smoke (both meaningless
# under -race, which inflates atomic loads by design; see
# internal/obs/bench_test.go), and three 15 s fuzz smokes: round 2 of
# the dist protocol against its map-and-sort oracle, batched Apply
# ingest against per-op Insert/Delete replay, and the power-column
# sampling kernel against scalar Horner sampling.
check:
	go test -race ./...
	go test -run OverheadBudget ./internal/obs
	go test -run xxx -bench 'Disabled' -benchtime 100000x ./internal/obs
	go test -run '^$$' -fuzz FuzzRound2MatchesOracle -fuzztime 15s ./internal/dist
	go test -run '^$$' -fuzz FuzzCoalescedIngestMatchesSerial -fuzztime 15s ./internal/stream
	go test -run '^$$' -fuzz FuzzSamplePowersMatchesSample -fuzztime 15s ./internal/hashing

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
