.PHONY: check check-fast test bench-diff bench-json bcbench profile-extract profile-ingest vet

# Revision stamp for benchmark binaries: BENCH_*.json meta blocks must
# identify the commit that produced them, and ReadBuildInfo's vcs.*
# settings are absent from test binaries and some build modes — so the
# bcbench target passes the revision explicitly via -ldflags -X
# (cmd/bcbench falls back to ReadBuildInfo when built without these).
GIT_REV   := $(shell git -C $(CURDIR) rev-parse HEAD 2>/dev/null || echo unknown)
GIT_DIRTY := $(shell test -n "$$(git -C $(CURDIR) status --porcelain 2>/dev/null)" && echo true || echo false)
STAMP_LDFLAGS := -X main.buildRevision=$(GIT_REV) -X main.buildDirty=$(GIT_DIRTY)

# Fast pre-gate: gofmt, vet, build, then the whole suite in -short mode
# (fuzz seed corpora replay in plain go test). CI runs it before check so
# an unformatted file, a broken build or an obvious equivalence failure
# fails in a minute or two.
check-fast:
	test -z "$$(gofmt -l .)"
	go vet ./...
	go build ./...
	go test -short ./...

# Full correctness gate: the whole suite, non-short, under the race
# detector — the batched-ingest, sharded-replay, parallel-extraction,
# pipelined-dist and assignment-engine equivalence tests only mean
# something with -race on. Then three plain-build steps: the
# disabled-telemetry overhead budget and its bench smoke (both meaningless
# under -race, which inflates atomic loads by design; see
# internal/obs/bench_test.go), and five 15 s fuzz smokes: round 2 of
# the dist protocol against its map-and-sort oracle, batched Apply
# ingest against per-op Insert/Delete replay, the FAIL-certified guess
# scan against the full ascending scan, the power-column sampling
# kernel against scalar Horner sampling, and the copy-on-write splice
# against the flat merge and a cold decode.
check:
	go test -race ./...
	go test -run OverheadBudget ./internal/obs
	go test -run xxx -bench 'Disabled' -benchtime 100000x ./internal/obs
	go test -run '^$$' -fuzz FuzzRound2MatchesOracle -fuzztime 15s ./internal/dist
	go test -run '^$$' -fuzz FuzzCoalescedIngestMatchesSerial -fuzztime 15s ./internal/stream
	go test -run '^$$' -fuzz FuzzScanMatchesFullScan -fuzztime 15s ./internal/stream
	go test -run '^$$' -fuzz FuzzSamplePowersMatchesSample -fuzztime 15s ./internal/hashing
	go test -run '^$$' -fuzz FuzzSpliceMatchesFlatMerge -fuzztime 15s ./internal/sketch

test:
	go build ./... && go test ./...

vet:
	go vet ./...

# Revision-stamped bcbench binary (see STAMP_LDFLAGS above).
bcbench:
	go build -ldflags "$(STAMP_LDFLAGS)" -o bin/bcbench ./cmd/bcbench

# The BENCH_*.json records: one go test run per file, piped into
# bcbench -record, which keeps each benchmark's median, quartiles and
# run count per unit. Every benchmark runs 5 times, each run after the
# testing package's warm-up probe and a runtime.GC(). The recorder exits
# non-zero, writing nothing, when go test reports a failure or no
# results, so a failed run fails the target.
BENCH_RUN := go test -run '^$$' -benchmem -count 5
define bench-record
	$(BENCH_RUN) -bench 'KWiseEval/lambda=16|BernoulliSample|HashPowers|FingerprintKey|SparseDecode$$' ./internal/hashing ./internal/sketch | ./bin/bcbench -record $(1)/BENCH_hash.json
	$(BENCH_RUN) -bench 'Ingest(AutoPerOp|AutoApply)$$|SparseUpdateSchedule/ordered' ./internal/stream ./internal/sketch | ./bin/bcbench -record $(1)/BENCH_ingest.json
	$(BENCH_RUN) -bench 'ExtractAuto(Cold|ColdSerial|Warm|Incremental|Periodic)$$|SpliceSmallDelta$$' ./internal/stream ./internal/sketch | ./bin/bcbench -record $(1)/BENCH_extract.json
	$(BENCH_RUN) -bench 'AssignSweep' . | ./bin/bcbench -record $(1)/BENCH_assign.json
	$(BENCH_RUN) -bench 'DistProtocol' . | ./bin/bcbench -record $(1)/BENCH_dist.json
endef

# Regenerate every BENCH_*.json with a stamped binary, so the meta block
# records the producing commit instead of "unknown".
bench-json: bcbench
	$(call bench-record,.)

# Benchmark regression gate: re-record every BENCH_*.json into
# BENCH_DIFF_DIR, then diff each committed record against the fresh one.
# bcbench -diff exits non-zero when a gated median (ns/op, B/op,
# allocs/op, *-bytes/op, */sec) falls below BENCH_DIFF_TOL of its
# committed value; the default 0.35 is loose on purpose — shared CI
# hosts jitter ±30% and the gate is after 2x-class regressions, not
# single-digit drift (tighten locally with BENCH_DIFF_TOL=0.6 on quiet
# hardware).
BENCH_DIFF_DIR ?= /tmp/bcbench-diff
BENCH_DIFF_TOL ?= 0.35
bench-diff: bcbench
	mkdir -p $(BENCH_DIFF_DIR)
	$(call bench-record,$(BENCH_DIFF_DIR))
	@for f in BENCH_*.json; do \
		./bin/bcbench -diff -tol $(BENCH_DIFF_TOL) $$f $(BENCH_DIFF_DIR)/$$f || exit 1; \
	done

# CPU profile of the batched ingest benchmark, for the next pprof-driven
# optimisation round: `go tool pprof ingest_cpu.pprof`.
profile-ingest:
	go test -run xxx -bench 'IngestAutoApply$$/unique' -benchtime 30x -cpuprofile $(CURDIR)/ingest_cpu.pprof ./internal/stream

# CPU profile of the periodic (mixed ingest + extraction) benchmark —
# the serving pattern the differential decode targets — for the next
# pprof-driven optimisation round: `go tool pprof extract_cpu.pprof`.
profile-extract:
	go test -run xxx -bench 'ExtractAutoPeriodic$$' -benchtime 30x -cpuprofile $(CURDIR)/extract_cpu.pprof ./internal/stream
