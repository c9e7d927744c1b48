package stream

import (
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/sketch"
)

// collectStorings returns the stream's decode units in eachStoring
// order, so sibling streams can be compared unit-by-unit.
func collectStorings(s *Stream) []*sketch.Storing {
	var units []*sketch.Storing
	s.eachStoring(func(st *sketch.Storing) { units = append(units, st) })
	return units
}

// TestMergeFineGrainedInvalidation: merging a fork that touched only k
// of the stream's decode units must leave the other units' cache
// entries live (pristine levels are skipped outright) and keep the
// dirtied units' bases for differential decode — no merge drops at all
// on this path. The spliced post-merge state must still be bit-identical
// to a serial stream that saw both op sequences.
func TestMergeFineGrainedInvalidation(t *testing.T) {
	ops := shuffledChurnOps(606, 400)
	// O large enough that the fine levels' sampling rates drop below 1
	// (ψ_i = min(1, CountRate/T_i), T_i ∝ O): a one-op fork then dirties
	// only the levels whose samplers keep the point.
	cfg := Config{Dim: 2, Delta: testDelta, O: 1 << 20,
		Params: coreset.Params{K: 3, Seed: 66}, CellSparsity: 256, PointSparsity: 1024}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(ops)
	// Warm every decode unit's cache (success and FAIL verdicts alike).
	// Units that decode successfully gain a differential base; FAILed
	// units cache only the verdict.
	decodeOK := make(map[*sketch.Storing]bool)
	for _, st := range collectStorings(s) {
		_, ok := st.Result()
		decodeOK[st] = ok
	}

	// Find a fork op some levels drop: sampling is a deterministic hash
	// of the point, so scan candidates until the touched set is a proper
	// subset of the units.
	fork := s.Fork()
	var forkOps []Op
	units, forkUnits := collectStorings(s), collectStorings(fork)
	touched := 0
	for _, op := range ops {
		probe := s.Fork()
		probe.Apply([]Op{{P: op.P}})
		n := 0
		for _, fu := range collectStorings(probe) {
			if fu.Epoch() > 0 {
				n++
			}
		}
		if n > 0 && n < len(forkUnits) {
			forkOps = []Op{{P: op.P}}
			fork, forkUnits, touched = probe, collectStorings(probe), n
			break
		}
	}
	if forkOps == nil {
		t.Fatalf("no candidate op touched a proper subset of the %d units", len(forkUnits))
	}

	s.Merge(fork)
	splicable := 0
	for i, fu := range forkUnits {
		st := units[i]
		stats := st.CacheStats()
		if fu.Epoch() == 0 {
			// Untouched level: the merge is skipped outright and the live
			// cache entry (success or FAIL verdict) stays fresh.
			if !st.CacheFresh() {
				t.Fatalf("unit %d: pristine fork level lost its live cache entry", i)
			}
			if stats.MergeSkips == 0 {
				t.Fatalf("unit %d: pristine fork merge not counted as a skip", i)
			}
			if stats.MergeDrops != 0 {
				t.Fatalf("unit %d: pristine fork merge dropped a cache entry", i)
			}
			continue
		}
		if st.CacheFresh() {
			t.Fatalf("unit %d: dirtied level still reports a fresh cache", i)
		}
		if decodeOK[st] {
			// A successful decode has a base: the merge keeps it for the
			// next splice instead of dropping.
			splicable++
			if stats.MergeKeeps == 0 || stats.MergeDrops != 0 {
				t.Fatalf("unit %d: dirtied level with a base: stats %+v, want a keep and no drop", i, stats)
			}
		} else if stats.MergeDrops != 1 {
			// A cached FAIL has no base to splice from; the merge discards
			// the verdict as before.
			t.Fatalf("unit %d: dirtied FAILed level: MergeDrops=%d, want 1", i, stats.MergeDrops)
		}
	}
	if splicable == 0 {
		t.Fatal("no dirtied unit had a live base; the keep path went unexercised")
	}

	// Re-warm: clean units hit, dirtied units with a base splice.
	before := s.CacheStats()
	for _, st := range units {
		st.Result()
	}
	after := s.CacheStats()
	if hits := after.Hits - before.Hits; hits != int64(len(units)-touched) {
		t.Fatalf("clean units: %d cache hits, want %d", hits, len(units)-touched)
	}
	if splices := after.Splices - before.Splices; splices != int64(splicable) {
		t.Fatalf("dirtied units: %d splices, want %d", after.Splices-before.Splices, splicable)
	}

	// The spliced state must match a serial stream bit-for-bit.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Apply(ops)
	ref.Apply(forkOps)
	if s.StateDigest() != ref.StateDigest() {
		t.Fatal("merged state diverged from serial replay")
	}
	ca, errA := s.Result()
	ref.DropDecodeCache()
	cb, errB := ref.ResultSerial()
	sameCoreset(t, ca, cb, errA, errB)
}

// TestIncrementalExtractMatchesCold: under alternating small-batch
// ingest and extraction, the incremental (spliced) results of an
// ensemble must stay bit-identical — digest, Bytes and coreset (or
// matching failure) — to a sibling ensemble that decodes every query
// cold.
func TestIncrementalExtractMatchesCold(t *testing.T) {
	ops := shuffledChurnOps(707, 900)
	cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 77},
		CellSparsity: 512, PointSparsity: 2048}
	inc, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	const chunk = 128
	for i := 0; i < len(ops); i += chunk {
		end := i + chunk
		if end > len(ops) {
			end = len(ops)
		}
		inc.Apply(ops[i:end])
		cold.Apply(ops[i:end])

		ci, errI := inc.Result() // incremental: splices dirty levels
		cold.DropDecodeCache()   // force full peels on every unit
		cc, errC := cold.ResultSerial()
		sameCoreset(t, ci, cc, errI, errC)
		if inc.StateDigest() != cold.StateDigest() {
			t.Fatalf("state digests diverged after %d ops", end)
		}
		if inc.Bytes() != cold.Bytes() {
			t.Fatalf("Bytes diverged after %d ops", end)
		}
	}
	if s := inc.CacheStats(); s.Splices == 0 {
		t.Fatal("incremental ensemble never spliced: the differential path did not run")
	}
	dirty, total := inc.DirtyLevels()
	if total == 0 || dirty > total {
		t.Fatalf("DirtyLevels = %d/%d: malformed", dirty, total)
	}
}
