package stream

import (
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/sketch"
)

// collectStorings returns the stream's decode units in list order, so
// sibling streams can be compared unit-by-unit.
func collectStorings(s *Stream) []*sketch.Storing {
	units := make([]*sketch.Storing, len(s.units))
	for i, u := range s.units {
		units[i] = u.st
	}
	return units
}

// TestApplyFineGrainedInvalidation: a batch that touches only some of
// the stream's decode units must leave the other units' cache entries
// live, and each dirtied unit with a base must splice at the next query
// (one whose last decode FAILed re-peels cold). The spliced result must
// match a cold decode of a serial stream that saw the same ops.
func TestApplyFineGrainedInvalidation(t *testing.T) {
	ops := shuffledChurnOps(606, 400)
	// O large enough that the fine levels' sampling rates drop below 1
	// (ψ_i = min(1, 256/T_i), T_i ∝ O): a one-op batch then dirties
	// only the levels whose samplers keep the point.
	cfg := Config{Dim: 2, Delta: testDelta, O: 1 << 20,
		Params: coreset.Params{K: 3, Seed: 66}, CellSparsity: 256, PointSparsity: 1024}
	newStream := func() *Stream {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := newStream()
	s.Apply(ops)
	// Warm every decode unit's cache (success and FAIL verdicts alike).
	// Units that decode successfully gain a differential base; FAILed
	// units cache only the verdict.
	units := collectStorings(s)
	decodeOK := make([]bool, len(units))
	for i, st := range units {
		_, decodeOK[i] = st.Result()
	}

	// Find an op some levels drop: sampling is a deterministic hash of
	// the point, so scan candidates, each on a fresh sibling stream,
	// until the units it changes are a proper subset.
	pristine := collectStorings(newStream())
	var batch []Op
	var touched []bool
	for _, op := range ops {
		probe := newStream()
		probe.Apply([]Op{{P: op.P}})
		touched = make([]bool, len(units))
		n := 0
		for i, st := range collectStorings(probe) {
			if st.Digest() != pristine[i].Digest() {
				touched[i] = true
				n++
			}
		}
		if n > 0 && n < len(units) {
			batch = []Op{{P: op.P}}
			break
		}
	}
	if batch == nil {
		t.Fatalf("no candidate op touched a proper subset of the %d units", len(units))
	}

	s.Apply(batch)
	clean, splicable := 0, 0
	for i, st := range units {
		switch {
		case !touched[i]:
			clean++
			if !st.CacheFresh() {
				t.Fatalf("unit %d: untouched level lost its live cache entry", i)
			}
		case st.CacheFresh():
			t.Fatalf("unit %d: dirtied level still reports a fresh cache", i)
		case decodeOK[i]:
			splicable++
		}
	}
	if splicable == 0 {
		t.Fatal("no dirtied unit had a live base; the splice path went unexercised")
	}

	// Re-warm: clean units hit, dirtied units with a base splice, dirtied
	// FAILed units re-peel cold.
	before := s.CacheStats()
	for _, st := range units {
		st.Result()
	}
	after := s.CacheStats()
	if hits := after.Hits - before.Hits; hits != int64(clean) {
		t.Fatalf("clean units: %d cache hits, want %d", hits, clean)
	}
	if splices := after.Splices - before.Splices; splices != int64(splicable) {
		t.Fatalf("dirtied units: %d splices, want %d", splices, splicable)
	}
	if cold := after.StaleCold - before.StaleCold; cold != int64(len(units)-clean-splicable) {
		t.Fatalf("dirtied FAILed units: %d cold re-peels, want %d", cold, len(units)-clean-splicable)
	}

	// The spliced result must match a cold decode of the same ops.
	ref := newStream()
	ref.Apply(ops)
	ref.Apply(batch)
	if s.StateDigest() != ref.StateDigest() {
		t.Fatal("state diverged from serial replay")
	}
	ca, errA := s.Result()
	cb, errB := ref.resultWith(1)
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
		cc, errC := cold.resultWith(1)
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
