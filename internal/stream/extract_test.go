package stream

import (
	"errors"
	"math/rand"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/partition"
	"streambalance/internal/workload"
)

// equalExtraction asserts the two extraction outcomes are identical: same
// accepted guess, and the same points, weights and levels in the same
// order. Decode is deterministic in sketch state, so equivalent paths
// must agree bitwise, not just approximately.
func equalExtraction(t *testing.T, a, b *coreset.Coreset, label string) {
	t.Helper()
	if a.O != b.O {
		t.Fatalf("%s: accepted guess %v vs %v", label, a.O, b.O)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: %d vs %d coreset points", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if !a.Points[i].P.Equal(b.Points[i].P) || a.Points[i].W != b.Points[i].W {
			t.Fatalf("%s: point %d differs: %v/%v vs %v/%v",
				label, i, a.Points[i].P, a.Points[i].W, b.Points[i].P, b.Points[i].W)
		}
		if a.Levels[i] != b.Levels[i] {
			t.Fatalf("%s: level %d differs: %d vs %d", label, i, a.Levels[i], b.Levels[i])
		}
	}
}

func extractTestAuto(t *testing.T, seed int64) *Auto {
	t.Helper()
	a, err := NewAuto(Config{
		Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: seed},
		CellSparsity: 512, PointSparsity: 2048,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mixedOps(seed int64, n int) []Op {
	ps, _ := testMixture(seed, n)
	rng := rand.New(rand.NewSource(seed ^ 0x0b5))
	junk := workload.UniformBox(rng, n/4, 2, testDelta)
	ops := make([]Op, 0, n+len(junk)*2)
	for _, p := range ps {
		ops = append(ops, Op{P: p})
	}
	for _, p := range junk {
		ops = append(ops, Op{P: p})
	}
	for _, i := range rng.Perm(len(junk)) {
		ops = append(ops, Op{P: junk[i], Delete: true})
	}
	return ops
}

// TestResultIdempotent: repeated Result calls — with and without
// interleaved updates — return identical coresets and never mutate
// N, Bytes or StateDigest. Run under -race via `make check`.
func TestResultIdempotent(t *testing.T) {
	ops := mixedOps(51, 2000)
	half := len(ops) / 2

	a := extractTestAuto(t, 52)
	a.Apply(ops[:half])

	n0, bytes0, dig0 := a.n, a.Bytes(), a.StateDigest()
	cs1, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := a.Result() // warm repeat, no updates in between
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, cs1, cs2, "repeat without updates")
	if a.n != n0 || a.Bytes() != bytes0 || a.StateDigest() != dig0 {
		t.Fatalf("Result mutated sketch state: n %d→%d bytes %d→%d digest %x→%x",
			n0, a.n, bytes0, a.Bytes(), dig0, a.StateDigest())
	}

	// Apply→Result→Apply→Result: the second extraction must equal a cold
	// extraction of a fresh instance that saw the whole stream at once.
	a.Apply(ops[half:])
	cs3, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	cs4, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, cs3, cs4, "repeat after interleaved updates")

	ref := extractTestAuto(t, 52)
	ref.Apply(ops)
	if ref.StateDigest() != a.StateDigest() {
		t.Fatal("interleaved Apply/Result changed sketch state vs one-shot Apply")
	}
	csRef, err := ref.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, cs3, csRef, "interleaved extraction vs one-shot cold")
}

// TestExtractParallelMatchesSerial: the pool-decoded path and the lazy
// serial path must agree bitwise on the selected guess and the coreset,
// for both cold and warm caches. The pool is driven with 4 workers
// regardless of GOMAXPROCS so the concurrent path (and its -race
// coverage) is exercised even on single-CPU machines.
func TestExtractParallelMatchesSerial(t *testing.T) {
	ops := mixedOps(61, 2000)

	par := extractTestAuto(t, 62)
	ser := extractTestAuto(t, 62)
	par.Apply(ops)
	ser.Apply(ops)
	if par.StateDigest() != ser.StateDigest() {
		t.Fatal("identically-seeded instances disagree before extraction")
	}

	csP, errP := par.resultWith(4) // cold, parallel decode
	csS, errS := ser.resultWith(1) // cold, serial decode
	if errP != nil || errS != nil {
		t.Fatalf("results: %v / %v", errP, errS)
	}
	equalExtraction(t, csP, csS, "cold parallel vs cold serial")
	if par.StateDigest() != ser.StateDigest() {
		t.Fatal("extraction mutated sketch state")
	}

	// Warm repeats on both paths still agree.
	csP2, _ := par.resultWith(4)
	csS2, _ := ser.resultWith(1)
	equalExtraction(t, csP2, csS2, "warm parallel vs warm serial")

	// Cross-check: dropping the cache and re-extracting with the other
	// path still matches.
	par.DropDecodeCache()
	csP3, err := par.resultWith(1)
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, csP, csP3, "cold serial after cache drop")
}

// TestExtractWarmMatchesCold: the epoch cache must be invisible — a warm
// re-extraction equals a cold one, and updates between extractions
// invalidate exactly what they touch.
func TestExtractWarmMatchesCold(t *testing.T) {
	ps, _ := testMixture(71, 1500)
	o := goodGuess(ps, 3)
	s, err := New(Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 72}})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = Op{P: p}
	}
	s.Apply(ops[:1000])

	warm1, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if s.DecodeCacheBytes() == 0 {
		t.Fatal("extraction should have populated the decode cache")
	}
	s.DropDecodeCache()
	if s.DecodeCacheBytes() != 0 {
		t.Fatal("DropDecodeCache left cache bytes behind")
	}
	cold1, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, warm1, cold1, "warm vs cold")

	// Updates must invalidate: a warm extraction after new ops equals a
	// cold extraction of the full stream.
	s.Apply(ops[1000:])
	warm2, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	s.DropDecodeCache()
	cold2, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	equalExtraction(t, warm2, cold2, "post-update warm vs cold")
}

// TestPlanFailKeepsLevel pins the plan-stage FAIL error: it matches
// ErrSketchFail, still carries the partition's ErrCounts so a caller can
// recover which level FAILed, and names a level that is really
// undecodable. BuildLazy consults the h levels in ascending order before
// any h′ level it needs, so every h level above the named one decoded,
// and the h or h′ sketch at the named level did not.
func TestPlanFailKeepsLevel(t *testing.T) {
	ps, _ := testMixture(7, 3000)
	s, err := New(Config{
		Dim: 2, Delta: testDelta, O: goodGuess(ps, 3), Params: coreset.Params{K: 3, Seed: 11},
		CellSparsity: 8, PointSparsity: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		s.Insert(p)
	}
	_, err = s.Result()
	if !errors.Is(err, ErrSketchFail) {
		t.Fatalf("want a sketch FAIL, got %v", err)
	}
	var ce partition.ErrCounts
	if !errors.As(err, &ce) {
		t.Fatalf("ErrCounts not reachable through %q", err)
	}
	if want := ErrSketchFail.Error() + ": " + ce.Error(); err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
	if ce.Level < 0 || ce.Level > s.g.L {
		t.Fatalf("FAIL level %d outside 0..%d", ce.Level, s.g.L)
	}
	for j := 0; j < ce.Level; j++ {
		if _, ok := s.h[j].st.ResultKeyed(nil); !ok {
			t.Fatalf("FAIL named level %d, but h already FAILs at level %d", ce.Level, j)
		}
	}
	_, hOK := s.hp[ce.Level].st.ResultKeyed(nil)
	if ce.Level < s.g.L {
		_, ok := s.h[ce.Level].st.ResultKeyed(nil)
		hOK = hOK && ok
	}
	if hOK {
		t.Fatalf("FAIL named level %d, whose h and h′ sketches both decode", ce.Level)
	}
	t.Logf("plan FAILs at level %d: %v", ce.Level, err)
}

// TestQueryFailTexts pins the text of every FAIL the query step reports
// on one instance, on the lazy one-worker path and the warmed two-worker
// path alike: a consulted h level that does not decode, Algorithm 2's
// level-mass budget, and a needed ĥ level that does not decode.
func TestQueryFailTexts(t *testing.T) {
	ps, _ := testMixture(7, 1000)
	o := goodGuess(ps, 3)
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"counts", func(c *Config) { c.CellSparsity = 8 },
			"stream: sketch decode FAILed: partition: cell counts unavailable for level 1"},
		{"plan", func(c *Config) { c.O = 0.25 },
			"stream: coreset plan FAILed: level 10 mass 1000 exceeds budget 474.99999999999994"},
		{"hat", func(c *Config) { c.PointSparsity = 8 },
			"stream: sketch decode FAILed: ĥ-substream level 4"},
	} {
		cfg := Config{Dim: 2, Delta: testDelta, O: o, Params: coreset.Params{K: 3, Seed: 11}}
		tc.set(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			s.Insert(p)
		}
		for _, workers := range []int{1, 2} {
			s.DropDecodeCache()
			if _, err := s.resultWith(workers); err == nil || err.Error() != tc.want {
				t.Errorf("%s, %d workers: error %v, want %q", tc.name, workers, err, tc.want)
			}
		}
	}
}
