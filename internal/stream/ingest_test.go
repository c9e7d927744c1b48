package stream

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/workload"
)

// shuffledChurnOps builds an insert+delete workload: every mixture point
// inserted, a junk set inserted and fully deleted, all in a fixed shuffled
// order.
func shuffledChurnOps(seed int64, n int) []Op {
	rng := rand.New(rand.NewSource(seed))
	ps, _ := workload.Mixture{N: n, D: 2, Delta: testDelta, K: 3, Spread: 8, Skew: 2, NoiseFrac: 0.05}.Generate(rng)
	junk := workload.UniformBox(rng, n/2, 2, testDelta)
	ops := make([]Op, 0, n+2*len(junk))
	for _, p := range ps {
		ops = append(ops, Op{P: p})
	}
	for _, p := range junk {
		ops = append(ops, Op{P: p})
	}
	// Deletions must trail the matching insertions to keep every prefix
	// valid; shuffle inserts and deletes separately.
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	dels := make([]Op, len(junk))
	for i, p := range junk {
		dels[i] = Op{P: p, Delete: true}
	}
	rng.Shuffle(len(dels), func(i, j int) { dels[i], dels[j] = dels[j], dels[i] })
	return append(ops, dels...)
}

func replayPerOp(t *testing.T, s *Stream, ops []Op) {
	t.Helper()
	for _, op := range ops {
		if op.Delete {
			s.Delete(op.P)
		} else {
			s.Insert(op.P)
		}
	}
}

func sameCoreset(t *testing.T, a, b *coreset.Coreset, errA, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("result errors differ: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	if a.Size() != b.Size() {
		t.Fatalf("coreset sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := range a.Points {
		if !a.Points[i].P.Equal(b.Points[i].P) || a.Points[i].W != b.Points[i].W {
			t.Fatalf("coreset point %d differs: %v/%v vs %v/%v",
				i, a.Points[i].P, a.Points[i].W, b.Points[i].P, b.Points[i].W)
		}
	}
}

// TestApplyMatchesPerOp: the batched pipeline must produce bit-identical
// sketch state — hence identical Bytes() and Result() — to per-op replay,
// for every batch size.
func TestApplyMatchesPerOp(t *testing.T) {
	ops := shuffledChurnOps(101, 1200)
	o := 1 << 12
	cfg := Config{Dim: 2, Delta: testDelta, O: float64(o), Params: coreset.Params{K: 3, Seed: 51}}

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayPerOp(t, ref, ops)

	for _, chunk := range []int{1, 7, 64, len(ops)} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ops); i += chunk {
			end := i + chunk
			if end > len(ops) {
				end = len(ops)
			}
			s.Apply(ops[i:end])
		}
		if s.N() != ref.N() {
			t.Fatalf("chunk %d: N %d vs %d", chunk, s.N(), ref.N())
		}
		if s.Bytes() != ref.Bytes() {
			t.Fatalf("chunk %d: Bytes %d vs %d", chunk, s.Bytes(), ref.Bytes())
		}
		if s.StateDigest() != ref.StateDigest() {
			t.Fatalf("chunk %d: sketch state diverged from per-op replay", chunk)
		}
		ca, errA := ref.Result()
		cb, errB := s.Result()
		sameCoreset(t, ca, cb, errA, errB)
	}
}

// TestAutoApplyMatchesPerOp: same bit-identical contract for the guess
// enumeration, whose Apply shards (guess × level-range) units across a
// worker pool. GOMAXPROCS is raised so the pool genuinely runs concurrent
// workers even on a single-core machine — under -race this validates that
// shards never touch overlapping sketch state.
func TestAutoApplyMatchesPerOp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ops := shuffledChurnOps(202, 900)
	cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 52},
		CellSparsity: 512, PointSparsity: 2048}

	ref, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Delete {
			ref.Delete(op.P)
		} else {
			ref.Insert(op.P)
		}
	}

	a, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 256
	for i := 0; i < len(ops); i += chunk {
		end := i + chunk
		if end > len(ops) {
			end = len(ops)
		}
		a.Apply(ops[i:end])
	}
	if a.StateDigest() != ref.StateDigest() {
		t.Fatal("batched Auto.Apply state diverged from per-op replay")
	}
	if a.Bytes() != ref.Bytes() {
		t.Fatalf("Bytes %d vs %d", a.Bytes(), ref.Bytes())
	}
	ca, errA := ref.Result()
	cb, errB := a.Result()
	sameCoreset(t, ca, cb, errA, errB)
}

// TestSharedGridAcrossGuesses: the guess instances of one Auto share one
// grid shift and one fingerprint — the invariant that makes one key column
// valid for the whole ensemble.
func TestSharedGridAcrossGuesses(t *testing.T) {
	a, err := NewAuto(Config{Dim: 2, Delta: 256, Params: coreset.Params{K: 2, Seed: 3}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{17, 200}
	for _, s := range a.streams {
		if s.g != a.g || s.fp != a.fp {
			t.Fatal("guess instance does not share the ensemble grid/fingerprint")
		}
		if s.fp.Key(p) != a.fp.Key(p) {
			t.Fatal("fingerprint keys differ across guesses")
		}
	}
}

// TestApplyEquivalenceWithDeleteOnlyBatch: a batch of pure deletions must
// cancel a batch of pure insertions exactly, leaving the digest of the
// empty stream.
func TestApplyEquivalenceWithDeleteOnlyBatch(t *testing.T) {
	ps, _ := testMixture(77, 400)
	cfg := Config{Dim: 2, Delta: testDelta, O: 1024, Params: coreset.Params{K: 3, Seed: 78}}
	empty, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]Op, len(ps))
	del := make([]Op, len(ps))
	for i, p := range ps {
		ins[i] = Op{P: p}
		del[i] = Op{P: p, Delete: true}
	}
	s.Apply(ins)
	if s.StateDigest() == empty.StateDigest() {
		t.Fatal("insertions left no trace in the sketches")
	}
	s.Apply(del)
	if s.StateDigest() != empty.StateDigest() {
		t.Fatal("deletions did not cancel insertions exactly")
	}
}

// TestAutoApplyWeightSanity: end-to-end quality through the batched path —
// the selected coreset still carries the right total weight.
func TestAutoApplyWeightSanity(t *testing.T) {
	ps, _ := testMixture(33, 2000)
	a, err := NewAuto(Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 34},
		CellSparsity: 512, PointSparsity: 2048}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = Op{P: p}
	}
	a.Apply(ops)
	cs, err := a.Result()
	if err != nil {
		t.Fatal(err)
	}
	if w := cs.TotalWeight(); math.Abs(w-float64(len(ps))) > 0.3*float64(len(ps)) {
		t.Fatalf("total weight %v vs n=%d", w, len(ps))
	}
}

// TestApplyMatchesPerOpAcrossLambda runs the batched-vs-per-op digest
// check at hash independence λ = 3 (one partial block of the power-column
// kernel) and λ = 40 (three blocks chained by Horner's rule in x¹⁶); the
// default geometry only exercises λ = 16. Batches of unequal length
// follow each other, so a power column left over from an earlier batch
// would sample the wrong keys.
func TestApplyMatchesPerOpAcrossLambda(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ops := shuffledChurnOps(303, 600)
	for _, lambda := range []int{3, 40} {
		cfg := Config{Dim: 2, Delta: testDelta,
			Params:       coreset.Params{K: 3, Seed: 53, HashIndependence: lambda},
			CellSparsity: 128, PointSparsity: 512}
		ref, err := NewAuto(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Delete {
				ref.Delete(op.P)
			} else {
				ref.Insert(op.P)
			}
		}
		if frac := len(ref.units) - ref.rateOne; frac == 0 {
			t.Fatalf("lambda=%d: no fractional sampler to exercise", lambda)
		}
		a, err := NewAuto(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, step := 0, 1; i < len(ops); i, step = i+step, step*2+1 {
			a.Apply(ops[i:min(i+step, len(ops))])
		}
		if a.StateDigest() != ref.StateDigest() {
			t.Fatalf("lambda=%d: batched Auto.Apply state diverged from per-op replay", lambda)
		}
		ca, errA := ref.Result()
		cb, errB := a.Result()
		sameCoreset(t, ca, cb, errA, errB)
	}
}
