package sketch

import (
	"math/rand"
	"testing"

	"streambalance/internal/hashing"
)

func TestSparseRecoveryEmpty(t *testing.T) {
	sr := NewSparseRecovery(rand.New(rand.NewSource(1)), 10, 0.01, 0)
	items, ok := sr.Decode()
	if !ok || len(items) != 0 {
		t.Fatalf("empty sketch: ok=%v items=%d", ok, len(items))
	}
}

func TestSparseRecoverySingle(t *testing.T) {
	sr := NewSparseRecovery(rand.New(rand.NewSource(2)), 4, 0.01, 2)
	sr.Update(12345, []int64{7, -3}, 5)
	items, ok := sr.Decode()
	if !ok || len(items) != 1 {
		t.Fatalf("decode: ok=%v n=%d", ok, len(items))
	}
	it := items[0]
	if it.Key != 12345 || it.Count != 5 || it.Payload[0] != 7 || it.Payload[1] != -3 {
		t.Fatalf("item = %+v", it)
	}
}

func TestSparseRecoveryExactlySparse(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := 16
		sr := NewSparseRecovery(rng, s, 0.001, 1)
		want := make(map[uint64]int64)
		for i := 0; i < s; i++ {
			k := uint64(rng.Int63n(1 << 50))
			c := int64(rng.Intn(100) + 1)
			want[k] += c
			sr.Update(k, []int64{int64(k % 97)}, c)
		}
		items, ok := sr.Decode()
		if !ok {
			t.Fatalf("seed %d: decode failed on %d-sparse input", seed, len(want))
		}
		got := make(map[uint64]int64)
		for _, it := range items {
			got[it.Key] += it.Count
			if it.Payload[0] != int64(it.Key%97) {
				t.Fatalf("seed %d: wrong payload for key %d", seed, it.Key)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: got %d keys, want %d", seed, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("seed %d: key %d count %d, want %d", seed, k, got[k], c)
			}
		}
	}
}

func TestSparseRecoveryDeletionsCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sr := NewSparseRecovery(rng, 8, 0.01, 1)
	// Insert a large batch, delete all but a handful: the sketch must be
	// oblivious to the intermediate density (linear sketching).
	for i := 0; i < 5000; i++ {
		sr.Update(uint64(i), []int64{int64(i)}, 1)
	}
	for i := 0; i < 5000; i++ {
		if i%1000 != 0 {
			sr.Update(uint64(i), []int64{int64(i)}, -1)
		}
	}
	items, ok := sr.Decode()
	if !ok {
		t.Fatal("decode failed after deletions restored sparsity")
	}
	if len(items) != 5 {
		t.Fatalf("got %d survivors, want 5", len(items))
	}
	for _, it := range items {
		if it.Key%1000 != 0 || it.Count != 1 || it.Payload[0] != int64(it.Key) {
			t.Fatalf("bad survivor %+v", it)
		}
	}
}

func TestSparseRecoveryOverfullFails(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sr := NewSparseRecovery(rng, 4, 0.01, 0)
	for i := 0; i < 1000; i++ {
		sr.Update(uint64(i*7+1), nil, 1)
	}
	if _, ok := sr.Decode(); ok {
		t.Fatal("decode must FAIL on a 1000-sparse vector with s=4")
	}
}

func TestSparseRecoveryNeverWrongUnderStress(t *testing.T) {
	// Whatever the load, a successful decode must be exactly correct.
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := 1 + rng.Intn(12)
		n := rng.Intn(3 * s)
		sr := NewSparseRecovery(rng, s, 0.01, 0)
		want := make(map[uint64]int64)
		for i := 0; i < n; i++ {
			k := uint64(rng.Int63n(64) + 1)
			d := int64(rng.Intn(5) - 2)
			want[k] += d
			sr.Update(k, nil, d)
		}
		for k, c := range want {
			if c == 0 {
				delete(want, k)
			}
		}
		items, ok := sr.Decode()
		if !ok {
			if len(want) <= s {
				t.Fatalf("seed %d: spurious FAIL on %d-sparse (s=%d)", seed, len(want), s)
			}
			continue
		}
		got := make(map[uint64]int64)
		for _, it := range items {
			got[it.Key] = it.Count
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: got %d keys want %d", seed, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("seed %d: key %d: got %d want %d", seed, k, got[k], c)
			}
		}
	}
}

func TestSparseRecoveryNegativeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sr := NewSparseRecovery(rng, 4, 0.01, 1)
	sr.Update(42, []int64{5}, -3) // net-negative entries are representable
	items, ok := sr.Decode()
	if !ok || len(items) != 1 {
		t.Fatalf("decode: ok=%v n=%d", ok, len(items))
	}
	if items[0].Count != -3 || items[0].Payload[0] != 5 {
		t.Fatalf("item = %+v", items[0])
	}
}

// TestSparseRecoveryMerge: the sum of two siblings' slabs decodes to
// the sum of their vectors (linearity).
func TestSparseRecoveryMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := NewSparseRecovery(rng, 8, 0.01, 1)
	b := a.cloneEmpty()
	a.Update(1, []int64{10}, 2)
	a.Update(2, []int64{20}, 1)
	b.Update(2, []int64{20}, 3)
	b.Update(3, []int64{30}, 1)
	addSlab(a, b)
	items, ok := a.Decode()
	if !ok {
		t.Fatal("merged decode failed")
	}
	got := map[uint64]int64{}
	for _, it := range items {
		got[it.Key] = it.Count
	}
	if got[1] != 2 || got[2] != 4 || got[3] != 1 {
		t.Fatalf("merged counts = %v", got)
	}
}

func TestSparseRecoveryBytesScalesWithS(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	small := NewSparseRecovery(rng, 4, 0.01, 2)
	big := NewSparseRecovery(rng, 64, 0.01, 2)
	if small.Bytes() >= big.Bytes() {
		t.Fatalf("bytes: small=%d big=%d", small.Bytes(), big.Bytes())
	}
	if small.Bytes() <= 0 {
		t.Fatal("bytes must be positive")
	}
}

func TestSparseRecoveryDuplicateKeyAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sr := NewSparseRecovery(rng, 4, 0.01, 1)
	for i := 0; i < 10; i++ {
		sr.Update(99, []int64{4}, 1)
	}
	items, ok := sr.Decode()
	if !ok || len(items) != 1 || items[0].Count != 10 || items[0].Payload[0] != 4 {
		t.Fatalf("accumulation broken: ok=%v items=%+v", ok, items)
	}
}

func TestToFieldRoundTrip(t *testing.T) {
	// ToField(-v) must be the additive inverse of ToField(v).
	for _, v := range []int64{1, 2, 1 << 40, 12345} {
		s := hashing.AddMod(hashing.ToField(v), hashing.ToField(-v))
		if s != 0 {
			t.Fatalf("ToField(%d) + ToField(-%d) = %d", v, v, s)
		}
	}
}
