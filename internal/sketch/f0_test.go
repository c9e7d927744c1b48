package sketch

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/hashing"
)

func TestF0ExactWhenSmall(t *testing.T) {
	f := NewF0(rand.New(rand.NewSource(1)), 1<<20, 64, 0.01)
	for i := 0; i < 40; i++ {
		f.Update(uint64(i*7+1), 1)
		f.Update(uint64(i*7+1), 2) // duplicates must not inflate F0
	}
	got, ok := f.Estimate()
	if !ok || got != 40 {
		t.Fatalf("estimate %v ok=%v, want exactly 40", got, ok)
	}
}

func TestF0LargeApproximation(t *testing.T) {
	for _, n := range []int{5000, 50000} {
		f := NewF0(rand.New(rand.NewSource(2)), 1<<20, 256, 0.01)
		for i := 0; i < n; i++ {
			f.Update(uint64(i)*2654435761+17, 1)
		}
		got, ok := f.Estimate()
		if !ok {
			t.Fatalf("n=%d: estimate failed", n)
		}
		if math.Abs(got-float64(n)) > 0.25*float64(n) {
			t.Fatalf("n=%d: estimate %v off by more than 25%%", n, got)
		}
	}
}

func TestF0Deletions(t *testing.T) {
	f := NewF0(rand.New(rand.NewSource(3)), 1<<20, 128, 0.01)
	// Insert 20000 keys, delete all but 50.
	for i := 0; i < 20000; i++ {
		f.Update(uint64(i+1), 1)
	}
	for i := 50; i < 20000; i++ {
		f.Update(uint64(i+1), -1)
	}
	got, ok := f.Estimate()
	if !ok || got != 50 {
		t.Fatalf("after deletions: estimate %v ok=%v, want exactly 50", got, ok)
	}
}

func TestF0FullCancellation(t *testing.T) {
	f := NewF0(rand.New(rand.NewSource(4)), 1<<10, 32, 0.01)
	for i := 0; i < 500; i++ {
		f.Update(uint64(i+1), 1)
	}
	for i := 0; i < 500; i++ {
		f.Update(uint64(i+1), -1)
	}
	got, ok := f.Estimate()
	if !ok || got != 0 {
		t.Fatalf("cancelled stream: estimate %v ok=%v", got, ok)
	}
}

func TestF0UndersizedFails(t *testing.T) {
	// maxKeys sized for 64 keys; feed 100000.
	f := NewF0(rand.New(rand.NewSource(5)), 64, 16, 0.01)
	for i := 0; i < 100000; i++ {
		f.Update(uint64(i+1), 1)
	}
	if est, ok := f.Estimate(); ok && est < 50000 {
		t.Fatalf("undersized ladder returned a confident wrong answer: %v", est)
	}
}

func TestF0BytesBounded(t *testing.T) {
	f := NewF0(rand.New(rand.NewSource(6)), 1<<30, 128, 0.01)
	if f.Bytes() <= 0 || f.Bytes() > 32<<20 {
		t.Fatalf("bytes = %d", f.Bytes())
	}
}

// TestF0UpdateNMatchesUpdate: the columnar UpdateN — zero rows dropped,
// each ladder level filtered from the previous level's rows — must leave the same
// state as Update of every row, for columns on both sides of the
// bucket-ordered write threshold and with zero-delta rows mixed in.
func TestF0UpdateNMatchesUpdate(t *testing.T) {
	ref := NewF0(rand.New(rand.NewSource(3)), 1<<20, 64, 0.01)
	f := NewF0(rand.New(rand.NewSource(3)), 1<<20, 64, 0.01)
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 5, 63, 64, 65, 2000} {
		keys := make([]uint64, n)
		deltas := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Uint64() >> 3
			deltas[i] = int64(rng.Intn(5)) - 2
			ref.Update(keys[i], deltas[i])
		}
		f.UpdateN(keys, deltas)
		if f.Digest() != ref.Digest() {
			t.Fatalf("n=%d: UpdateN state diverged from per-row Update", n)
		}
	}
}

// TestF0LevelsNested: one level-assignment hash gives nested bands, so
// the keys level j holds are exactly level j−1's keys whose hash lies
// below p≫j — a subset — and each level keeps about half the previous
// one's. Every level is sized to decode all its keys.
func TestF0LevelsNested(t *testing.T) {
	const n = 3000
	f := NewF0(rand.New(rand.NewSource(8)), 1<<12, 4*n, 0.01)
	keys := make([]uint64, n)
	deltas := make([]int64, n)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15>>3 + 1
		deltas[i] = 1
	}
	f.UpdateN(keys, deltas)
	var prev map[uint64]bool
	for j, l := range f.levels {
		items, ok := l.Decode()
		if !ok {
			t.Fatalf("level %d did not decode", j)
		}
		cur := make(map[uint64]bool, len(items))
		for _, it := range items {
			cur[it.Key] = true
			if h := f.samp.Eval(it.Key); h >= hashing.MersennePrime61>>uint(j) {
				t.Fatalf("level %d holds key %d with hash %d outside its band", j, it.Key, h)
			}
			if prev != nil && !prev[it.Key] {
				t.Fatalf("level %d holds key %d that level %d does not", j, it.Key, j-1)
			}
		}
		if j == 0 && len(cur) != n {
			t.Fatalf("level 0 holds %d keys, want all %d", len(cur), n)
		}
		if j > 0 && len(prev) >= 64 && (len(cur) < len(prev)/4 || len(cur) > 3*len(prev)/4) {
			t.Fatalf("level %d keeps %d of level %d's %d keys, want about half", j, len(cur), j-1, len(prev))
		}
		prev = cur
	}
}
