package hashing

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestEval4MatchesScalar pins the 4-lane Horner kernel to the scalar
// path across degrees, including the key-reduction branch (x ≥ p).
func TestEval4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lambda := range []int{1, 2, 3, 4, 16, 64} {
		h := NewKWise(rng, lambda)
		for trial := 0; trial < 64; trial++ {
			var x [4]uint64
			for i := range x {
				x[i] = rng.Uint64() & ((1 << 62) - 1) // exercises x ≥ p too
			}
			y0, y1, y2, y3 := h.Eval4(x[0], x[1], x[2], x[3])
			got := [4]uint64{y0, y1, y2, y3}
			for i := range x {
				if want := h.Eval(x[i]); got[i] != want {
					t.Fatalf("lambda=%d lane %d: Eval4=%d Eval=%d (x=%d)", lambda, i, got[i], want, x[i])
				}
			}
		}
	}
}

// TestEvalNMatchesScalar covers every tail length 0..7 around the
// 4-lane blocking.
func TestEvalNMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewKWise(rng, 8)
	for n := 0; n <= 23; n++ {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64() & ((1 << 62) - 1)
		}
		dst := make([]uint64, n)
		h.EvalN(dst, keys)
		for i, k := range keys {
			if want := h.Eval(k); dst[i] != want {
				t.Fatalf("n=%d i=%d: EvalN=%d Eval=%d", n, i, dst[i], want)
			}
		}
	}
}

// TestKey4MatchesScalar pins the 4-lane fingerprint, including negative
// coordinates (the cell-index payloads can hold shifted negatives).
func TestKey4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := NewFingerprint(rng)
	for _, dim := range []int{1, 2, 3, 8} {
		var p [4][]int64
		for i := range p {
			p[i] = make([]int64, dim)
			for j := range p[i] {
				p[i][j] = rng.Int63() - rng.Int63()
			}
		}
		k0, k1, k2, k3 := f.Key4(p[0], p[1], p[2], p[3])
		got := [4]uint64{k0, k1, k2, k3}
		for i := range p {
			if want := f.Key(p[i]); got[i] != want {
				t.Fatalf("dim=%d lane %d: Key4=%d Key=%d", dim, i, got[i], want)
			}
		}
	}
}

// TestKeyNMatchesScalar covers ragged tails of the blocked fingerprint.
func TestKeyNMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewFingerprint(rng)
	for n := 0; n <= 11; n++ {
		pts := make([][]int64, n)
		for t := range pts {
			pts[t] = []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20)}
		}
		dst := make([]uint64, n)
		f.KeyN(dst, pts)
		for t2, p := range pts {
			if want := f.Key(p); dst[t2] != want {
				t.Fatalf("n=%d t=%d: KeyN=%d Key=%d", n, t2, dst[t2], want)
			}
		}
	}
}

// TestKeyTagged4MatchesScalar pins the tagged 4-lane fingerprint (the
// cell-key kernel) to KeyTagged, across tags including the level −1
// encoding (tag 1).
func TestKeyTagged4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := NewFingerprint(rng)
	for _, tag := range []int64{1, 2, 7, 1 << 40} {
		var idx [4][]int64
		for i := range idx {
			idx[i] = []int64{rng.Int63n(1 << 30), rng.Int63n(1 << 30), rng.Int63n(1 << 30)}
		}
		k0, k1, k2, k3 := f.KeyTagged4(tag, idx[0], idx[1], idx[2], idx[3])
		got := [4]uint64{k0, k1, k2, k3}
		for i := range idx {
			if want := f.KeyTagged(tag, idx[i]); got[i] != want {
				t.Fatalf("tag=%d lane %d: KeyTagged4=%d KeyTagged=%d", tag, i, got[i], want)
			}
		}
	}
}

// TestLaneKernelsPanicOnShapeMismatch pins the defensive checks: ragged
// lane vectors and short dst buffers must panic, not corrupt.
func TestLaneKernelsPanicOnShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewFingerprint(rng)
	h := NewKWise(rng, 4)
	for name, fn := range map[string]func(){
		"Key4":       func() { f.Key4([]int64{1, 2}, []int64{1}, []int64{1, 2}, []int64{1, 2}) },
		"KeyTagged4": func() { f.KeyTagged4(2, []int64{1}, []int64{1, 2}, []int64{1}, []int64{1}) },
		"EvalN":      func() { h.EvalN(make([]uint64, 2), make([]uint64, 3)) },
		"KeyN":       func() { f.KeyN(make([]uint64, 1), [][]int64{{1}, {2}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on shape mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzEvalLanesMatchScalar drives the lane kernels with arbitrary
// coefficient seeds and key bytes and checks bit-identity with the
// scalar paths — the equivalence contract of the batched hot path.
func FuzzEvalLanesMatchScalar(f *testing.F) {
	f.Add(int64(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(42), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Add(int64(7), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		lambda := 1 + int(uint(seed)%9)
		h := NewKWise(rng, lambda)
		fp := NewFingerprint(rng)

		keys := make([]uint64, 0, len(raw)/8+1)
		for i := 0; i+8 <= len(raw); i += 8 {
			keys = append(keys, binary.LittleEndian.Uint64(raw[i:]))
		}
		if len(raw)%8 != 0 {
			keys = append(keys, uint64(raw[len(raw)-1]))
		}

		dst := make([]uint64, len(keys))
		h.EvalN(dst, keys)
		pts := make([][]int64, len(keys))
		for i, k := range keys {
			pts[i] = []int64{int64(k), int64(k >> 7), -int64(k & 0xffff)}
		}
		fkeys := make([]uint64, len(pts))
		fp.KeyN(fkeys, pts)

		for i, k := range keys {
			if want := h.Eval(k); dst[i] != want {
				t.Fatalf("EvalN[%d]=%d, scalar %d", i, dst[i], want)
			}
			if want := fp.Key(pts[i]); fkeys[i] != want {
				t.Fatalf("KeyN[%d]=%d, scalar %d", i, fkeys[i], want)
			}
		}
	})
}
