package streamfmt

import (
	"math"
	"math/rand"
	"testing"
)

func TestZigzagRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 2, -2, 63, -64, 1 << 20, -(1 << 20), math.MaxInt64, math.MinInt64}
	for _, v := range vals {
		if got := ZigzagDecode(ZigzagEncode(v)); got != v {
			t.Fatalf("zigzag(%d) round-tripped to %d", v, got)
		}
	}
	// Small magnitudes must map to small codes (the property delta coding
	// relies on).
	for _, v := range []int64{0, -1, 1, -2, 2} {
		if ZigzagEncode(v) > 4 {
			t.Fatalf("zigzag(%d) = %d, want <= 4", v, ZigzagEncode(v))
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	var want []uint64
	for i := 0; i < 1000; i++ {
		v := rng.Uint64() >> uint(rng.Intn(64))
		want = append(want, v)
		buf = AppendUvarint(buf, v)
	}
	off := 0
	for i, w := range want {
		v, n := Uvarint(buf[off:])
		if n <= 0 || v != w {
			t.Fatalf("value %d: got %d (n=%d), want %d", i, v, n, w)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestVarintTruncated(t *testing.T) {
	buf := AppendUvarint(nil, 1<<40)
	if _, n := Uvarint(buf[:2]); n > 0 {
		t.Fatal("truncated varint must not decode")
	}
	if _, n := Zigzag(nil); n > 0 {
		t.Fatal("empty zigzag must not decode")
	}
	// Padded encodings of 0 and 4: each value has one accepted encoding.
	for _, b := range [][]byte{{0x80, 0x00}, {0x84, 0x80, 0x00}} {
		if _, n := Uvarint(b); n > 0 {
			t.Fatalf("padded varint %x must not decode", b)
		}
		if _, ok := DeltaVec(b, make([]int64, 1)); ok {
			t.Fatalf("padded delta %x must not decode", b)
		}
	}
}

func TestDeltaVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const dim = 3
	vecs := make([][]int64, 50)
	for i := range vecs {
		vecs[i] = make([]int64, dim)
		for j := range vecs[i] {
			vecs[i][j] = rng.Int63n(1<<12) - (1 << 11)
		}
	}
	var buf []byte
	prev := make([]int64, dim)
	for _, v := range vecs {
		buf = AppendDeltaVec(buf, prev, v)
	}
	got := make([]int64, dim)
	off := 0
	for i, want := range vecs {
		n, ok := DeltaVec(buf[off:], got)
		if !ok {
			t.Fatalf("vec %d: decode failed", i)
		}
		off += n
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("vec %d coord %d: got %d want %d", i, j, got[j], want[j])
			}
		}
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
	if _, ok := DeltaVec(buf[:1], make([]int64, dim)); ok && len(buf) > 1 {
		t.Fatal("truncated delta vector must not decode")
	}
}

// Sorted inputs with small gaps must encode near one byte per coordinate —
// the compactness the dist wire codec's Report.Bits metering relies on.
func TestDeltaVecCompactOnSorted(t *testing.T) {
	const n = 1000
	prev := make([]int64, 1)
	var buf []byte
	for i := int64(0); i < n; i++ {
		buf = AppendDeltaVec(buf, prev, []int64{i * 3})
	}
	if len(buf) > n {
		t.Fatalf("sorted small-gap sequence took %d bytes for %d values", len(buf), n)
	}
}
