package hashing

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// requirePowersHash checks that HashPowers evaluates row r of pow to
// exactly want.
func requirePowersHash(t *testing.T, b *Bernoulli, pow []uint64, r int, want uint64) {
	t.Helper()
	var hv [1]uint64
	b.HashPowers(hv[:], pow[r*PowerStride:(r+1)*PowerStride])
	if hv[0] != want {
		t.Fatalf("lambda=%d row %d: power-column hash %d differs from Eval's %d", b.h.Degree(), r, hv[0], want)
	}
}

// TestPowerKernelMatchesHorner is the power-column kernel's table test:
// for every degree — one partial block, one full block, a block plus
// one coefficient, several blocks, and the conservative-mode cap — every
// key class, including the reduction edges p and 2^61 = p + 1, and every
// rate class, the dot-product evaluation equals Horner's Eval and
// SamplePowers equals Sample.
func TestPowerKernelMatchesHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := []uint64{0, 1, MersennePrime61 - 1, MersennePrime61, 1 << 61}
	for i := 0; i < 16; i++ {
		keys = append(keys, rng.Uint64()&((1<<61)-1))
	}
	pow := make([]uint64, PowerStride*len(keys))
	PowersN(pow, keys)
	for r, k := range keys {
		x := reduce64(k)
		for i := 0; i < PowerStride; i++ {
			if got, want := pow[r*PowerStride+i], PowMod(x, uint64(i)); got != want {
				t.Fatalf("key %d: x^%d = %d, PowMod %d", k, i, got, want)
			}
		}
	}
	sel := make([]bool, len(keys))
	for _, lambda := range []int{1, 2, 15, 16, 17, 32, 33, 4096} {
		for _, phi := range []float64{0, 1e-15, 0.5, 1} {
			b := NewBernoulli(rng, lambda, phi)
			if len(b.blocks)%powerBlock != 0 || b.h.Degree() != lambda {
				t.Fatalf("lambda=%d: %d padded coefficients, degree %d", lambda, len(b.blocks), b.h.Degree())
			}
			b.SamplePowers(sel, pow)
			for r, k := range keys {
				requirePowersHash(t, b, pow, r, b.h.Eval(k))
				if want := b.Sample(k); sel[r] != want {
					t.Fatalf("lambda=%d phi=%g key=%d: SamplePowers=%v Sample=%v", lambda, phi, k, sel[r], want)
				}
			}
		}
	}
}

// TestSamplePowersMatchesScalar covers the interior rates plus both
// short-circuit boundaries (φ = 0 and φ = 1), which the streaming
// calibration pins at many levels, over a poisoned destination so the
// whole-column fills are verified too.
func TestSamplePowersMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, phi := range []float64{0, 1e-9, 0.1, 0.5, 0.999, 1} {
		b := NewBernoulli(rng, 16, phi)
		keys := make([]uint64, 137)
		for i := range keys {
			keys[i] = rng.Uint64() & (MersennePrime61 - 1)
		}
		pow := make([]uint64, PowerStride*len(keys))
		PowersN(pow, keys)
		dst := make([]bool, len(keys)+3)
		for i := range dst {
			dst[i] = i%2 == 0
		}
		b.SamplePowers(dst, pow)
		for i, k := range keys {
			if want := b.Sample(k); dst[i] != want {
				t.Fatalf("phi=%g i=%d: SamplePowers=%v Sample=%v", phi, i, dst[i], want)
			}
		}
		for i := len(keys); i < len(dst); i++ {
			if dst[i] != (i%2 == 0) {
				t.Fatalf("phi=%g: SamplePowers wrote past the column at %d", phi, i)
			}
		}
	}
}

// TestReduce128AtTheBlockBound checks the one-shot reduction at the
// largest value a block can accumulate, 16·(p−1)², and at values
// straddling each limb boundary, against math/big.
func TestReduce128AtTheBlockBound(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	check := func(v *big.Int) {
		t.Helper()
		lo := new(big.Int).And(v, new(big.Int).SetUint64(^uint64(0))).Uint64()
		hi := new(big.Int).Rsh(v, 64).Uint64()
		if got, want := reduce128(hi, lo), new(big.Int).Mod(v, p).Uint64(); got != want {
			t.Fatalf("reduce128(%s) = %d, want %d", v, got, want)
		}
	}
	pm1 := new(big.Int).SetUint64(MersennePrime61 - 1)
	max := new(big.Int).Mul(pm1, pm1)
	max.Mul(max, big.NewInt(powerBlock))
	check(max)
	for _, e := range []uint{61, 64, 122, 125} {
		edge := new(big.Int).Lsh(big.NewInt(1), e)
		for _, d := range []int64{-2, -1, 0, 1} {
			check(new(big.Int).Add(edge, big.NewInt(d)))
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		v := new(big.Int).Rand(rng, max)
		check(v)
	}
	// A full block of maximal terms through dot16 itself: c[0]·x⁰ plus
	// fifteen products of p−1 by p−1.
	var c [powerBlock]uint64
	var w [PowerStride]uint64
	for i := range c {
		c[i] = MersennePrime61 - 1
		w[i] = MersennePrime61 - 1
	}
	w[0] = 1
	top := new(big.Int).Mul(pm1, pm1)
	top.Mul(top, big.NewInt(powerBlock-1))
	top.Add(top, pm1)
	if got, want := dot16(&c, &w), new(big.Int).Mod(top, p).Uint64(); got != want {
		t.Fatalf("dot16 at the bound = %d, want %d", got, want)
	}
}

// TestPowerKernelsPanicOnShortDst pins the defensive length checks.
func TestPowerKernelsPanicOnShortDst(t *testing.T) {
	b := NewBernoulli(rand.New(rand.NewSource(13)), 16, 0.5)
	for name, fn := range map[string]func(){
		"PowersN":      func() { PowersN(make([]uint64, PowerStride), make([]uint64, 2)) },
		"SamplePowers": func() { b.SamplePowers(make([]bool, 1), make([]uint64, 2*PowerStride)) },
		"HashPowers":   func() { b.HashPowers(make([]uint64, 1), make([]uint64, 2*PowerStride)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on a short dst", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzSamplePowersMatchesSample drives the power-column kernel with
// arbitrary degrees, rates and key bytes — keys masked below 2^62, the
// range the kernel is exact on, which holds every fingerprint key — and
// checks bit-identity with Horner's Eval and the scalar Sample.
func FuzzSamplePowersMatchesSample(f *testing.F) {
	f.Add(int64(1), uint16(16), uint16(6553), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(42), uint16(17), uint16(65535), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Add(int64(7), uint16(1), uint16(0), []byte{})
	f.Add(int64(9), uint16(40), uint16(32768), []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f})
	f.Fuzz(func(t *testing.T, seed int64, lam, rate uint16, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		lambda := 1 + int(lam%80)
		b := NewBernoulli(rng, lambda, float64(rate)/65535)
		keys := make([]uint64, 0, len(raw)/8+1)
		for i := 0; i+8 <= len(raw); i += 8 {
			keys = append(keys, binary.LittleEndian.Uint64(raw[i:])&((1<<62)-1))
		}
		if len(raw)%8 != 0 {
			keys = append(keys, uint64(raw[len(raw)-1]))
		}
		pow := make([]uint64, PowerStride*len(keys))
		PowersN(pow, keys)
		sel := make([]bool, len(keys))
		b.SamplePowers(sel, pow)
		for i, k := range keys {
			requirePowersHash(t, b, pow, i, b.h.Eval(k))
			if want := b.Sample(k); sel[i] != want {
				t.Fatalf("lambda=%d key=%d: SamplePowers=%v Sample=%v", lambda, k, sel[i], want)
			}
		}
	})
}
