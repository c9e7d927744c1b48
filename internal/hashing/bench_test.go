package hashing

import (
	"math/rand"
	"testing"

	"streambalance/internal/testutil"
)

// benchChunk is the column length the batch benchmarks feed the lane
// kernels per timed step; per-op numbers stay per key/point.
const benchChunk = 512

func BenchmarkKWiseEval(b *testing.B) {
	for _, lambda := range []int{2, 16, 256} {
		h := NewKWise(rand.New(rand.NewSource(1)), lambda)
		b.Run(testutil.BenchName("lambda", lambda)+"/scalar", func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink ^= h.Eval(uint64(i))
			}
			_ = sink
		})
		b.Run(testutil.BenchName("lambda", lambda)+"/batch", func(b *testing.B) {
			keys := make([]uint64, benchChunk)
			dst := make([]uint64, benchChunk)
			for i := range keys {
				keys[i] = uint64(i) * 0x9e3779b97f4a7c15
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += benchChunk {
				n := benchChunk
				if rem := b.N - i; rem < n {
					n = rem
				}
				h.EvalN(dst[:n], keys[:n])
			}
		})
	}
}

func BenchmarkBernoulliSample(b *testing.B) {
	s := NewBernoulli(rand.New(rand.NewSource(2)), 16, 0.1)
	b.Run("scalar", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			if s.Sample(uint64(i)) {
				n++
			}
		}
		_ = n
	})
	// The power-column kernel: the column is built once per batch and
	// shared by every sampler, so the timed step is the sampling alone.
	b.Run("powers", func(b *testing.B) {
		keys := make([]uint64, benchChunk)
		pow := make([]uint64, PowerStride*benchChunk)
		dst := make([]bool, benchChunk)
		for i := range keys {
			keys[i] = uint64(i) * 0x9e3779b97f4a7c15 & MersennePrime61
		}
		PowersN(pow, keys)
		b.ResetTimer()
		for i := 0; i < b.N; i += benchChunk {
			n := benchChunk
			if rem := b.N - i; rem < n {
				n = rem
			}
			s.SamplePowers(dst[:n], pow[:n*PowerStride])
		}
	})
	b.Run("column", func(b *testing.B) {
		keys := make([]uint64, benchChunk)
		pow := make([]uint64, PowerStride*benchChunk)
		for i := range keys {
			keys[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		b.ResetTimer()
		for i := 0; i < b.N; i += benchChunk {
			n := benchChunk
			if rem := b.N - i; rem < n {
				n = rem
			}
			PowersN(pow[:n*PowerStride], keys[:n])
		}
	})
}

// BenchmarkHashPowers times the power-column kernel alone: one λ = 16
// polynomial's values over a shared power column, the work an ingest
// batch does once per sampled (substream, level).
func BenchmarkHashPowers(b *testing.B) {
	s := NewBernoulli(rand.New(rand.NewSource(2)), 16, 0.1)
	keys := make([]uint64, benchChunk)
	pow := make([]uint64, PowerStride*benchChunk)
	dst := make([]uint64, benchChunk)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15 & MersennePrime61
	}
	PowersN(pow, keys)
	b.ResetTimer()
	for i := 0; i < b.N; i += benchChunk {
		n := min(benchChunk, b.N-i)
		s.HashPowers(dst[:n], pow[:n*PowerStride])
	}
}

func BenchmarkFingerprintKey(b *testing.B) {
	f := NewFingerprint(rand.New(rand.NewSource(3)))
	b.Run("scalar", func(b *testing.B) {
		coords := []int64{123456, 654321, 111111, 999999}
		var sink uint64
		for i := 0; i < b.N; i++ {
			coords[0] = int64(i)
			sink ^= f.Key(coords)
		}
		_ = sink
	})
	b.Run("batch", func(b *testing.B) {
		pts := make([][]int64, benchChunk)
		for i := range pts {
			pts[i] = []int64{int64(i), 654321, 111111, 999999}
		}
		dst := make([]uint64, benchChunk)
		b.ResetTimer()
		for i := 0; i < b.N; i += 4 {
			t := i % benchChunk
			dst[t], dst[t+1], dst[t+2], dst[t+3] = f.Key4(pts[t], pts[t+1], pts[t+2], pts[t+3])
		}
	})
}

func BenchmarkMulMod(b *testing.B) {
	var sink uint64 = 12345
	for i := 0; i < b.N; i++ {
		sink = mulMod(sink, 0x1234567890ab)
	}
	_ = sink
}
