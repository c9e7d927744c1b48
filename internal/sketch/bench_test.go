package sketch

import (
	"math/rand"
	"testing"

	"streambalance/internal/testutil"
)

func BenchmarkSparseUpdate(b *testing.B) {
	for _, s := range []int{256, 4096} {
		b.Run(testutil.BenchName("s", s)+"/scalar", func(b *testing.B) {
			sr := NewSparseRecovery(rand.New(rand.NewSource(1)), s, 0.01, 2)
			payload := []int64{7, 9}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr.Update(uint64(i), payload, 1)
			}
		})
		b.Run(testutil.BenchName("s", s)+"/batch", func(b *testing.B) {
			sr := NewSparseRecovery(rand.New(rand.NewSource(1)), s, 0.01, 2)
			const chunk = 512
			keys := make([]uint64, chunk)
			payload := make([]int64, chunk*2)
			deltas := make([]int64, chunk)
			for i := 0; i < chunk; i++ {
				keys[i] = uint64(i) * 0x9e3779b97f4a7c15
				payload[2*i], payload[2*i+1] = 7, 9
				deltas[i] = 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += chunk {
				n := chunk
				if rem := b.N - i; rem < n {
					n = rem
				}
				sr.UpdateScaledN(keys[:n], payload[:n*2], deltas[:n])
			}
		})
	}
}

// benchSketch builds an s-sparse sketch loaded with exactly s items.
func benchSketch(s int) *SparseRecovery {
	rng := rand.New(rand.NewSource(2))
	sr := NewSparseRecovery(rng, s, 0.01, 2)
	for i := 0; i < s; i++ {
		sr.Update(uint64(rng.Int63()), []int64{1, 2}, 1)
	}
	return sr
}

func BenchmarkSparseDecode(b *testing.B) {
	for _, s := range []int{64, 1024} {
		b.Run(testutil.BenchName("s", s), func(b *testing.B) {
			sr := benchSketch(s)
			arena := NewDecodeArena()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := sr.DecodeWith(arena); !ok {
					b.Fatal("decode failed")
				}
			}
		})
	}
}

// BenchmarkSparseDecodeReference times the round-based rescan oracle
// (reference_test.go) — the baseline the worklist decoder's speedup is
// measured against.
func BenchmarkSparseDecodeReference(b *testing.B) {
	for _, s := range []int{64, 1024} {
		b.Run(testutil.BenchName("s", s), func(b *testing.B) {
			sr := benchSketch(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := sr.DecodeReference(); !ok {
					b.Fatal("decode failed")
				}
			}
		})
	}
}

// BenchmarkSparseUpdateSchedule A/Bs the two write schedules of the
// UpdateScaledN kernel: 64 s=2048 dim-2 sketches (the ingest
// point-sketch shape) fed 4096-row batches round-robin, so every slab
// visit starts cold as in the real ingest fan-out. Both schedules are
// bit-identical; the delta is slab cache locality. The kernel itself
// picks ordered at this size, the case BENCH_ingest.json records.
func BenchmarkSparseUpdateSchedule(b *testing.B) {
	const s, pd, n, sketches = 2048, 2, 4096, 64
	rng := rand.New(rand.NewSource(1))
	ens := make([]*SparseRecovery, sketches)
	for i := range ens {
		ens[i] = NewSparseRecovery(rng, s, 0.01, pd)
	}
	keys := make([]uint64, n)
	scaled := make([]int64, n*pd)
	deltas := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
		deltas[i] = 1
		scaled[i*pd] = rng.Int63n(1 << 12)
		scaled[i*pd+1] = rng.Int63n(1 << 12)
	}
	for _, sched := range []struct {
		name  string
		apply func(*SparseRecovery)
	}{
		{"ordered", func(sr *SparseRecovery) { sr.updateOrderedN(keys, scaled, deltas) }},
		{"scatter", func(sr *SparseRecovery) { sr.updateLanesN(keys, scaled, deltas) }},
	} {
		b.Run(sched.name, func(b *testing.B) {
			for _, sr := range ens {
				sched.apply(sr) // warm page tables and scratch
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.apply(ens[i%sketches])
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "upd/sec")
		})
	}
}
