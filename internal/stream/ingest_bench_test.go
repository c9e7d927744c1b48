package stream

import (
	"math/rand"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/workload"
)

// Ingest benchmarks: the per-op serial path vs the batched shared-key
// pipeline, for one guess instance and for the full guess enumeration.
// EXPERIMENTS.md records the reference numbers.

func benchIngestOps(n int) []Op {
	rng := rand.New(rand.NewSource(42))
	m := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: 4, Spread: 20, Skew: 2, NoiseFrac: 0.05}
	ps, _ := m.Generate(rng)
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{P: ps[i]}
	}
	return ops
}

func benchAuto(b *testing.B) *Auto {
	b.Helper()
	a, err := NewAuto(Config{Dim: 2, Delta: 1 << 12, Params: coreset.Params{K: 4, Seed: 1},
		CellSparsity: 512, PointSparsity: 2048}, 4)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func reportOpsPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
}

// BenchmarkIngestAutoPerOp is the pre-batching reference: one op at a
// time, every guess instance fed serially.
func BenchmarkIngestAutoPerOp(b *testing.B) {
	ops := benchIngestOps(4096)
	a := benchAuto(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Insert(ops[i%len(ops)].P)
	}
	reportOpsPerSec(b)
}

// BenchmarkIngestAutoApply is the batched shared-key pipeline over the
// same guess ensemble: key columns computed once per batch, sketch work
// sharded over (guess × level-range) units across the worker pool.
func BenchmarkIngestAutoApply(b *testing.B) {
	ops := benchIngestOps(4096)
	a := benchAuto(b)
	b.ResetTimer()
	for done := 0; done < b.N; done += len(ops) {
		n := b.N - done
		if n > len(ops) {
			n = len(ops)
		}
		a.Apply(ops[:n])
	}
	reportOpsPerSec(b)
}

func benchStream(b *testing.B) *Stream {
	b.Helper()
	s, err := New(Config{Dim: 2, Delta: 1 << 12, O: 1 << 16, Params: coreset.Params{K: 4, Seed: 1},
		CellSparsity: 512, PointSparsity: 2048})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkIngestStreamPerOp: single guess instance, per-op path.
func BenchmarkIngestStreamPerOp(b *testing.B) {
	ops := benchIngestOps(4096)
	s := benchStream(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(ops[i%len(ops)].P)
	}
	reportOpsPerSec(b)
}

// BenchmarkIngestStreamApply: single guess instance, batched pipeline.
func BenchmarkIngestStreamApply(b *testing.B) {
	ops := benchIngestOps(4096)
	s := benchStream(b)
	b.ResetTimer()
	for done := 0; done < b.N; done += len(ops) {
		n := b.N - done
		if n > len(ops) {
			n = len(ops)
		}
		s.Apply(ops[:n])
	}
	reportOpsPerSec(b)
}
