package stream

import (
	"testing"

	"streambalance/internal/coreset"
)

// Extraction benchmarks: cold decode (caches dropped every iteration)
// vs warm epoch-cached re-extraction, and the serial lazy path, all on
// the full guess ensemble. EXPERIMENTS.md records the reference numbers;
// the root-level BenchmarkStreamExtract exercises the same pipeline
// through the public API.

// benchExtractAuto builds the 25-guess ensemble the extraction benchmarks
// decode. Same geometry as benchAuto, but with ĥ point sketches sized so
// the winning guess actually decodes — the ingest benchmarks never decode,
// so their tighter sketches would make every extraction FAIL here.
func benchExtractAuto(b *testing.B) *Auto {
	b.Helper()
	a, err := NewAuto(Config{Dim: 2, Delta: 1 << 12, Params: coreset.Params{K: 4, Seed: 1},
		CellSparsity: 512, PointSparsity: 4096}, 4)
	if err != nil {
		b.Fatal(err)
	}
	a.Apply(benchIngestOps(4096))
	if _, err := a.Result(); err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkExtractAutoCold: every iteration re-decodes the whole
// ensemble from the slabs (parallel across the pool when GOMAXPROCS>1).
func BenchmarkExtractAutoCold(b *testing.B) {
	a := benchExtractAuto(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DropDecodeCache()
		if _, err := a.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractAutoColdSerial: the lazy single-worker decode path —
// the pre-pipeline baseline.
func BenchmarkExtractAutoColdSerial(b *testing.B) {
	a := benchExtractAuto(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DropDecodeCache()
		if _, err := a.resultWith(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractAutoWarm: periodic re-extraction with unchanged
// sketches — every decode is an epoch-cache hit; only guess selection,
// partition and assembly run.
func BenchmarkExtractAutoWarm(b *testing.B) {
	a := benchExtractAuto(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractAutoPeriodic models the ROADMAP serving scenario: a
// long stream with periodic coreset extraction — each iteration ingests
// a small batch then re-extracts, so the cache re-decodes only levels
// the batch touched. Compare with Cold for the incremental win.
func BenchmarkExtractAutoPeriodic(b *testing.B) {
	a := benchExtractAuto(b)
	ops := benchIngestOps(4096)
	const batch = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * batch) % len(ops)
		hi := lo + batch
		if hi > len(ops) {
			hi = len(ops)
		}
		a.Apply(ops[lo:hi])
		if _, err := a.Result(); err != nil {
			b.Fatal(err)
		}
	}
}
