package stream

import (
	"testing"
)

// benchIncrementalExtract times ONLY the query in the alternating
// small-batch-ingest / extract serving loop: the batch and the
// between-query pre-warm run with the timer stopped, so the measured
// cost is one extraction over a slightly dirty, otherwise warm
// ensemble — the case the differential decode targets. With cold set,
// the untimed prelude also drops the decode cache of every dirtied
// sketch, so the query re-peels exactly those levels from scratch: the
// cold-decode oracle the splice path is pinned against, as an A/B.
func benchIncrementalExtract(b *testing.B, cold bool) {
	b.Helper()
	a := benchExtractAuto(b)
	ops := benchIngestOps(4096)
	const batch = 16
	a.WarmDecodeCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lo := (i * batch) % len(ops)
		hi := lo + batch
		if hi > len(ops) {
			hi = len(ops)
		}
		a.Apply(ops[lo:hi])
		if cold {
			for _, u := range a.units {
				if !u.st.CacheFresh() {
					u.st.DropCache()
				}
			}
		}
		b.StartTimer()
		if _, err := a.Result(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		a.WarmDecodeCache()
		b.StartTimer()
	}
}

func BenchmarkExtractAutoIncremental(b *testing.B) { benchIncrementalExtract(b, false) }

func BenchmarkExtractAutoIncrementalOff(b *testing.B) { benchIncrementalExtract(b, true) }
