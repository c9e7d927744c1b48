package stream

import (
	"runtime"
	"testing"

	"streambalance/internal/sketch"
)

// warmDecodeCache decodes every unit whose cache is not fresh, across
// the worker pool — the serving pre-warm: after it returns, a query
// that consults any unit gets a cache hit, and the next dirty batch is
// answered by differential decodes against the freshly set bases. A
// shared Storing is decoded once.
func (ss *sketchSet) warmDecodeCache() {
	sts := make([]*sketch.Storing, len(ss.units))
	for i, u := range ss.units {
		sts[i] = u.st
	}
	warmStorings(sts, extractWorkers())
}

// benchIncrementalExtract times ONLY the query in the alternating
// small-batch-ingest / extract serving loop: the batch and the
// between-query pre-warm run with the timer stopped, so the measured
// cost is one extraction over a slightly dirty, otherwise warm
// ensemble — the case the differential decode targets. With cold set,
// the untimed prelude also drops the decode cache of every dirtied
// sketch, so the query re-peels exactly those levels from scratch: the
// cold-decode oracle the splice path is pinned against, as an A/B.
// Each untimed prelude ends with a runtime.GC(): the ensemble's live
// heap is large, so a concurrent GC cycle triggered by the scaffolding's
// garbage would otherwise span several queries and its mark assists
// would tax allocations inside the timed query, inflating it 3–4×. The
// share of decode units each batch dirties is reported as
// dirty-level-ratio.
func benchIncrementalExtract(b *testing.B, cold bool) {
	b.Helper()
	a := benchExtractAuto(b)
	ops := benchIngestOps(4096)
	const batch = 16
	a.warmDecodeCache()
	var dirty, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lo := (i * batch) % len(ops)
		hi := lo + batch
		if hi > len(ops) {
			hi = len(ops)
		}
		a.Apply(ops[lo:hi])
		d, t := a.DirtyLevels()
		dirty += d
		total += t
		if cold {
			for _, u := range a.units {
				if !u.st.CacheFresh() {
					u.st.DropCache()
				}
			}
		}
		runtime.GC()
		b.StartTimer()
		if _, err := a.Result(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		a.warmDecodeCache()
		b.StartTimer()
	}
	b.ReportMetric(float64(dirty)/float64(total), "dirty-level-ratio")
}

func BenchmarkExtractAutoIncremental(b *testing.B) { benchIncrementalExtract(b, false) }

func BenchmarkExtractAutoIncrementalOff(b *testing.B) { benchIncrementalExtract(b, true) }
