// Benchmark harness: one benchmark per experiment table of DESIGN.md §3
// (the tables EXPERIMENTS.md records), plus micro-benchmarks of the core
// operations. The experiment benchmarks print their table on the first
// iteration; run with
//
//	go test -bench=. -benchmem -benchtime=1x
//
// to regenerate every table exactly once.
package streambalance_test

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"streambalance"
	"streambalance/internal/assign"
	"streambalance/internal/coreset"
	"streambalance/internal/dist"
	"streambalance/internal/experiments"
	assigngeo "streambalance/internal/geo"
	"streambalance/internal/metrics"
	"streambalance/internal/solve"
	"streambalance/internal/workload"
)

var printOnce sync.Map

func benchTable(b *testing.B, id string, run func(experiments.Cfg) *metrics.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb := run(experiments.Cfg{Seed: 1})
		if _, done := printOnce.LoadOrStore(id, true); !done {
			fmt.Println()
			tb.Render(os.Stdout)
		}
	}
}

func BenchmarkE1CoresetQuality(b *testing.B)  { benchTable(b, "E1", experiments.E1CoresetQuality) }
func BenchmarkE2CoresetSize(b *testing.B)     { benchTable(b, "E2", experiments.E2CoresetSize) }
func BenchmarkE3StreamingSpace(b *testing.B)  { benchTable(b, "E3", experiments.E3StreamingSpace) }
func BenchmarkE4Deletions(b *testing.B)       { benchTable(b, "E4", experiments.E4Deletions) }
func BenchmarkE5Distributed(b *testing.B)     { benchTable(b, "E5", experiments.E5Distributed) }
func BenchmarkE6EndToEnd(b *testing.B)        { benchTable(b, "E6", experiments.E6EndToEnd) }
func BenchmarkE7Baselines(b *testing.B)       { benchTable(b, "E7", experiments.E7Baselines) }
func BenchmarkE8BuildTime(b *testing.B)       { benchTable(b, "E8", experiments.E8BuildTime) }
func BenchmarkE9Separation(b *testing.B)      { benchTable(b, "E9", experiments.E9Separation) }
func BenchmarkE10Ablation(b *testing.B)       { benchTable(b, "E10", experiments.E10Ablation) }
func BenchmarkE11HighDim(b *testing.B)        { benchTable(b, "E11", experiments.E11HighDim) }
func BenchmarkE12GuessSelection(b *testing.B) { benchTable(b, "E12", experiments.E12GuessSelection) }
func BenchmarkE13AssignmentCounting(b *testing.B) {
	benchTable(b, "E13", experiments.E13AssignmentCounting)
}

// ---- micro-benchmarks of the core operations ----

func benchPoints(n int) []streambalance.Point {
	rng := rand.New(rand.NewSource(42))
	m := workload.Mixture{N: n, D: 2, Delta: 1 << 12, K: 4, Spread: 20, Skew: 2, NoiseFrac: 0.05}
	ps, _ := m.Generate(rng)
	return ps
}

// BenchmarkCoresetBuild measures the offline construction (Theorem 3.19:
// near-linear time) end to end on 32k points.
func BenchmarkCoresetBuild(b *testing.B) {
	ps := benchPoints(32000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := streambalance.BuildCoreset(ps, streambalance.Params{K: 4, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ps)), "points/op")
}

// BenchmarkStreamResult measures end-of-stream decoding on a single
// stream instance, cold: the epoch cache is dropped every iteration so
// the decode cost is actually measured (internal/stream
// BenchmarkExtractAutoWarm times the cached path).
func BenchmarkStreamResult(b *testing.B) {
	ps := benchPoints(8000)
	est, _ := streambalance.EstimateOPT(ps, 4, 2, 1)
	s, err := streambalance.NewStream(streambalance.StreamConfig{
		Dim: 2, Delta: 1 << 12, O: streambalance.GuessFromEstimate(est),
		Params: streambalance.Params{K: 4, Seed: 1},
		// At a couple of levels every survivor is sampled (φ_i = 1); the
		// point sketches must hold all 8000.
		CellSparsity: 4096, PointSparsity: 16384,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range ps {
		s.Insert(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DropDecodeCache()
		if _, err := s.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignSweep measures capacitated-assignment throughput on the
// E1-shaped workload (one fixed point set, 25 center sets, an ascending
// capacity sweep per set) in the two modes of DESIGN.md §7: Fresh calls
// FractionalCost per solve (distance block and kernel workspace rebuilt
// every time), Engine reuses one assign.Solver (distance block amortized
// per center set, workspace across all solves).
func BenchmarkAssignSweep(b *testing.B) {
	ps := benchPoints(512)
	const k = 4
	ws := make([]assigngeo.Weighted, len(ps))
	for i, p := range ps {
		ws[i] = assigngeo.Weighted{P: p, W: 1}
	}
	rng := rand.New(rand.NewSource(7))
	zs := make([][]assigngeo.Point, 25)
	for i := range zs {
		zs[i] = solve.SeedKMeansPP(rng, ws, k, 2)
	}
	base := assigngeo.TotalWeight(ws) / k
	caps := []float64{1.02 * base, 1.05 * base, 1.1 * base, 1.2 * base, 1.4 * base, 1.8 * base, 2.5 * base, 4 * base}
	solves := len(zs) * len(caps)

	b.Run("Fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, Z := range zs {
				for _, t := range caps {
					if _, _, ok := assign.FractionalCost(ws, Z, t, 2); !ok {
						b.Fatal("infeasible")
					}
				}
			}
		}
		b.ReportMetric(float64(b.N*solves)/b.Elapsed().Seconds(), "solves/sec")
	})
	b.Run("Engine", func(b *testing.B) {
		eng := assign.NewSolver()
		eng.Bind(ws, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, Z := range zs {
				eng.SetCenters(Z)
				for _, t := range caps {
					if _, ok := eng.Fractional(t); !ok {
						b.Fatal("infeasible")
					}
				}
			}
		}
		b.ReportMetric(float64(b.N*solves)/b.Elapsed().Seconds(), "solves/sec")
	})
}

// BenchmarkDistProtocol measures the distributed coreset protocol on a
// fixed 8-machine split: the pipelined concurrent driver at 1, 2, 4 and
// 8 workers (its single-goroutine oracle has its own benchmark,
// internal/dist BenchmarkRunSerial), plus a case shaped
// like the end-to-end benchmark's place_dist workload (4,096 points, 8
// machines, 2 workers, SamplesPerPart 32). Wire bytes and allocations
// are reported per op.
func BenchmarkDistProtocol(b *testing.B) {
	const s = 8
	split := func(ps []streambalance.Point) []assigngeo.PointSet {
		machines := make([]assigngeo.PointSet, s)
		for i, p := range ps {
			machines[i%s] = append(machines[i%s], p)
		}
		return machines
	}
	machines := split(benchPoints(16384))
	cfg := dist.Config{Dim: 2, Delta: 1 << 12, Params: coreset.Params{K: 4, Seed: 1}}
	run := func(name string, machines []assigngeo.PointSet, cfg dist.Config, f func([]assigngeo.PointSet, dist.Config) (*dist.Report, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := f(machines, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Bits)/8, "wire-bytes/op")
				b.ReportMetric(float64(rep.FormulaBits)/8, "formula-bytes/op")
			}
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		c := cfg
		c.Workers = workers
		run(fmt.Sprintf("Workers%d", workers), machines, c, dist.Run)
	}
	place := cfg
	place.Workers = 2
	place.Params.SamplesPerPart = 32
	run("PlaceDist", split(benchPoints(4096)), place, dist.Run)
}

// BenchmarkCapacitatedAssign measures the min-cost-flow assignment oracle
// (500 points × 4 centers).
func BenchmarkCapacitatedAssign(b *testing.B) {
	ps := benchPoints(500)
	ws := make([]streambalance.Weighted, len(ps))
	for i, p := range ps {
		ws[i] = streambalance.Weighted{P: p, W: 1}
	}
	centers := []streambalance.Point{{512, 512}, {3500, 3500}, {512, 3500}, {3500, 512}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := streambalance.AssignCapacitated(ws, centers, 140, 2); !ok {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkSolveCapacitated measures the full solver on a coreset-sized
// input.
func BenchmarkSolveCapacitated(b *testing.B) {
	ps := benchPoints(400)
	ws := make([]streambalance.Weighted, len(ps))
	for i, p := range ps {
		ws[i] = streambalance.Weighted{P: p, W: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := streambalance.SolveCapacitated(ws, 4, 130, streambalance.SolveOptions{Seed: int64(i), Iters: 4, Restarts: 1}); !ok {
			b.Fatal("infeasible")
		}
	}
}
