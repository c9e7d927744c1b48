package stream

import (
	"math"
	"math/rand"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/hashing"
)

// TestNestedSamplersAtBenchGeometry: at the end-to-end benchmark's
// ensemble geometry (d = 2, Δ = 4096, k = 4, guess ratio 4; sketch sizes
// do not enter the rates, so they are kept small), every (substream,
// level) samples all guesses over one polynomial. So, for every
// (substream, level), over 2^17 random keys:
//   - every guess there holds the same polynomial: its hash values on
//     a probe of the keys equal the first guess's, and its own sampler
//     (SamplePowers) selects exactly the probe keys whose value is below
//     its threshold;
//   - guess o's sampled keys contain guess 4o's;
//   - each guess's empirical rate is within 4σ of its ψ, σ² = nψ(1−ψ)
//     (plus one key, for the rates whose expected count is below one).
func TestNestedSamplersAtBenchGeometry(t *testing.T) {
	a, err := NewAuto(Config{Dim: 2, Delta: 4096, Params: coreset.Params{K: 4, Seed: 1},
		CellSparsity: 16, PointSparsity: 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n, probe = 1 << 17, 256
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() & hashing.MersennePrime61
	}
	pow := make([]uint64, hashing.PowerStride*n)
	hashing.PowersN(pow, keys)
	hv, ph := make([]uint64, n), make([]uint64, probe)
	prev, sel := make([]bool, n), make([]bool, n)
	L := a.g.L
	var fractional int
	for sub := 0; sub < 3; sub++ {
		for i := 0; i <= L; i++ {
			if sub == 0 && i == L {
				continue // h stops at L−1
			}
			for gi, s := range a.streams {
				samp := [][]unit{s.h, s.hp, s.hat}[sub][i].samp
				if gi == 0 {
					samp.HashPowers(hv, pow)
				}
				samp.HashPowers(ph, pow[:probe*hashing.PowerStride])
				samp.SamplePowers(sel[:probe], pow[:probe*hashing.PowerStride])
				for t2 := range ph {
					if ph[t2] != hv[t2] {
						t.Fatalf("substream %d level %d: guess %d samples over a polynomial of its own", sub, i, gi)
					}
					if sel[t2] != (samp.Phi() >= 1 || hv[t2] < samp.Threshold()) {
						t.Fatalf("substream %d level %d guess %d: key %d selected %v against its threshold", sub, i, gi, keys[t2], sel[t2])
					}
				}
				count := 0
				for t2, h := range hv {
					sel[t2] = samp.Phi() >= 1 || h < samp.Threshold()
					if sel[t2] {
						count++
						if gi > 0 && !prev[t2] {
							t.Fatalf("substream %d level %d: guess %g samples key %d that guess %g does not",
								sub, i, a.guesses[gi], keys[t2], a.guesses[gi-1])
						}
					}
				}
				psi := samp.Phi()
				if psi < 1 {
					fractional++
				}
				mean := n * psi
				if dev := math.Abs(float64(count) - mean); dev > 4*math.Sqrt(mean*(1-psi))+1 {
					t.Fatalf("substream %d level %d guess %g: %d of %d keys sampled, want %.1f (ψ = %g)",
						sub, i, a.guesses[gi], count, n, mean, psi)
				}
				prev, sel = sel, prev
			}
		}
	}
	if fractional < len(a.streams) {
		t.Fatalf("only %d fractional samplers: the geometry lost its point", fractional)
	}
}
