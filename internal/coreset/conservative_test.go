package coreset

import (
	"math"
	"testing"

	"streambalance/internal/geo"
)

// Conservative mode instantiates the paper's printed constants. Their
// union-bound magnitudes drive every sampling rate to 1 for any input
// that fits in memory, so the "coreset" must be the (deduplicated,
// multiplicity-weighted) input itself — a trivially valid strong coreset.
func TestConservativeModeKeepsEverything(t *testing.T) {
	ps, _ := mixture(31, 300)
	cs, err := Build(ps, Params{K: 3, Seed: 2, Conservative: true})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]int{}
	for _, p := range ps {
		distinct[p.String()]++
	}
	if cs.Size() != len(distinct) {
		t.Fatalf("conservative coreset has %d points, want all %d distinct locations",
			cs.Size(), len(distinct))
	}
	if w := cs.TotalWeight(); math.Abs(w-float64(len(ps))) > 1e-9 {
		t.Fatalf("total weight %v, want exactly %d", w, len(ps))
	}
	for _, wp := range cs.Points {
		if wp.W != float64(distinct[wp.P.String()]) {
			t.Fatalf("weight of %v is %v, want multiplicity %d",
				wp.P, wp.W, distinct[wp.P.String()])
		}
	}
}

func TestConservativePhiSaturates(t *testing.T) {
	p, err := Params{K: 3, Conservative: true}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// Even at enormous thresholds the conservative rate formula stays at
	// 1 for every physically storable T.
	for _, T := range []float64{1, 1e6, 1e12, 1e18} {
		if phi := p.Phi(T, 2, 16); phi != 1 {
			t.Fatalf("conservative Phi(T=%g) = %v, want 1", T, phi)
		}
	}
}

func TestConservativeLambdaCapped(t *testing.T) {
	p, err := Params{K: 8, Conservative: true}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if l := p.Lambda(10, 20); l != 1<<12 {
		t.Fatalf("Lambda = %d, want the 2^12 cap", l)
	}
}

func TestConservativeEnumerationFromOne(t *testing.T) {
	// Conservative Build uses the paper's literal smallest-non-FAIL
	// enumeration starting at o = 1, and must still terminate with a
	// valid (if uncompressed) coreset.
	ps := geo.PointSet{{1, 1}, {5, 5}, {9, 9}, {1, 9}, {9, 1}}
	cs, err := Build(ps, Params{K: 2, Seed: 1, Conservative: true})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Size() != 5 || cs.TotalWeight() != 5 {
		t.Fatalf("size=%d weight=%v", cs.Size(), cs.TotalWeight())
	}
}
