package dist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
)

// reportEqual asserts two protocol runs are bit-identical: same guess,
// same measured and formula accounting, and the same coreset point for
// point, weight for weight.
func reportEqual(t *testing.T, tag string, a, b *Report) {
	t.Helper()
	if d := reportDiff(a, b); d != "" {
		t.Fatalf("%s: %s", tag, d)
	}
}

// reportDiff describes the first difference between two Reports, or
// returns "" when they are bit-identical: O, measured and formula bits
// in total and per phase, and the coreset's points, weights (as float64
// bits) and levels.
func reportDiff(a, b *Report) string {
	if a.O != b.O {
		return fmt.Sprintf("O %v vs %v", a.O, b.O)
	}
	if a.Rounds != b.Rounds {
		return fmt.Sprintf("rounds %d vs %d", a.Rounds, b.Rounds)
	}
	if a.Bits != b.Bits || !reflect.DeepEqual(a.ByPhase, b.ByPhase) {
		return fmt.Sprintf("measured bits %d %v vs %d %v", a.Bits, a.ByPhase, b.Bits, b.ByPhase)
	}
	if a.FormulaBits != b.FormulaBits || !reflect.DeepEqual(a.FormulaByPhase, b.FormulaByPhase) {
		return fmt.Sprintf("formula bits %d %v vs %d %v", a.FormulaBits, a.FormulaByPhase, b.FormulaBits, b.FormulaByPhase)
	}
	ca, cb := a.Coreset, b.Coreset
	if ca.Size() != cb.Size() {
		return fmt.Sprintf("coreset size %d vs %d", ca.Size(), cb.Size())
	}
	if !reflect.DeepEqual(ca.Levels, cb.Levels) {
		return "coreset levels differ"
	}
	for i := range ca.Points {
		pa, pb := ca.Points[i], cb.Points[i]
		if !pa.P.Equal(pb.P) || math.Float64bits(pa.W) != math.Float64bits(pb.W) {
			return fmt.Sprintf("coreset point %d: %v w=%v vs %v w=%v", i, pa.P, pa.W, pb.P, pb.W)
		}
	}
	return ""
}

// The pipelined driver must be bit-identical to the serial reference at
// every worker count — the determinism contract of the whole rewrite.
func TestPipelinedMatchesSerialBitwise(t *testing.T) {
	ps, _ := testMixture(11, 4000)
	rng := rand.New(rand.NewSource(12))
	machines := splitAcross(ps, 6, rng)
	base := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 13}}

	ref, err := RunSerial(machines, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Coreset.Size() == 0 {
		t.Fatal("reference coreset is empty")
	}
	for _, workers := range []int{0, 1, 4, 8} {
		cfg := base
		cfg.Workers = workers
		rep, err := Run(machines, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		reportEqual(t, "workers", ref, rep)
	}
}

// The same must hold when every frame travels through real loopback
// net.Conn byte pipes instead of in-memory channels.
func TestPipeTransportMatchesSerial(t *testing.T) {
	ps, _ := testMixture(14, 2500)
	rng := rand.New(rand.NewSource(15))
	machines := splitAcross(ps, 4, rng)
	base := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 16}}

	ref, err := RunSerial(machines, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Transport = PipeTransport{}
	cfg.Workers = 3
	rep, err := Run(machines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reportEqual(t, "pipe", ref, rep)

	cfg.Transport = ChanTransport{Buf: 1} // maximal backpressure
	rep, err = Run(machines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reportEqual(t, "chan-buf1", ref, rep)
}

// Cap failures must surface as errors from the concurrent driver — no
// panic, no deadlock, machines drained cleanly.
func TestTightCapsFailAcrossDrivers(t *testing.T) {
	ps, _ := testMixture(17, 2000)
	rng := rand.New(rand.NewSource(18))
	machines := splitAcross(ps, 3, rng)
	for _, tr := range []Transport{nil, PipeTransport{}} {
		cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 19},
			CellCap: 2, PointCap: 2, Transport: tr}
		if _, err := Run(machines, cfg); err == nil {
			t.Fatalf("transport %T: tight caps must fail", tr)
		}
		if _, err := RunSerial(machines, cfg); err == nil {
			t.Fatalf("transport %T: serial tight caps must fail", tr)
		}
	}
}

// RunSerial must reject the same invalid configs Run does.
func TestRunSerialValidation(t *testing.T) {
	if _, err := RunSerial(nil, Config{Dim: 2, Delta: 16, Params: coreset.Params{K: 2}}); err == nil {
		t.Fatal("no machines must error")
	}
	if _, err := RunSerial([]geo.PointSet{{}}, Config{Dim: 2, Delta: 16, Params: coreset.Params{K: 2}}); err == nil {
		t.Fatal("empty input must error")
	}
}

// Measured wire bits must not exceed the closed-form formula accounting
// on realistic inputs — the codec's whole point.
func TestMeasuredBitsBeatFormula(t *testing.T) {
	ps, _ := testMixture(20, 3000)
	rng := rand.New(rand.NewSource(21))
	for _, s := range []int{2, 8} {
		machines := splitAcross(ps, s, rng)
		rep, err := Run(machines, Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 22}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Bits >= rep.FormulaBits {
			t.Fatalf("s=%d: measured %d bits >= formula %d bits", s, rep.Bits, rep.FormulaBits)
		}
	}
}

// A point-cap FAIL must read the same however the frames arrive: the
// pipelined driver waits for all of the level's ĥ frames and names the
// lowest failing machine and the failure count, exactly as RunSerial
// does. Several machines fail here, so an arrival-order answer would
// vary from run to run.
func TestPointCapFailDeterministic(t *testing.T) {
	// Machine j holds a (j+1)/36 share of the input, so a cap between the
	// shares fails the larger machines only, and not machine 0.
	ps, _ := testMixture(23, 4000)
	rng := rand.New(rand.NewSource(24))
	machines := make([]geo.PointSet, 8)
	for _, p := range ps {
		u := rng.Intn(36)
		j := 0
		for u >= j+1 {
			u -= j + 1
			j++
		}
		machines[j] = append(machines[j], p)
	}
	cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 25}, PointCap: 400}
	_, err := RunSerial(machines, cfg)
	if err == nil {
		t.Fatal("tight point cap must FAIL")
	}
	want := err.Error()
	var lowest, level, failed, s int
	if _, scanErr := fmt.Sscanf(want, "dist: machine %d exceeded point cap at level %d (%d of %d machines failed)",
		&lowest, &level, &failed, &s); scanErr != nil || lowest == 0 || failed < 2 || failed == s {
		t.Fatalf("want a point-cap FAIL of several but not all machines, got %q", want)
	}
	for _, tr := range []Transport{ChanTransport{}, PipeTransport{}} {
		for _, workers := range []int{0, 2, 8} {
			c := cfg
			c.Transport, c.Workers = tr, workers
			for i := 0; i < 20; i++ {
				if _, err := Run(machines, c); err == nil || err.Error() != want {
					t.Fatalf("%T workers=%d run %d: error %v, want %q", tr, workers, i, err, want)
				}
			}
		}
	}
}

// TestCoordinatorFailTexts pins the text of the coordinator's level-cap
// and plan FAILs on both drivers. (The point-cap FAIL's text is pinned by
// TestPointCapFailDeterministic.)
func TestCoordinatorFailTexts(t *testing.T) {
	ps, _ := testMixture(31, 1000)
	machines := splitAcross(ps, 3, rand.New(rand.NewSource(32)))
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"level cap", Config{CellCap: 8},
			"dist: partition: cell counts unavailable for level 2 (a machine exceeded its level cap)"},
		{"plan", Config{O: 0.25},
			"dist: plan FAILed: level 10 mass 1000 exceeds budget 474.99999999999994"},
	} {
		cfg := tc.cfg
		cfg.Dim, cfg.Delta, cfg.Params = 2, testDelta, coreset.Params{K: 3, Seed: 33}
		if _, err := RunSerial(machines, cfg); err == nil || err.Error() != tc.want {
			t.Errorf("%s, serial: error %v, want %q", tc.name, err, tc.want)
		}
		if _, err := Run(machines, cfg); err == nil || err.Error() != tc.want {
			t.Errorf("%s, pipelined: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
