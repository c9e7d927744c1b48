package experiments

import (
	"reflect"
	"testing"

	"streambalance/internal/metrics"
)

// tableEqual asserts two tables are deeply identical — every header,
// note, and rendered cell byte.
func tableEqual(t *testing.T, a, b *metrics.Table, what string) {
	t.Helper()
	if a.ID != b.ID || a.Title != b.Title || a.Note != b.Note {
		t.Fatalf("%s: table metadata differs:\n%q %q\nvs\n%q %q", what, a.ID, a.Note, b.ID, b.Note)
	}
	if !reflect.DeepEqual(a.Header, b.Header) {
		t.Fatalf("%s: headers differ: %v vs %v", what, a.Header, b.Header)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row counts differ: %d vs %d", what, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			t.Fatalf("%s: row %d differs:\n%v\nvs\n%v", what, i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestE1AssignParallelMatchesSerial mirrors the extraction pipeline's
// TestExtractParallelMatchesSerial for the assignment engine harness:
// the parallel (center set × capacity) evaluation with per-worker solver
// engines must reproduce the one-worker tables
// byte-identically. E9/E13 cover the integral engine on their own pools.
func TestE1AssignParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-heavy")
	}
	c := Cfg{Seed: 2, Scale: 0.3}
	serial := E1CoresetQuality(Cfg{Seed: c.Seed, Scale: c.Scale, Workers: 1})
	parallel := E1CoresetQuality(Cfg{Seed: c.Seed, Scale: c.Scale, Workers: 4})
	tableEqual(t, serial, parallel, "E1 workers=1 vs workers=4")
}

// TestAssignParallelExperimentsMatchSerial pins the other converted
// solve loops (E5's protocol sweep, E9's per-worker integral engines,
// E12's stream replays, E13's combo sweep) to their one-worker output.
func TestAssignParallelExperimentsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("flow-heavy")
	}
	for _, tc := range []struct {
		name  string
		f     func(Cfg) *metrics.Table
		scale float64
	}{
		{"E5", E5Distributed, 0.1},
		{"E9", E9Separation, 0.3},
		{"E12", E12GuessSelection, 0.1},
		{"E13", E13AssignmentCounting, 1},
	} {
		serial := tc.f(Cfg{Seed: 2, Scale: tc.scale, Workers: 1})
		parallel := tc.f(Cfg{Seed: 2, Scale: tc.scale, Workers: 4})
		tableEqual(t, serial, parallel, tc.name+" workers=1 vs workers=4")
	}
}
