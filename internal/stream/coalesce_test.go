package stream

import (
	"math/rand"
	"runtime"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/obs"
)

// dupHeavyOps repeats every op of a churn stream rep times back to back —
// the shape coalescing targets: each batch concentrates its slab traffic
// on a few distinct keys, and at coarse grid levels all copies of a point
// share one cell.
func dupHeavyOps(seed int64, n, rep int) []Op {
	base := shuffledChurnOps(seed, n)
	ops := make([]Op, 0, len(base)*rep)
	for _, op := range base {
		for r := 0; r < rep; r++ {
			ops = append(ops, op)
		}
	}
	return ops
}

// TestCoalescedApplyMatchesUncoalesced: key-coalesced batched ingest
// must leave sketch state bit-identical to the uncoalesced per-op
// Insert/Delete replay, for every chunk size — including a
// duplicate-heavy stream where the coalescer collapses nearly every
// batch.
func TestCoalescedApplyMatchesUncoalesced(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  []Op
	}{
		{"churn", shuffledChurnOps(301, 600)},
		{"dup16", dupHeavyOps(302, 60, 16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Dim: 2, Delta: testDelta, O: 1 << 12, Params: coreset.Params{K: 3, Seed: 61}}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			replayPerOp(t, ref, tc.ops)

			for _, chunk := range []int{1, 7, 64, len(tc.ops)} {
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < len(tc.ops); i += chunk {
					end := i + chunk
					if end > len(tc.ops) {
						end = len(tc.ops)
					}
					s.Apply(tc.ops[i:end])
				}
				if s.StateDigest() != ref.StateDigest() {
					t.Fatalf("chunk=%d: state diverged from per-op replay", chunk)
				}
				ca, errA := ref.Result()
				cb, errB := s.Result()
				sameCoreset(t, ca, cb, errA, errB)
			}
		})
	}
}

// TestCoalescedAutoApplyMatchesUncoalesced: same contract through the
// guess-enumerating Auto front-end, whose Apply shards (guess ×
// level-range) units across the worker pool — under -race this also
// checks the pooled coalescer never crosses goroutines.
// The reference replays every op through Auto.Insert/Delete.
func TestCoalescedAutoApplyMatchesUncoalesced(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	ops := dupHeavyOps(303, 55, 16)
	cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 62},
		CellSparsity: 512, PointSparsity: 2048}

	ref, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Delete {
			ref.Delete(op.P)
		} else {
			ref.Insert(op.P)
		}
	}
	a, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 192
	for i := 0; i < len(ops); i += chunk {
		end := i + chunk
		if end > len(ops) {
			end = len(ops)
		}
		a.Apply(ops[i:end])
	}
	if a.StateDigest() != ref.StateDigest() {
		t.Fatal("coalesced Auto.Apply state diverged from per-op replay")
	}
	ca, errA := a.Result()
	cb, errB := ref.Result()
	sameCoreset(t, ca, cb, errA, errB)
}

// TestCoalesceCounters: with telemetry enabled, a duplicate-heavy apply
// must report more sampled ops in than distinct keys out on the h
// substream (the level-0 cell batch collapses), and the counters must
// stay silent with telemetry disabled.
func TestCoalesceCounters(t *testing.T) {
	ops := dupHeavyOps(305, 40, 16)
	cfg := Config{Dim: 2, Delta: testDelta, O: 1 << 11, Params: coreset.Params{K: 3, Seed: 64}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	obs.Enable()
	defer obs.Disable()
	in0 := [3]int64{mCoalesceIn[0].Load(), mCoalesceIn[1].Load(), mCoalesceIn[2].Load()}
	out0 := [3]int64{mCoalesceOut[0].Load(), mCoalesceOut[1].Load(), mCoalesceOut[2].Load()}
	s.Apply(ops)
	var inSum, outSum int64
	for i := 0; i < 3; i++ {
		dIn := mCoalesceIn[i].Load() - in0[i]
		dOut := mCoalesceOut[i].Load() - out0[i]
		if dOut > dIn {
			t.Fatalf("substream %d: keys out %d > ops in %d", i, dOut, dIn)
		}
		inSum += dIn
		outSum += dOut
	}
	if inSum == 0 {
		t.Fatal("coalesce counters did not advance on a duplicate-heavy apply")
	}
	if outSum >= inSum {
		t.Fatalf("duplicate-heavy apply coalesced nothing: in=%d out=%d", inSum, outSum)
	}
	if r := obs.Default.Ratio(`stream_coalesce_ops_in_total{substream="h"}`,
		`stream_coalesce_keys_out_total{substream="h"}`); r < 1 {
		t.Fatalf("h substream coalesce ratio %v < 1", r)
	}

	// Telemetry off: the counters must not move.
	obs.Disable()
	in1 := mCoalesceIn[0].Load()
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Apply(ops)
	if mCoalesceIn[0].Load() != in1 {
		t.Fatal("coalesce counters advanced with telemetry disabled")
	}
}

// TestCoalescerTableReuse drives one coalescer through many reset/insert
// cycles with varying sizes — including enough resets to exercise the
// generation stamping — and checks it always produces exact first-
// occurrence-order aggregation.
func TestCoalescerTableReuse(t *testing.T) {
	var co coalescer
	rng := rand.New(rand.NewSource(71))
	const dim = 2
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(64)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(8)) // few distinct keys → heavy duplication
		}
		co.reset(n)
		type agg struct {
			delta int64
			pay   [dim]int64
		}
		want := map[uint64]*agg{}
		var order []uint64
		for _, k := range keys {
			i := co.slotOf(k, dim)
			d := int64(rng.Intn(5)) - 2
			co.deltas[i] += d
			co.scaled[i*dim] += d * int64(k)
			co.scaled[i*dim+1] += d * 3
			a, ok := want[k]
			if !ok {
				a = &agg{}
				want[k] = a
				order = append(order, k)
			}
			a.delta += d
			a.pay[0] += d * int64(k)
			a.pay[1] += d * 3
		}
		if len(co.keys) != len(order) {
			t.Fatalf("round %d: %d rows, want %d", round, len(co.keys), len(order))
		}
		for i, k := range order {
			if co.keys[i] != k {
				t.Fatalf("round %d: row %d key %d, want %d (first-occurrence order)", round, i, co.keys[i], k)
			}
			a := want[k]
			if co.deltas[i] != a.delta || co.scaled[i*dim] != a.pay[0] || co.scaled[i*dim+1] != a.pay[1] {
				t.Fatalf("round %d key %d: got (%d,%d,%d), want (%d,%d,%d)", round, k,
					co.deltas[i], co.scaled[i*dim], co.scaled[i*dim+1], a.delta, a.pay[0], a.pay[1])
			}
		}
	}
}
