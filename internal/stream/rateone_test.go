package stream

import (
	"math/rand"
	"runtime"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
	"streambalance/internal/sketch"
)

// rateOneBatches builds one valid batch per size. Each mixes fresh
// inserts, repeated inserts of a point already in the batch (duplicate
// keys), +1/−1 pairs (a point inserted and deleted in the same batch,
// which coalesce to zero-delta rows) and deletes of points live before
// the batch, so every prefix of the stream is valid.
func rateOneBatches(rng *rand.Rand, sizes []int) [][]Op {
	point := func() geo.Point { return geo.Point{1 + rng.Int63n(testDelta), 1 + rng.Int63n(testDelta)} }
	var live []geo.Point
	var out [][]Op
	for _, n := range sizes {
		b := make([]Op, 0, n)
		var added []geo.Point
		for len(b) < n {
			switch r := rng.Intn(8); {
			case r == 0 && len(live) > 0:
				j := rng.Intn(len(live))
				b = append(b, Op{P: live[j], Delete: true})
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			case r == 1 && len(b)+2 <= n:
				p := point()
				b = append(b, Op{P: p}, Op{P: p, Delete: true})
			case r <= 3 && len(added) > 0:
				p := added[rng.Intn(len(added))]
				b = append(b, Op{P: p})
				added = append(added, p)
			default:
				p := point()
				b = append(b, Op{P: p})
				added = append(added, p)
			}
		}
		live = append(live, added...)
		out = append(out, b)
	}
	return out
}

// coalesceOracle counts, without the ingest pipeline, what one batch
// must add to stream_coalesce_{ops_in,keys_out}_total per substream:
// every distinct sketch's selected ops, and the distinct keys among
// them. A Storing that several guesses share takes the batch once, so
// it is counted once, under the first guess that holds it.
func coalesceOracle(a *Auto, ops []Op) (in, out [3]int64) {
	L := a.g.L
	counted := map[*sketch.Storing]bool{}
	for _, s := range a.streams {
		for i := 0; i <= L; i++ {
			samps := [3]*hashing.Bernoulli{nil, s.hp[i].samp, s.hat[i].samp}
			stores := [3]*sketch.Storing{nil, s.hp[i].st, s.hat[i].st}
			if i < L {
				samps[0], stores[0] = s.h[i].samp, s.h[i].st
			}
			for k, samp := range samps {
				if samp == nil || counted[stores[k]] {
					continue
				}
				counted[stores[k]] = true
				seen := map[uint64]bool{}
				for _, op := range ops {
					fkey := a.fp.Key(op.P)
					if !samp.Sample(fkey) {
						continue
					}
					in[k]++
					key := fkey
					if k < 2 {
						key = a.g.CellKey(op.P, i)
					}
					if !seen[key] {
						seen[key] = true
						out[k]++
					}
				}
			}
		}
	}
	return in, out
}

func coalesceCounts() (in, out [3]int64) {
	for k := 0; k < 3; k++ {
		in[k], out[k] = mCoalesceIn[k].Load(), mCoalesceOut[k].Load()
	}
	return in, out
}

// TestRateOneColumnsMatchPerOp: rate-1 samplers read the batch's shared
// rate-1 columns while fractional samplers at the same level coalesce
// their own selection. On an ensemble where levels carry both kinds — as
// in every guess from o = 2^18 up at this geometry — Auto.Apply must
// match per-op Insert/Delete replay in StateDigest (cost bound
// included), Bytes and every guess's Result, FAILs included; and the
// ingest counters must match the replay's sketch-update count and an
// independent count of each distinct sketch's selected ops and distinct
// keys — a Storing the rate-1 guesses share counts once.
// Batch sizes straddle the 4-lane blocks, the ordered-write threshold
// (64 rows) and width/8 of the cell (1024) and point (2048) sketches.
func TestRateOneColumnsMatchPerOp(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 73},
		CellSparsity: 512, PointSparsity: 1024}
	sizes := []int{1, 3, 4, 5, 63, 64, 65, 127, 128, 129, 255, 256, 257}
	batches := rateOneBatches(rand.New(rand.NewSource(74)), sizes)

	ref, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAuto(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var mixed bool
	for _, s := range a.streams {
		for i := 0; i < a.g.L; i++ {
			ones := 0
			for _, phi := range []float64{s.h[i].samp.Phi(), s.hp[i].samp.Phi(), s.hat[i].samp.Phi()} {
				if phi >= 1 {
					ones++
				}
			}
			mixed = mixed || (ones > 0 && ones < 3)
		}
	}
	if !mixed {
		t.Fatal("no level mixes rate-1 and fractional samplers; the test geometry lost its point")
	}

	obs.Enable()
	defer obs.Disable()
	upd0 := mSketchUpdates.Load()
	for _, ops := range batches {
		for _, op := range ops {
			if op.Delete {
				ref.Delete(op.P)
			} else {
				ref.Insert(op.P)
			}
		}
	}
	refUpdates := mSketchUpdates.Load() - upd0

	var wantIn, wantOut [3]int64
	in0, out0 := coalesceCounts()
	upd0 = mSketchUpdates.Load()
	for _, ops := range batches {
		in, out := coalesceOracle(a, ops)
		for k := range in {
			wantIn[k] += in[k]
			wantOut[k] += out[k]
		}
		a.Apply(ops)
	}
	if got := mSketchUpdates.Load() - upd0; got != refUpdates {
		t.Fatalf("stream_sketch_updates_total advanced %d, per-op replay %d", got, refUpdates)
	}
	in1, out1 := coalesceCounts()
	for k := 0; k < 3; k++ {
		if in1[k]-in0[k] != wantIn[k] || out1[k]-out0[k] != wantOut[k] {
			t.Fatalf("substream %d: coalesce in/out advanced %d/%d, want %d/%d",
				k, in1[k]-in0[k], out1[k]-out0[k], wantIn[k], wantOut[k])
		}
	}
	if wantIn[0]+wantIn[1]+wantIn[2] != refUpdates {
		t.Fatalf("coalesce ops in %v do not sum to the replay's %d sketch updates", wantIn, refUpdates)
	}

	if a.n != ref.n || a.costBound.N() != ref.costBound.N() {
		t.Fatalf("N %d/%d, cost bound N %d/%d", a.n, ref.n, a.costBound.N(), ref.costBound.N())
	}
	if a.StateDigest() != ref.StateDigest() {
		t.Fatal("Apply state diverged from per-op replay")
	}
	if a.costBound.Digest() != ref.costBound.Digest() {
		t.Fatal("cost bound state diverged from per-op replay")
	}
	if a.Bytes() != ref.Bytes() {
		t.Fatalf("Bytes %d vs %d", a.Bytes(), ref.Bytes())
	}
	var fails int
	for gi := range a.streams {
		ca, errA := a.streams[gi].Result()
		cb, errB := ref.streams[gi].Result()
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("guess %d: Result errors differ: %v vs %v", gi, errA, errB)
		}
		if errA != nil {
			fails++
		}
		sameCoreset(t, ca, cb, errA, errB)
	}
	if fails == 0 {
		t.Fatal("no guess FAILed: the FAIL side went unexercised")
	}
	ca, errA := a.Result()
	cb, errB := ref.Result()
	sameCoreset(t, ca, cb, errA, errB)
}
