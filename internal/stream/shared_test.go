package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/obs"
	"streambalance/internal/partition"
	"streambalance/internal/sketch"
)

// newPrivateAuto builds the ensemble NewAuto builds for cfg with every
// sketch private: each guess draws and keeps its own rate-1 Storings.
// It is the oracle for the shared layout — same seeds, same samplers
// over the ensemble's same column polynomials, and every owner and
// fractional sketch draws the same hash functions.
func newPrivateAuto(t *testing.T, cfg Config, oFactor float64) *Auto {
	t.Helper()
	a, err := NewAuto(cfg, oFactor)
	if err != nil {
		t.Fatal(err)
	}
	cols := newColumns(a.params, a.g)
	for i, s := range a.streams {
		a.streams[i] = newShared(s.cfg, a.g, a.fp, rand.New(rand.NewSource(s.cfg.Params.Seed)), cols, nil)
	}
	a.units, a.rateOne = ensembleUnits(a.streams)
	return a
}

// TestSharedRateOneMatchesPrivate: sharing one Storing among the guesses
// that sample a (substream, level) at rate 1 must change no result.
// Against a private ensemble with the same seed, fed the same stream:
//   - every sketch the shared ensemble writes for its owner, and every
//     fractional one, is bit-identical to its private twin — the owner
//     keeps its hash draws and adopting guesses consume theirs;
//   - per-op Insert/Delete replay of the shared ensemble reaches the
//     state of its batched Apply;
//   - every guess's Result (coreset, or error text) is the private
//     twin's, and so is Auto.Result, scanned at 1, 2, 4 and 8 workers.
//
// The one way the two layouts can differ is a private non-owner sketch
// of support ≤ s whose peel fails while the owner's decodes (or the
// reverse); no stream below hits it.
func TestSharedRateOneMatchesPrivate(t *testing.T) {
	ps, _ := testMixture(95, 1500)
	insertOnly := make([]Op, len(ps))
	for i, p := range ps {
		insertOnly[i] = Op{P: p}
	}
	cases := []struct {
		name            string
		ops             []Op
		cellSp, pointSp int
		noWinner        bool
	}{
		{name: "insert-only", ops: insertOnly, cellSp: 512, pointSp: 2048},
		{name: "churn", ops: mixedOps(96, 1500), cellSp: 512, pointSp: 2048},
		{name: "duplicate-heavy", ops: dupHeavyOps(97, 300, 6), cellSp: 512, pointSp: 2048},
		{name: "no-winner", ops: mixedOps(98, 1500), cellSp: 8, pointSp: 16, noWinner: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 99},
				CellSparsity: tc.cellSp, PointSparsity: tc.pointSp}
			shared, err := NewAuto(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := NewAuto(cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			private := newPrivateAuto(t, cfg, 4)
			for lo := 0; lo < len(tc.ops); lo += 256 {
				hi := min(lo+256, len(tc.ops))
				shared.Apply(tc.ops[lo:hi])
				private.Apply(tc.ops[lo:hi])
			}
			for _, op := range tc.ops {
				if op.Delete {
					replay.Delete(op.P)
				} else {
					replay.Insert(op.P)
				}
			}
			if shared.StateDigest() != replay.StateDigest() {
				t.Fatal("shared Apply diverged from its per-op replay")
			}

			owned := map[*sketch.Storing]bool{}
			var adopted, fractional int
			for gi := range shared.streams {
				su, pu := shared.streams[gi].units, private.streams[gi].units
				for j := range su {
					switch {
					case owned[su[j].st]:
						if su[j].samp.Phi() < 1 {
							t.Fatalf("guess %d unit %d: a fractional sketch is shared", gi, j)
						}
						adopted++
						continue
					case su[j].samp.Phi() < 1:
						fractional++
					}
					owned[su[j].st] = true
					if su[j].st == pu[j].st || su[j].st.Digest() != pu[j].st.Digest() {
						t.Fatalf("guess %d unit %d (substream %d): state differs from its private twin", gi, j, su[j].sub)
					}
				}
			}
			if adopted == 0 || fractional == 0 {
				t.Fatalf("%d adopted and %d fractional sketches: the geometry lost its point", adopted, fractional)
			}
			if len(shared.units) != len(owned) {
				t.Fatalf("%d ensemble units, want %d distinct sketches", len(shared.units), len(owned))
			}

			var fails int
			for gi := range shared.streams {
				cs, errS := shared.streams[gi].resultWith(1)
				cp, errP := private.streams[gi].resultWith(1)
				sameOutcome(t, cs, errS, cp, errP, fmt.Sprintf("guess %d", gi))
				if errS != nil {
					fails++
				}
			}
			if tc.noWinner && fails != len(shared.streams) {
				t.Fatalf("%d of %d guesses FAILed on the no-winner stream", fails, len(shared.streams))
			}
			want, wantErr := private.resultWith(1)
			wantScan, _, wantScanErr := private.scan(len(private.guesses), 1)
			for _, w := range []int{1, 2, 4, 8} {
				shared.DropDecodeCache()
				got, gotErr := shared.resultWith(w)
				sameOutcome(t, got, gotErr, want, wantErr, fmt.Sprintf("Result at %d workers", w))
				shared.DropDecodeCache()
				gotScan, _, gotScanErr := shared.scan(len(shared.guesses), w)
				sameOutcome(t, gotScan, gotScanErr, wantScan, wantScanErr, fmt.Sprintf("scan at %d workers", w))
			}
		})
	}
}

// TestAutoAccountingCountsSharedOnce: the ensemble's space and cache
// accounting must count a Storing that several guesses share once.
// Bytes, DecodeCacheBytes, CacheStats and DirtyLevels are checked
// against sums over the distinct Storings the guesses hold, and a
// warmDecodeCache must decode each stale distinct Storing exactly once.
func TestAutoAccountingCountsSharedOnce(t *testing.T) {
	a, err := NewAuto(Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 101},
		CellSparsity: 512, PointSparsity: 2048}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ops := mixedOps(102, 1200)
	a.Apply(ops[:900])
	if _, err := a.Result(); err != nil {
		t.Fatal(err)
	}
	a.Apply(ops[900:])

	distinct := map[*sketch.Storing]bool{}
	var held int
	for _, s := range a.streams {
		for _, us := range [][]unit{s.h, s.hp, s.hat} {
			for _, u := range us {
				distinct[u.st] = true
				held++
			}
		}
	}
	if len(distinct) == held {
		t.Fatal("no Storing is shared: the geometry lost its point")
	}
	bytes := a.costBound.Bytes()
	var cache int64
	var stats sketch.CacheStats
	var stale int
	for st := range distinct {
		bytes += st.Bytes()
		cache += st.CacheBytes()
		stats.Add(st.CacheStats())
		if !st.CacheFresh() {
			stale++
		}
	}
	if got := a.Bytes(); got != bytes {
		t.Fatalf("Bytes %d, want %d over %d distinct Storings", got, bytes, len(distinct))
	}
	if got := a.DecodeCacheBytes(); got != cache || cache == 0 {
		t.Fatalf("DecodeCacheBytes %d, want %d (nonzero)", got, cache)
	}
	if got := a.CacheStats(); got != stats {
		t.Fatalf("CacheStats %+v, want %+v", got, stats)
	}
	dirty, total := a.DirtyLevels()
	if total != len(distinct) || dirty != stale || stale == 0 {
		t.Fatalf("DirtyLevels %d/%d, want %d/%d (some dirty)", dirty, total, stale, len(distinct))
	}

	obs.Enable()
	defer obs.Disable()
	d0 := mExtractDecodes.Load()
	a.warmDecodeCache()
	if got := mExtractDecodes.Load() - d0; got != int64(stale) {
		t.Fatalf("warmDecodeCache decoded %d Storings, want the %d stale distinct ones", got, stale)
	}
	if dirty, _ := a.DirtyLevels(); dirty != 0 {
		t.Fatalf("%d units still dirty after warmDecodeCache", dirty)
	}
}

// TestCellsBuiltOncePerDecode: the plan step's count source builds a
// cell sketch's cells once per decode. Guesses sharing a rate-1 h sketch
// read the very same slice while its decode is cached; after an update
// the next read is a new slice, equal to the cells of the new decode —
// never the memo of the old one — and DropDecodeCache drops the memo.
func TestCellsBuiltOncePerDecode(t *testing.T) {
	a, err := NewAuto(Config{
		Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 61},
		CellSparsity: 512, PointSparsity: 2048,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	a.Apply(mixedOps(62, 800))
	level, i, j := -1, 0, 0
	for l := 0; l < a.g.L && level < 0; l++ {
		for g := 1; g < len(a.streams); g++ {
			if a.streams[g].h[l].st == a.streams[0].h[l].st {
				level, i, j = l, 0, g
			}
		}
	}
	if level < 0 {
		t.Fatal("no h sketch is shared")
	}
	arena := getArena()
	defer putArena(arena)
	read := func(g int) []partition.Cell {
		cells, ok := cellSource(a.streams[g].h, arena)(level)
		if !ok || len(cells) == 0 {
			t.Fatalf("guess %d: level %d cells unavailable", g, level)
		}
		return cells
	}
	same := func(x, y []partition.Cell) bool { return &x[0] == &y[0] }
	want := func(cells []partition.Cell) {
		t.Helper()
		d, _ := a.streams[i].h[level].st.ResultKeyed(arena)
		fresh := new(cellMemo).get(d, a.streams[i].h[level].samp.Phi())
		if !reflect.DeepEqual(cells, fresh) {
			t.Fatal("memoised cells differ from the current decode's")
		}
	}
	first := read(i)
	if !same(first, read(j)) || !same(first, read(i)) {
		t.Fatal("guesses sharing a cached decode read different cell slices")
	}
	want(first)
	a.Apply(mixedOps(63, 40))
	second := read(j)
	if same(first, second) {
		t.Fatal("an update left the old decode's cells in place")
	}
	want(second)
	if !same(second, read(i)) {
		t.Fatal("guesses sharing a cached decode read different cell slices after an update")
	}
	a.DropDecodeCache()
	if m := a.streams[i].h[level].cells; m.from != nil || m.cells != nil {
		t.Fatal("DropDecodeCache kept the cell memo")
	}
}
