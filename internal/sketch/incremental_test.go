package sketch

import (
	"math/rand"
	"reflect"
	"testing"

	"streambalance/internal/geo"
)

// compareIncCold asserts digest + Bytes + Result (including FAIL
// verdicts) equality between the incremental instance and a cold full
// peel of its sibling.
func compareIncCold(t *testing.T, inc, cold *Storing) {
	t.Helper()
	if inc.Digest() != cold.Digest() {
		t.Fatal("digest diverged between incremental and cold instances")
	}
	if inc.Bytes() != cold.Bytes() {
		t.Fatal("Bytes diverged between incremental and cold instances")
	}
	ri, oki := inc.Result() // spliced when a base exists
	cold.DropCache()        // also clears the base: force a cold full peel
	rc, okc := cold.Result()
	if oki != okc {
		t.Fatalf("verdicts diverged: incremental ok=%v, cold ok=%v", oki, okc)
	}
	if oki && !reflect.DeepEqual(ri, rc) {
		t.Fatalf("results diverged:\nincremental %+v\ncold        %+v", ri, rc)
	}
}

// TestStoringSplicedDecodeMatchesCold drives one instance through
// success → over-full FAIL → success transitions with interleaved
// extraction, checking after every batch that the spliced decode is
// bit-identical to a cold peel of a mirrored sibling — the
// deterministic core of FuzzIncrementalDecodeMatchesCold.
func TestStoringSplicedDecodeMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := buildGrid(t, 256, 2, 21)
	inc := NewStoring(rng, g, 3, 8, 8, 0.01)
	cold := inc.CloneEmpty()

	var live []geo.Point
	apply := func(p geo.Point, delta int64) {
		if delta > 0 {
			inc.Insert(p)
			cold.Insert(p)
			live = append(live, p)
		} else {
			inc.Delete(p)
			cold.Delete(p)
		}
	}

	// Warm: a few points, extract (cold miss), then splice after a
	// one-point dirty batch.
	for i := 0; i < 5; i++ {
		apply(geo.Point{1 + rng.Int63n(255), 1 + rng.Int63n(255)}, +1)
	}
	compareIncCold(t, inc, cold)
	apply(geo.Point{7, 7}, +1)
	compareIncCold(t, inc, cold)
	if s := inc.CacheStats(); s.Splices == 0 {
		t.Fatal("one-point dirty batch did not splice")
	}

	// Over-full: push the support past beta=8, FAIL both ways.
	for i := 0; i < 16; i++ {
		apply(geo.Point{1 + rng.Int63n(255), 1 + rng.Int63n(255)}, +1)
	}
	compareIncCold(t, inc, cold)
	if _, ok := inc.Result(); ok {
		t.Fatal("over-full sketch must FAIL")
	}

	// Deletions shrink the support back under the budget: success again.
	for len(live) > 6 {
		apply(live[len(live)-1], -1)
		live = live[:len(live)-1]
	}
	compareIncCold(t, inc, cold)
	if _, ok := inc.Result(); !ok {
		t.Fatal("shrunken sketch must decode again")
	}

	// Merge path: a fork's delta splices onto the kept base.
	forkI, forkC := inc.CloneEmpty(), cold.CloneEmpty()
	forkI.Insert(geo.Point{9, 9})
	forkC.Insert(geo.Point{9, 9})
	inc.Merge(forkI)
	cold.Merge(forkC)
	compareIncCold(t, inc, cold)
	if s := inc.CacheStats(); s.MergeKeeps == 0 {
		t.Fatal("merge over a live base did not keep it")
	}
}

// FuzzIncrementalDecodeMatchesCold drives random insert / delete /
// fork-merge / extract interleavings — including unmatched deletions
// (negative-count FAILs) and over-full states — and asserts after every
// extraction that digest, Bytes and Result (success payloads and FAIL
// verdicts alike) are identical between the incremental instance and a
// cold full peel of a mirrored sibling. Run under -race by `make check`.
func FuzzIncrementalDecodeMatchesCold(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 3, 0, 1, 3, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(int64(2), []byte{0, 3, 4, 0, 3, 1, 1, 1, 3, 2, 2, 3, 0, 4, 3})
	f.Add(int64(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 1, 1, 1, 1, 1, 3, 2, 3})
	f.Add(int64(4), []byte{3, 4, 3, 0, 0, 2, 0, 3, 2, 3, 1, 3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		rng := rand.New(rand.NewSource(seed))
		g := buildGrid(t, 256, 2, seed^0x5eed)
		inc := NewStoring(rng, g, 3, 8, 8, 0.01)
		cold := inc.CloneEmpty()

		var live []geo.Point
		randPoint := func() geo.Point {
			return geo.Point{1 + rng.Int63n(255), 1 + rng.Int63n(255)}
		}
		for _, b := range script {
			switch b % 5 {
			case 0: // insert
				p := randPoint()
				inc.Insert(p)
				cold.Insert(p)
				live = append(live, p)
			case 1: // delete: matched when possible, else an unmatched one
				var p geo.Point
				if len(live) > 0 {
					i := rng.Intn(len(live))
					p = live[i]
					live = append(live[:i], live[i+1:]...)
				} else {
					p = randPoint() // negative count: FAIL on both sides
				}
				inc.Delete(p)
				cold.Delete(p)
			case 2: // fork a sibling pair, update it, merge back
				forkI, forkC := inc.CloneEmpty(), cold.CloneEmpty()
				for k := rng.Intn(3); k > 0; k-- {
					p := randPoint()
					forkI.Insert(p)
					forkC.Insert(p)
					live = append(live, p)
				}
				inc.Merge(forkI) // k may be 0: the pristine-skip path
				cold.Merge(forkC)
			case 3: // extract and compare (incremental vs cold full peel)
				compareIncCold(t, inc, cold)
			case 4: // extra incremental extraction: more splice traffic
				inc.Result()
			}
		}
		compareIncCold(t, inc, cold)
	})
}

// TestSplicedResultNoArenaAliasing pins the arena-independence of
// spliced results: a result produced by the differential decode must
// stay intact while the same arena is churned by other decodes and the
// live slabs keep moving — i.e. it never aliases arena scratch or slab
// memory.
func TestSplicedResultNoArenaAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := buildGrid(t, 256, 2, 31)
	st := NewStoring(rng, g, 3, 16, 16, 0.01)
	arena := NewDecodeArena()

	for i := 0; i < 6; i++ {
		st.Insert(geo.Point{1 + rng.Int63n(255), 1 + rng.Int63n(255)})
	}
	if _, ok := st.ResultArena(arena); !ok {
		t.Fatal("warm decode failed")
	}
	st.Insert(geo.Point{11, 12})
	res, ok := st.ResultArena(arena) // spliced
	if !ok {
		t.Fatal("spliced decode failed")
	}
	if st.CacheStats().Splices == 0 {
		t.Fatal("expected a spliced decode")
	}
	snap := deepCopyResult(res)

	// Churn the arena with decodes of an unrelated, larger sketch, and
	// keep mutating + splicing st itself.
	other := NewStoring(rand.New(rand.NewSource(32)), g, 5, 64, 64, 0.01)
	for i := 0; i < 40; i++ {
		other.Insert(geo.Point{1 + rng.Int63n(255), 1 + rng.Int63n(255)})
	}
	other.ResultArena(arena)
	st.Insert(geo.Point{13, 14})
	st.ResultArena(arena)
	other.DropCache()
	other.ResultArena(arena)

	if !reflect.DeepEqual(snap, deepCopyResult(res)) {
		t.Fatal("spliced result mutated by later arena use")
	}
}

func deepCopyResult(r StoringResult) StoringResult {
	cp := StoringResult{Level: r.Level}
	for _, c := range r.Cells {
		idx := append([]int64(nil), c.Index...)
		cp.Cells = append(cp.Cells, CellCount{Key: c.Key, Index: idx, Count: c.Count})
	}
	for _, p := range r.Points {
		cp.Points = append(cp.Points, PointCount{P: append(geo.Point(nil), p.P...), Count: p.Count})
	}
	return cp
}

// TestCacheBytesIncludesBase: the CacheBytes gauge must account for the
// differential base (slab snapshots + cached item lists) on top of the
// cached result, stay out of Bytes (the Theorem 4.5 space accounting),
// and return to zero on DropCache.
func TestCacheBytesIncludesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := buildGrid(t, 256, 2, 41)
	st := NewStoring(rng, g, 3, 16, 16, 0.01)
	for i := 0; i < 8; i++ {
		st.Insert(geo.Point{1 + rng.Int63n(255), 1 + rng.Int63n(255)})
	}
	bytes0 := st.Bytes()

	st.Result()
	// The base snapshots mirror both slabs, so the gauge must be at least
	// the sketch's own footprint while a base is live.
	if cb := st.CacheBytes(); cb < bytes0 {
		t.Fatalf("CacheBytes %d < Bytes %d: base snapshots unaccounted", cb, bytes0)
	}
	st.Insert(geo.Point{3, 4})
	st.Result() // spliced: base refreshed, still accounted
	if cb := st.CacheBytes(); cb < bytes0 {
		t.Fatalf("CacheBytes after splice %d < Bytes %d", cb, bytes0)
	}
	if st.Bytes() != bytes0 {
		t.Fatal("cache/base lifecycle changed Bytes")
	}
	st.DropCache()
	if cb := st.CacheBytes(); cb != 0 {
		t.Fatalf("DropCache left CacheBytes = %d, want 0", cb)
	}

	// With incremental decode off no snapshots are retained: the gauge
	// holds only the decoded lists, strictly below the slab footprint.
	prev := SetIncremental(false)
	defer SetIncremental(prev)
	st.Result()
	if cb := st.CacheBytes(); cb == 0 || cb >= bytes0 {
		t.Fatalf("CacheBytes with incremental off = %d, want in (0, %d)", cb, bytes0)
	}
	st.DropCache()
	if st.CacheBytes() != 0 {
		t.Fatal("DropCache (incremental off) left CacheBytes nonzero")
	}
}
