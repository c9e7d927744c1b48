package sketch

import (
	"math/rand"
	"reflect"
	"runtime"
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
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(21))
		g := buildGrid(t, 256, 2, 21)
		inc := newStoring(rng, g, 3, kind, 8)
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

		// Over-full: push the support past capacity 8, FAIL both ways.
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
	})
}

// FuzzIncrementalDecodeMatchesCold drives random insert / delete /
// fork-merge / extract interleavings — including unmatched deletions
// (negative-count FAILs) and over-full states — and asserts after every
// extraction that digest, Bytes and Result (success payloads and FAIL
// verdicts alike) are identical between the incremental instance and a
// cold full peel of a mirrored sibling, for each kind. Run under -race by
// `make check`.
func FuzzIncrementalDecodeMatchesCold(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 3, 0, 1, 3, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Add(int64(2), []byte{0, 3, 4, 0, 3, 1, 1, 1, 3, 2, 2, 3, 0, 4, 3})
	f.Add(int64(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 1, 1, 1, 1, 1, 3, 2, 3})
	f.Add(int64(4), []byte{3, 4, 3, 0, 0, 2, 0, 3, 2, 3, 1, 3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		for _, k := range kinds { // every script runs on both kinds
			kind := k.kind
			rng := rand.New(rand.NewSource(seed))
			g := buildGrid(t, 256, 2, seed^0x5eed)
			inc := newStoring(rng, g, 3, kind, 8)
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
		}
	})
}

// TestSplicedResultNoArenaAliasing pins the arena-independence of
// spliced results: a result produced by the differential decode must
// stay intact while the same arena is churned by other decodes and the
// live slabs keep moving — i.e. it never aliases arena scratch or slab
// memory.
func TestSplicedResultNoArenaAliasing(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(31))
		g := buildGrid(t, 256, 2, 31)
		st := newStoring(rng, g, 3, kind, 16)
		arena := NewDecodeArena()

		for _, p := range randPoints(rng, 6, 255, 2) {
			st.Insert(p)
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
		snap := deepCopyItems(res)

		// Churn the arena with decodes of an unrelated, larger sketch, and
		// keep mutating + splicing st itself.
		other := newStoring(rand.New(rand.NewSource(32)), g, 5, kind, 64)
		for _, p := range randPoints(rng, 40, 255, 2) {
			other.Insert(p)
		}
		other.ResultArena(arena)
		st.Insert(geo.Point{13, 14})
		st.ResultArena(arena)
		other.DropCache()
		other.ResultArena(arena)

		if !reflect.DeepEqual(snap, deepCopyItems(res)) {
			t.Fatal("spliced result mutated by later arena use")
		}
	})
}

func deepCopyItems(items []Item) []Item {
	cp := make([]Item, len(items))
	for i, it := range items {
		cp[i] = Item{Key: it.Key, Count: it.Count, Payload: append([]int64(nil), it.Payload...)}
	}
	return cp
}

// TestCacheBytesIncludesBase: the CacheBytes gauge must account for the
// differential base (slab snapshot + cached item list) on top of the
// cached result, stay out of Bytes (the Theorem 4.5 space accounting),
// and return to zero on DropCache.
func TestCacheBytesIncludesBase(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(41))
		g := buildGrid(t, 256, 2, 41)
		st := newStoring(rng, g, 3, kind, 16)
		for _, p := range randPoints(rng, 8, 255, 2) {
			st.Insert(p)
		}
		bytes0 := st.Bytes()

		st.Result()
		// The base snapshot mirrors the slab, so the gauge must be at least
		// the sketch's own footprint while a base is live.
		if cb := st.CacheBytes(); cb < bytes0 {
			t.Fatalf("CacheBytes %d < Bytes %d: base snapshot unaccounted", cb, bytes0)
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
	})
}

// TestSplicedItemsDoNotPinDecodeSlabs: the decode cache retains every
// spliced item, so an item's payload must not alias a payload slab sized
// for the decode's item cap — one single-op splice on an s=4096, dim-2
// point sketch would then keep a (2s+1)·2·8 B ≈ 128 KiB slab alive. After
// ~200 such splices the heap the sketch retains must stay within twice
// what it accounts for: its slabs (Bytes) plus its cache (CacheBytes).
func TestSplicedItemsDoNotPinDecodeSlabs(t *testing.T) {
	const s, splices = 4096, 200
	rng := rand.New(rand.NewSource(41))
	g := buildGrid(t, 1<<12, 2, 41)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	st := newStoring(rng, g, 6, Points, s)
	for i := 0; i < 64; i++ {
		st.Insert(geo.Point{int64(i), int64(i)})
	}
	if _, ok := st.Result(); !ok {
		t.Fatal("base decode failed")
	}
	for i := 0; i < splices; i++ {
		st.Insert(geo.Point{int64(i), int64(1000 + i)})
		if _, ok := st.Result(); !ok {
			t.Fatalf("splice %d failed", i)
		}
	}
	if got := st.CacheStats().Splices; got != splices {
		t.Fatalf("%d spliced decodes, want %d", got, splices)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	accounted := st.Bytes() + st.CacheBytes()
	t.Logf("retained %d B, slab+cache %d B", retained, accounted)
	if retained > 2*accounted {
		t.Fatalf("sketch retains %d heap bytes after %d splices, more than twice its %d slab+cache bytes",
			retained, splices, accounted)
	}
	runtime.KeepAlive(st)
}
