package sketch

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
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
	di, oki := inc.ResultKeyed(nil) // spliced when a base exists
	cold.DropCache()                // also clears the base: force a cold full peel
	dc, okc := cold.ResultKeyed(nil)
	if oki != okc {
		t.Fatalf("verdicts diverged: incremental ok=%v, cold ok=%v", oki, okc)
	}
	if !oki {
		return
	}
	checkChunks(t, di)
	if ri, rc := di.Items(), dc.Items(); !reflect.DeepEqual(ri, rc) {
		t.Fatalf("results diverged:\nincremental %+v\ncold        %+v", ri, rc)
	}
	if ki, kc := flatKeys(di), flatKeys(dc); !reflect.DeepEqual(ki, kc) {
		t.Fatalf("grid keys diverged:\nincremental %v\ncold        %v", ki, kc)
	}
}

// flatKeys returns every item's grid keys of d in one slice, in item
// order.
func flatKeys(d *Decoded) []uint64 {
	var out []uint64
	for c := 0; c < d.Chunks(); c++ {
		_, keys := d.Chunk(c)
		out = append(out, keys...)
	}
	return out
}

// checkChunks fails t unless d's chunks are non-empty, hold at most
// chunkCap items each (a splice re-cuts what it rewrites), carry stride
// keys per item, and together list strictly ascending keys.
func checkChunks(t *testing.T, d *Decoded) {
	t.Helper()
	var last uint64
	for c := 0; c < d.Chunks(); c++ {
		items, keys := d.Chunk(c)
		if len(items) == 0 || len(items) > chunkCap || len(keys) != len(items)*d.stride {
			t.Fatalf("chunk %d: %d items, %d keys (stride %d)", c, len(items), len(keys), d.stride)
		}
		for i, it := range items {
			if (c > 0 || i > 0) && it.Key <= last {
				t.Fatalf("chunk %d item %d: key %x not above %x", c, i, it.Key, last)
			}
			last = it.Key
		}
	}
}

// checkGridKeys fails t unless st decodes and every cached grid key
// equals a fresh grid computation: a point's level-(i−1) and level-i
// CellKey, a cell's parent KeyOf.
func checkGridKeys(t *testing.T, st *Storing, label string) {
	t.Helper()
	d, ok := st.ResultKeyed(nil)
	if !ok {
		t.Fatalf("%s: decode FAILed on in-budget input", label)
	}
	checkChunks(t, d)
	items, keys := d.Items(), flatKeys(d)
	w := st.keyStride()
	if len(keys) != len(items)*w {
		t.Fatalf("%s: %d keys for %d items, want %d per item", label, len(keys), len(items), w)
	}
	g, level := st.g, st.level
	for i, it := range items {
		var want []uint64
		if st.kind == Points {
			p := geo.Point(it.Payload)
			want = []uint64{g.CellKey(p, level-1), g.CellKey(p, level)}
		} else {
			want = []uint64{g.KeyOf(level-1, grid.ParentIndex(it.Payload))}
		}
		if got := keys[i*w : (i+1)*w]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: item %d (payload %v): keys %v, want %v", label, i, it.Payload, got, want)
		}
	}
}

// TestDecodedKeysMatchGrid: the grid keys a Storing caches beside its
// decoded items must equal fresh grid.CellKey / KeyOf computations after
// a cold decode, churn splices (delta items land between kept base
// items), on a sibling, after adding the sibling's state, and after
// DropCache —
// at level 0, whose parents are the root cell, and at a finer level.
func TestDecodedKeysMatchGrid(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		for _, level := range []int{0, 3} {
			rng := rand.New(rand.NewSource(int64(31 + level)))
			g := buildGrid(t, 256, 2, 31)
			st := newStoring(rng, g, level, kind, 256)
			randPoint := func() geo.Point { return geo.Point{1 + rng.Int63n(256), 1 + rng.Int63n(256)} }
			var live []geo.Point
			for i := 0; i < 40; i++ {
				p := randPoint()
				st.Insert(p)
				live = append(live, p)
			}
			checkGridKeys(t, st, "cold")
			for round := 0; round < 8; round++ {
				for i := 0; i < 3; i++ {
					p := randPoint()
					st.Insert(p)
					live = append(live, p)
				}
				for i := 0; i < 2; i++ {
					j := rng.Intn(len(live))
					st.Delete(live[j])
					live = append(live[:j], live[j+1:]...)
				}
				checkGridKeys(t, st, "churn splice")
			}
			if s := st.CacheStats(); s.Splices == 0 {
				t.Fatal("churn did not splice")
			}

			sib := st.cloneEmpty()
			for i := 0; i < 5; i++ {
				sib.Insert(randPoint())
			}
			checkGridKeys(t, sib, "sibling")
			splices := st.CacheStats().Splices
			addStoring(st, sib)
			checkGridKeys(t, st, "sibling sum")
			if s := st.CacheStats(); s.Splices == splices {
				t.Fatal("a sibling's state added over a live base did not splice")
			}

			st.DropCache()
			if st.CacheBytes() != 0 {
				t.Fatal("DropCache kept cache bytes")
			}
			checkGridKeys(t, st, "after DropCache")
		}
	})
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
		cold := inc.cloneEmpty()

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

		// A sibling's state added in one step splices onto the base.
		sibI, sibC := inc.cloneEmpty(), cold.cloneEmpty()
		sibI.Insert(geo.Point{9, 9})
		sibC.Insert(geo.Point{9, 9})
		splices := inc.CacheStats().Splices
		addStoring(inc, sibI)
		addStoring(cold, sibC)
		compareIncCold(t, inc, cold)
		if s := inc.CacheStats(); s.Splices == splices {
			t.Fatal("a sibling's state added over a live base did not splice")
		}
	})
}

// FuzzIncrementalDecodeMatchesCold drives random insert / delete /
// sibling-sum / extract interleavings — including unmatched deletions
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
			cold := inc.cloneEmpty()

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
				case 2: // update a sibling pair, add each into its instance
					sibI, sibC := inc.cloneEmpty(), cold.cloneEmpty()
					for k := rng.Intn(3); k > 0; k-- {
						p := randPoint()
						sibI.Insert(p)
						sibC.Insert(p)
						live = append(live, p)
					}
					addStoring(inc, sibI) // k may be 0: an empty sibling
					addStoring(cold, sibC)
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
		if _, ok := st.ResultKeyed(arena); !ok {
			t.Fatal("warm decode failed")
		}
		st.Insert(geo.Point{11, 12})
		res, ok := st.ResultKeyed(arena) // spliced
		if !ok {
			t.Fatal("spliced decode failed")
		}
		if st.CacheStats().Splices == 0 {
			t.Fatal("expected a spliced decode")
		}
		snap := deepCopyItems(res.Items())

		// Churn the arena with decodes of an unrelated, larger sketch, and
		// keep mutating + splicing st itself.
		other := newStoring(rand.New(rand.NewSource(32)), g, 5, kind, 64)
		for _, p := range randPoints(rng, 40, 255, 2) {
			other.Insert(p)
		}
		other.ResultKeyed(arena)
		st.Insert(geo.Point{13, 14})
		st.ResultKeyed(arena)
		other.DropCache()
		other.ResultKeyed(arena)

		if !reflect.DeepEqual(snap, deepCopyItems(res.Items())) {
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
