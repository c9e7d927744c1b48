package sketch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streambalance/internal/geo"
)

// mergeFlat is the splice over one flat base item list and its keys, the
// oracle for the chunked mergeDecoded: a sorted two-pointer merge of the
// base with the delta into fresh slices, cancelling zero counts, combining
// a shared key's payloads, and failing (ok=false) on a payload that does
// not combine. Every item the delta touched is keyed afresh.
func (st *Storing) mergeFlat(prev []Item, prevKeys []uint64, delta []Item) ([]Item, []uint64, bool) {
	if len(delta) == 0 {
		return prev, prevKeys, true
	}
	sortItemsByKey(delta)
	w := st.keyStride()
	out := make([]Item, 0, len(prev)+len(delta))
	keys := make([]uint64, 0, (len(prev)+len(delta))*w)
	add := func(it Item) {
		out = append(out, it)
		keys = append(keys, make([]uint64, w)...)
		st.keyItem(keys[len(keys)-w:], &out[len(out)-1])
	}
	i, j := 0, 0
	for i < len(prev) || j < len(delta) {
		switch {
		case j >= len(delta) || (i < len(prev) && prev[i].Key < delta[j].Key):
			out = append(out, prev[i])
			keys = append(keys, prevKeys[i*w:(i+1)*w]...)
			i++
		case i >= len(prev) || delta[j].Key < prev[i].Key:
			add(delta[j])
			j++
		default: // same key on both sides
			pc, dc := prev[i].Count, delta[j].Count
			nc := pc + dc
			if nc != 0 {
				it := Item{Key: prev[i].Key, Count: nc}
				if pd := len(prev[i].Payload); pd > 0 {
					if len(delta[j].Payload) != pd {
						return nil, nil, false
					}
					p := make([]int64, pd)
					for x := 0; x < pd; x++ {
						num := pc*prev[i].Payload[x] + dc*delta[j].Payload[x]
						if num%nc != 0 {
							return nil, nil, false
						}
						p[x] = num / nc
					}
					it.Payload = p
				}
				add(it)
			}
			i++
			j++
		}
	}
	return out, keys, true
}

// checkMergeMatchesFlat merges a copy of delta onto base both ways — the
// chunked mergeDecoded (with st.base = base) and the flat mergeFlat
// oracle — and fails t unless they agree on ok, on a negative count, and
// item for item and key for key, the chunked result is well formed, and
// base reads as before. It returns the chunked result.
func checkMergeMatchesFlat(t *testing.T, st *Storing, base *Decoded, delta []Item) (*Decoded, bool, bool) {
	t.Helper()
	baseItems, baseKeys := deepCopyItems(base.Items()), flatKeys(base)
	saved := st.base
	st.base = base
	got, neg, ok := st.mergeDecoded(append([]Item(nil), delta...))
	st.base = saved
	want, wantKeys, wantOK := st.mergeFlat(base.Items(), flatKeys(base), append([]Item(nil), delta...))
	if ok != wantOK {
		t.Fatalf("chunked merge ok=%v, flat oracle ok=%v (delta %+v)", ok, wantOK, delta)
	}
	if !reflect.DeepEqual(deepCopyItems(base.Items()), baseItems) || !reflect.DeepEqual(flatKeys(base), baseKeys) {
		t.Fatal("merge wrote to the base it read")
	}
	if !ok {
		return nil, false, false
	}
	checkChunks(t, got)
	if gi := got.Items(); !reflect.DeepEqual(gi, want) && !(len(gi) == 0 && len(want) == 0) {
		t.Fatalf("chunked merge items differ from the flat oracle:\nchunked %+v\nflat    %+v", gi, want)
	}
	if gk := flatKeys(got); !reflect.DeepEqual(gk, wantKeys) && !(len(gk) == 0 && len(wantKeys) == 0) {
		t.Fatalf("chunked merge keys differ from the flat oracle:\nchunked %v\nflat    %v", gk, wantKeys)
	}
	if neg != anyNegative(want) {
		t.Fatalf("negative count: chunked %v, flat oracle %v", neg, anyNegative(want))
	}
	return got, neg, true
}

// FuzzSpliceMatchesFlatMerge: the chunked copy-on-write splice must match
// the flat merge oracle and a cold decode, item for item and key for key.
//
// The first half drives a real Storing of each kind (capacity 400, so a
// base spans several chunks) through inserts, duplicate inserts, matched
// deletes (counts cancelling to zero), unmatched deletes (negative
// counts), bursts past the capacity (FAIL verdicts, which must keep the
// base), bursts of deletions, and deletions of key-contiguous runs (a
// chunk shrinking under half of chunkCap and merging with a neighbour). Before
// every query it peels the residual the splice will peel and merges it
// both ways; after it, it compares the query with a cold peel of a
// mirrored sibling. The second half merges crafted deltas onto a crafted
// base: payloads that do not combine and payloads of the wrong length
// (the fallbacks), cancellations, negative counts, and runs of new keys
// dense enough to split chunks.
func FuzzSpliceMatchesFlatMerge(f *testing.F) {
	f.Add(int64(1), []byte{4, 4, 4, 7, 0, 1, 2, 7, 5, 7, 3, 7, 4, 4, 4, 4, 7, 5, 5, 5, 5, 7})
	f.Add(int64(2), []byte{4, 4, 4, 4, 7, 6, 7, 6, 7, 6, 7, 14, 7, 6, 7, 2, 2, 0, 0, 7, 5, 7})
	f.Add(int64(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(int64(4), []byte{4, 4, 4, 7, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 3, 7, 9, 9, 11, 15})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 128 {
			script = script[:128]
		}
		const capacity = 400
		for _, k := range kinds {
			rng := rand.New(rand.NewSource(seed))
			g := buildGrid(t, 1<<10, 2, seed^0x5eed)
			st := newStoring(rng, g, 7, k.kind, capacity)
			cold := st.cloneEmpty()
			var live []geo.Point
			randPoint := func() geo.Point { return geo.Point{1 + rng.Int63n(1<<10), 1 + rng.Int63n(1<<10)} }
			insert := func(p geo.Point) {
				st.Insert(p)
				cold.Insert(p)
				live = append(live, p)
			}
			remove := func(i int) {
				st.Delete(live[i])
				cold.Delete(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			query := func() {
				var before *Decoded
				splices := st.CacheStats().Splices
				if st.baseValid {
					before = st.base
					if delta, ok := st.sr.DecodeDeltaWith(nil, st.snap, 2*st.sr.Sparsity()); ok {
						checkMergeMatchesFlat(t, st, st.base, delta)
					}
				}
				d, ok := st.ResultKeyed(nil)
				cold.DropCache()
				dc, okc := cold.ResultKeyed(nil)
				if ok != okc {
					t.Fatalf("%s: verdict %v, cold decode %v", k.name, ok, okc)
				}
				if ok {
					checkChunks(t, d)
					if !reflect.DeepEqual(d.Items(), dc.Items()) || !reflect.DeepEqual(flatKeys(d), flatKeys(dc)) {
						t.Fatalf("%s: spliced decode differs from the cold decode", k.name)
					}
				} else if before != nil && st.CacheStats().Splices > splices && st.base != before {
					t.Fatalf("%s: a spliced FAIL verdict replaced the base", k.name)
				}
			}
			for _, b := range script {
				switch b % 8 {
				case 0: // insert a new point
					insert(randPoint())
				case 1: // matched delete
					if len(live) > 0 {
						remove(rng.Intn(len(live)))
					}
				case 2: // a live point again: its count moves, its payload holds
					if len(live) > 0 {
						insert(live[rng.Intn(len(live))].Clone())
					}
				case 3: // unmatched delete: a negative count FAILs both ways; then undone
					p := randPoint()
					st.Delete(p)
					cold.Delete(p)
					query()
					st.Insert(p)
					cold.Insert(p)
				case 4: // a burst of inserts, past the capacity when repeated
					for i := 0; i < 60; i++ {
						insert(randPoint())
					}
				case 5: // a burst of deletes across the base
					for i := 0; i < 40 && len(live) > 0; i++ {
						remove(rng.Intn(len(live)))
					}
				case 6: // delete a key-contiguous run: one chunk shrinks and merges
					sort.Slice(live, func(i, j int) bool { return liveKey(st, live[i]) < liveKey(st, live[j]) })
					run := 1 + rng.Intn(3*chunkCap)
					at := rng.Intn(len(live) + 1)
					if rng.Intn(3) == 0 {
						at = len(live) - run // the top keys: the last chunk
					}
					for i := 0; i < run && at >= 0 && at < len(live); i++ {
						remove(at)
					}
				default:
					query()
				}
			}
			query()

			// Crafted deltas onto a crafted base of distinct keys.
			n := int(seed&255) + len(script)
			items := make([]Item, n)
			keys := make([]uint64, 0, n*st.keyStride())
			used := map[uint64]bool{}
			for i := range items {
				key := rng.Uint64() >> 1
				for used[key] {
					key = rng.Uint64() >> 1
				}
				used[key] = true
				items[i] = Item{Key: key, Count: 1 + rng.Int63n(3), Payload: craftPayload(rng, k.kind)}
			}
			sortItemsByKey(items)
			for i := range items {
				keys = append(keys, make([]uint64, st.keyStride())...)
				st.keyItem(keys[len(keys)-st.keyStride():], &items[i])
			}
			base := newDecoded(items, keys, st.keyStride())
			for round, b := range script {
				var delta []Item
				seen := map[uint64]bool{}
				for x := 0; x < 1+int(b%16); x++ {
					var it Item
					if len(items) > 0 && rng.Intn(2) == 0 {
						prev := items[rng.Intn(len(items))]
						it = Item{Key: prev.Key, Payload: prev.Payload}
						switch rng.Intn(5) {
						case 0: // cancel to zero
							it.Count = -prev.Count
						case 1: // a payload that does not combine
							it.Count = 1
							it.Payload = append([]int64(nil), prev.Payload...)
							it.Payload[0]++
						case 2: // a payload of the wrong length
							it.Count = 1
							it.Payload = it.Payload[:len(it.Payload)-1]
						default: // more of the same payload
							it.Count = 1 + rng.Int63n(2)
						}
						if round%4 != 0 && (rng.Intn(3) > 0) {
							it.Payload, it.Count = prev.Payload, 1 // mostly mergeable
						}
					} else { // a new key, sometimes negative
						it = Item{Key: rng.Uint64() >> 1, Count: 1, Payload: craftPayload(rng, k.kind)}
						if rng.Intn(8) == 0 {
							it.Count = -1
						}
					}
					if !seen[it.Key] {
						seen[it.Key] = true
						delta = append(delta, it)
					}
				}
				got, neg, ok := checkMergeMatchesFlat(t, st, base, delta)
				if ok && !neg {
					base, items = got, got.Items()
				}
			}
		}
	})
}

// liveKey is the key under which st recovers point p: its fingerprint,
// or its cell's key.
func liveKey(st *Storing, p geo.Point) uint64 {
	if st.kind == Cells {
		return st.g.KeyOf(st.level, st.g.CellIndex(p, st.level))
	}
	return st.fp.Key(p)
}

// craftPayload draws a payload of the kind's shape: a level-7 cell index
// or a point, both in range for the test grid.
func craftPayload(rng *rand.Rand, kind Kind) []int64 {
	if kind == Cells {
		return []int64{rng.Int63n(8), rng.Int63n(8)}
	}
	return []int64{1 + rng.Int63n(1<<10), 1 + rng.Int63n(1<<10)}
}

// TestHeldViewSurvivesSplices: a Decoded view handed out by ResultKeyed
// must read the same items and keys after later splices rewrite the
// chunks it shares with newer decodes — held across 8 spliced queries,
// with every view taken on the way checked again at the end.
func TestHeldViewSurvivesSplices(t *testing.T) {
	eachKind(t, func(t *testing.T, kind Kind) {
		rng := rand.New(rand.NewSource(61))
		g := buildGrid(t, 1<<10, 2, 61)
		st := newStoring(rng, g, 7, kind, 512)
		live := randPoints(rng, 300, 1<<10, 2)
		for _, p := range live {
			st.Insert(p)
		}
		type held struct {
			d     *Decoded
			items []Item
			keys  []uint64
		}
		var views []held
		take := func() {
			d, ok := st.ResultKeyed(nil)
			if !ok {
				t.Fatal("decode FAILed on in-budget input")
			}
			views = append(views, held{d, deepCopyItems(d.Items()), flatKeys(d)})
		}
		take()
		for round := 0; round < 8; round++ {
			for i := 0; i < 6; i++ {
				p := randPoints(rng, 1, 1<<10, 2)[0]
				st.Insert(p)
				live = append(live, p)
			}
			for i := 0; i < 6; i++ {
				j := rng.Intn(len(live))
				st.Delete(live[j])
				live = append(live[:j], live[j+1:]...)
			}
			take()
			if !reflect.DeepEqual(deepCopyItems(views[0].d.Items()), views[0].items) || !reflect.DeepEqual(flatKeys(views[0].d), views[0].keys) {
				t.Fatalf("round %d: the first view changed", round)
			}
		}
		if s := st.CacheStats(); s.Splices != 8 {
			t.Fatalf("%d splices, want 8", s.Splices)
		}
		for v, h := range views {
			if !reflect.DeepEqual(deepCopyItems(h.d.Items()), h.items) || !reflect.DeepEqual(flatKeys(h.d), h.keys) {
				t.Fatalf("view %d changed after later splices", v)
			}
		}
		if reflect.DeepEqual(views[0].items, views[len(views)-1].items) {
			t.Fatal("churn left the decode unchanged")
		}
	})
}
