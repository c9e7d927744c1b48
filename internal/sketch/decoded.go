package sketch

import (
	"slices"
	"sync"
)

// chunkCap is the most items a base chunk holds when it is cut: a cold
// decode cuts its sorted items into balanced chunks of at most chunkCap,
// and a splice re-cuts each run of chunks it rewrites the same way. A
// splice copies the chunks its delta touches plus the chunk index, so
// smaller chunks copy fewer items per touched chunk and more index
// entries per splice. A serving splice merges about 14 delta items onto
// about 950 (DESIGN.md §13), where 16 beat both 8 and 32.
const chunkCap = 16

// Decoded is one successful decode of a Storing: its items in ascending
// key order, each with its keyStride grid keys (see Storing.ResultKeyed),
// held in chunks of consecutive items. A Decoded is never mutated once a
// Storing hands it out: a splice copies only the chunks its delta
// touches into new ones and builds a new chunk index, sharing the
// untouched chunks with the previous decode, so every earlier view keeps
// reading the decode it was handed. The holders of a view are the
// stream's count source (the plan step's cells, memoised per decode),
// the stream's ĥ point source (whose coreset points alias item
// payloads), and tests.
type Decoded struct {
	chunks []chunk
	stride int
}

// chunk is a non-empty run of consecutive items of a decode and their
// grid keys, stride words per item.
type chunk struct {
	items []Item
	keys  []uint64
}

// newDecoded cuts key-sorted items and their keys into a fresh decode.
func newDecoded(items []Item, keys []uint64, stride int) *Decoded {
	return &Decoded{chunks: appendChunks(nil, items, keys, stride), stride: stride}
}

// appendChunks cuts items and their keys into ⌈n/chunkCap⌉ chunks of
// near-equal size, appended to dst. The chunks alias items and keys.
func appendChunks(dst []chunk, items []Item, keys []uint64, stride int) []chunk {
	n := len(items)
	k := (n + chunkCap - 1) / chunkCap
	for c := 0; c < k; c++ {
		lo, hi := c*n/k, (c+1)*n/k
		dst = append(dst, chunk{items: items[lo:hi:hi], keys: keys[lo*stride : hi*stride : hi*stride]})
	}
	return dst
}

// Len returns the number of items.
func (d *Decoded) Len() int {
	n := 0
	for _, c := range d.chunks {
		n += len(c.items)
	}
	return n
}

// Chunks returns the number of chunks; Chunk(0..Chunks()−1) read the
// items in ascending key order.
func (d *Decoded) Chunks() int { return len(d.chunks) }

// Chunk returns chunk c's items and their grid keys, read-only.
func (d *Decoded) Chunk(c int) ([]Item, []uint64) { return d.chunks[c].items, d.chunks[c].keys }

// Items returns every item in one fresh slice (payloads are shared).
func (d *Decoded) Items() []Item {
	out := make([]Item, 0, d.Len())
	for _, c := range d.chunks {
		out = append(out, c.items...)
	}
	return out
}

// bytes approximates the memory the decode holds: items, payloads, keys
// and the chunk index.
func (d *Decoded) bytes() int64 {
	b := int64(len(d.chunks)) * 48
	for _, c := range d.chunks {
		b += int64(len(c.items))*40 + int64(len(c.keys))*8
		for i := range c.items {
			b += int64(len(c.items[i].Payload)) * 8
		}
	}
	return b
}

// mergeDecoded combines the base decode with a residual delta decode,
// producing the decode of the summed vector — item for item and key for
// key what a cold peel of the current slab returns, since
// cur = snapshot + residual by linearity. Keys whose net count cancels
// to zero vanish (as they do from a cold peel). A key present in both
// must carry a consistent payload: the combined payload sum
// pc·prevP + dc·deltaP must divide evenly by the combined count, and a
// mismatch (only possible under a fingerprint collision) returns
// ok=false so the caller falls back to the cold peel's own verdict. neg
// reports a negative net count among the merged items.
//
// The merge is copy-on-write: a delta item belongs to the chunk whose
// key range holds it (below the next chunk's first key), and a chunk no
// delta item belongs to is shared with the base as is. Each maximal run
// of touched chunks is merged with its delta items and re-cut into new
// chunks; a run whose merged items would make a chunk under half of
// chunkCap absorbs the next chunk (or, at the end, the previous one), so
// churn cannot fragment the index. Only touched and absorbed chunks and
// the index are copied, into one exact-size allocation per splice, and
// only delta items are keyed afresh; an item kept from the base keeps its
// grid keys. mu must be held.
func (st *Storing) mergeDecoded(delta []Item) (d *Decoded, neg, ok bool) {
	base := st.base
	if len(delta) == 0 {
		return base, false, true
	}
	sortItemsByKey(delta)
	cs := base.chunks
	m := runPool.Get().(*runMerger)
	m.st, m.w = st, base.stride
	defer m.release()
	out := make([]chunk, 0, len(cs)+len(delta)/chunkCap+1)
	j, start := 0, 0 // start: the open run's first item in m.items
	for c := range cs {
		hi := len(delta) // chunk c's delta items: below chunk c+1's first key
		if c+1 < len(cs) {
			for hi = j; hi < len(delta) && delta[hi].Key < cs[c+1].items[0].Key; hi++ {
			}
		}
		if hi == j && len(m.items) == start {
			out = append(out, cs[c]) // untouched: shared
			continue
		}
		if !m.merge(cs[c].items, cs[c].keys, delta[j:hi]) {
			return nil, false, false
		}
		j = hi
		if c+1 == len(cs) {
			break
		}
		// Go on into chunk c+1 when a delta item belongs to it, or when
		// the run is too short to stand as a chunk of its own.
		nextTouched := j < len(delta) && (c+2 == len(cs) || delta[j].Key < cs[c+2].items[0].Key)
		if !nextTouched && len(m.items)-start >= chunkCap/2 {
			out, start = m.cut(out, start), len(m.items)
		}
	}
	if len(cs) == 0 && !m.merge(nil, nil, delta) {
		return nil, false, false
	}
	if n := len(m.items) - start; n > 0 && n < chunkCap/2 && len(out) > 0 {
		out = m.takeLast(out, start) // a short final run takes in the chunk before it
	}
	out = m.place(m.cut(out, start))
	return &Decoded{chunks: out, stride: base.stride}, m.neg, true
}

// runPool holds splice scratch: the merged items of every run of one
// splice accumulate in one runMerger, which no view ever sees, before
// place copies them out.
var runPool = sync.Pool{New: func() any { return new(runMerger) }}

// runMerger accumulates a splice's merged runs and where in the new
// chunk index each of their chunks goes.
type runMerger struct {
	st    *Storing
	w     int
	items []Item
	keys  []uint64
	slots []slot
	neg   bool
}

// slot is one new chunk: its position in the index and its item range
// in the scratch.
type slot struct{ at, lo, hi int }

// merge appends the sorted two-pointer merge of base items (with their
// keys) and the delta items of their key range; ok=false is a payload
// mismatch.
func (m *runMerger) merge(prev []Item, prevKeys []uint64, delta []Item) bool {
	w := m.w
	i, j := 0, 0
	for i < len(prev) || j < len(delta) {
		switch {
		case j >= len(delta) || (i < len(prev) && prev[i].Key < delta[j].Key):
			m.items = append(m.items, prev[i])
			m.keys = append(m.keys, prevKeys[i*w:(i+1)*w]...)
			i++
		case i >= len(prev) || delta[j].Key < prev[i].Key:
			m.add(delta[j])
			j++
		default: // same key on both sides
			pc, dc := prev[i].Count, delta[j].Count
			nc := pc + dc
			if nc != 0 {
				it := Item{Key: prev[i].Key, Count: nc}
				if pd := len(prev[i].Payload); pd > 0 {
					if len(delta[j].Payload) != pd {
						return false
					}
					p := make([]int64, pd)
					for x := 0; x < pd; x++ {
						num := pc*prev[i].Payload[x] + dc*delta[j].Payload[x]
						if num%nc != 0 {
							return false
						}
						p[x] = num / nc
					}
					it.Payload = p
				}
				m.add(it)
			}
			i++
			j++
		}
	}
	return true
}

// add appends an item the delta touched, keyed afresh.
func (m *runMerger) add(it Item) {
	m.neg = m.neg || it.Count < 0
	m.items = append(m.items, it)
	for x := 0; x < m.w; x++ {
		m.keys = append(m.keys, 0)
	}
	m.st.keyItem(m.keys[len(m.keys)-m.w:], &m.items[len(m.items)-1])
}

// cut closes the run of scratch items from start on: it appends
// placeholders for ⌈n/chunkCap⌉ near-equal chunks to out and records
// their slots.
func (m *runMerger) cut(out []chunk, start int) []chunk {
	n := len(m.items) - start
	k := (n + chunkCap - 1) / chunkCap
	for c := 0; c < k; c++ {
		m.slots = append(m.slots, slot{at: len(out), lo: start + c*n/k, hi: start + (c+1)*n/k})
		out = append(out, chunk{})
	}
	return out
}

// takeLast moves the chunk at the end of out into the open run, which
// starts at start, before its items. That chunk is always one
// shared with the base: a run is cut only before an untouched chunk.
func (m *runMerger) takeLast(out []chunk, start int) []chunk {
	last := out[len(out)-1]
	m.items = slices.Insert(m.items, start, last.items...)
	m.keys = slices.Insert(m.keys, start*m.w, last.keys...)
	return out[:len(out)-1]
}

// place copies the scratch into one exact-size item array and one key
// array and points every placeholder at its range of them.
func (m *runMerger) place(out []chunk) []chunk {
	items := make([]Item, len(m.items))
	keys := make([]uint64, len(m.keys))
	copy(items, m.items)
	copy(keys, m.keys)
	w := m.w
	for _, s := range m.slots {
		out[s.at] = chunk{items: items[s.lo:s.hi:s.hi], keys: keys[s.lo*w : s.hi*w : s.hi*w]}
	}
	return out
}

// release empties the scratch, dropping its payload references, and
// returns it to the pool.
func (m *runMerger) release() {
	clear(m.items)
	m.items, m.keys, m.slots = m.items[:0], m.keys[:0], m.slots[:0]
	m.st, m.neg = nil, false
	runPool.Put(m)
}
