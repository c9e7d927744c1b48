package sketch

import (
	"slices"

	"streambalance/internal/hashing"
)

// Test oracles for SparseRecovery: a row-at-a-time slab writer the
// batch kernels are pinned against, and the round-based rescan decoder
// the worklist decoder replaced. Both are written straight from the
// bucket layout; they share only the hash functions and bucketOf with
// the production write and decode paths. Beside them, empty siblings
// (cloneEmpty) and the slab sum (addSlab, addStoring) that the linearity
// tests add one sketch into another with.

// scalarWrite adds one pre-scaled row (the UpdateScaledN contract:
// payload words added verbatim, zero-delta rows applied) to every row
// of sr's slab, one bucket at a time. It never journals.
func scalarWrite(sr *SparseRecovery, key uint64, scaled []int64, delta int64) {
	key = hashing.Reduce64(key)
	df := hashing.ToField(delta)
	dk := hashing.MulMod(df, key)
	dfp := hashing.MulMod(df, sr.fpHash.Eval(key))
	for r := 0; r < sr.rows; r++ {
		c := bucketOf(sr.rowHash[r].Eval(key), sr.width)
		b := sr.slab[(r*sr.width+c)*sr.stride:][:sr.stride:sr.stride]
		b[0] += delta
		b[1] = int64(hashing.AddMod(uint64(b[1]), dk))
		b[2] = int64(hashing.AddMod(uint64(b[2]), dfp))
		for j := 0; j < sr.payloadDim; j++ {
			b[3+j] += scaled[j]
		}
	}
}

// scalarWriteN applies a scaled batch row by row through scalarWrite.
func scalarWriteN(sr *SparseRecovery, keys []uint64, scaled []int64, deltas []int64) {
	pd := sr.payloadDim
	for t := range keys {
		scalarWrite(sr, keys[t], scaled[t*pd:(t+1)*pd], deltas[t])
	}
}

// scalarUpdateN applies an unscaled batch (payload rows multiplied by
// their delta, as Update does) row by row through scalarWrite.
func scalarUpdateN(sr *SparseRecovery, keys []uint64, payload []int64, deltas []int64) {
	pd := sr.payloadDim
	row := make([]int64, pd)
	for t := range keys {
		for j := range row {
			row[j] = deltas[t] * payload[t*pd+j]
		}
		scalarWrite(sr, keys[t], row, deltas[t])
	}
}

// scaleRows returns payload with every row multiplied by its delta —
// the UpdateScaledN form of an unscaled batch.
func scaleRows(payload []int64, deltas []int64, pd int) []int64 {
	if pd == 0 {
		return nil
	}
	out := make([]int64, len(payload))
	for t, d := range deltas {
		for j := 0; j < pd; j++ {
			out[t*pd+j] = d * payload[t*pd+j]
		}
	}
	return out
}

// cloneEmpty returns a zeroed sketch sharing sr's hash functions: a
// sibling that sketches a second stream, for comparison with sr or for
// addSlab.
func (sr *SparseRecovery) cloneEmpty() *SparseRecovery {
	cp := *sr
	cp.slab = make([]int64, len(sr.slab))
	cp.scr = nil
	cp.track, cp.trackDense, cp.dirty = false, false, nil
	return &cp
}

// cloneEmpty returns a zeroed Storing sharing st's hash functions.
func (st *Storing) cloneEmpty() *Storing {
	return &Storing{g: st.g, level: st.level, kind: st.kind, fp: st.fp, sr: st.sr.cloneEmpty()}
}

// addSlab adds a cloneEmpty sibling's buckets into sr, journaling every
// bucket it changes like any other write. By linearity the sum sketches
// both streams interleaved.
func addSlab(sr, other *SparseRecovery) {
	for i := 0; i < len(sr.slab); i += sr.stride {
		a, b := sr.slab[i:i+sr.stride], other.slab[i:i+sr.stride]
		if sr.track && slices.ContainsFunc(b, func(w int64) bool { return w != 0 }) {
			sr.markDirty(i / sr.stride)
		}
		a[0] += b[0]
		a[1] = int64(hashing.AddMod(uint64(a[1]), uint64(b[1])))
		a[2] = int64(hashing.AddMod(uint64(a[2]), uint64(b[2])))
		for j := 3; j < sr.stride; j++ {
			a[j] += b[j]
		}
	}
}

// addStoring adds a cloneEmpty sibling's state into st as one mutation:
// the next Result sees it stale and, with a base, splices it.
func addStoring(st, other *Storing) {
	addSlab(st.sr, other.sr)
	st.netUpdates += other.netUpdates
	st.epoch++
}

// clone deep-copies the bucket state (hash functions shared).
func (sr *SparseRecovery) clone() *SparseRecovery {
	cp := sr.cloneEmpty()
	copy(cp.slab, sr.slab)
	return cp
}

// pureAt checks whether the bucket slab words b hold exactly one key and,
// if so, extracts it. Every verification — fingerprint, then payload
// divisibility — runs before the payload slice is materialized, so an
// impure candidate costs no allocation (the worklist decoder's pureKeyAt
// keeps the same ordering).
func (sr *SparseRecovery) pureAt(b []int64) (Item, bool) {
	count := b[0]
	if count == 0 {
		return Item{}, false
	}
	cf := hashing.ToField(count)
	if cf == 0 {
		return Item{}, false
	}
	key := hashing.MulMod(uint64(b[1]), hashing.InvMod(cf))
	if hashing.MulMod(cf, sr.fpHash.Eval(key)) != uint64(b[2]) {
		return Item{}, false
	}
	for j := 0; j < sr.payloadDim; j++ {
		if b[3+j]%count != 0 {
			return Item{}, false
		}
	}
	var payload []int64
	if sr.payloadDim > 0 {
		payload = make([]int64, sr.payloadDim)
		for j := range payload {
			payload[j] = b[3+j] / count
		}
	}
	return Item{Key: key, Count: count, Payload: payload}, true
}

// DecodeReference is the round-based reference decoder: full-slab
// rescan rounds over a cloned working copy, one purity probe per bucket
// per round, each peeled item subtracted with scalarWrite. The worklist
// decoder (decode.go) is pinned against it — bit-identical items,
// ok-flag and FAIL cases.
func (sr *SparseRecovery) DecodeReference() (items []Item, ok bool) {
	w := sr.clone()
	for {
		progress := false
		for r := 0; r < w.rows && len(items) <= w.s; r++ {
			for c := 0; c < w.width; c++ {
				it, pure := w.pureAt(w.slab[(r*w.width+c)*w.stride:][:w.stride])
				if !pure {
					continue
				}
				items = append(items, it)
				neg := make([]int64, len(it.Payload))
				for j, v := range it.Payload {
					neg[j] = -it.Count * v
				}
				scalarWrite(w, it.Key, neg, -it.Count)
				progress = true
			}
		}
		if len(items) > w.s {
			return nil, false
		}
		if !progress {
			break
		}
	}
	for i := 0; i < len(w.slab); i += w.stride {
		if w.slab[i] != 0 || w.slab[i+1] != 0 {
			return nil, false
		}
	}
	return items, true
}
