// Package sketch implements the linear sketches behind the dynamic
// streaming algorithm of Section 4: an s-sparse recovery structure over
// keyed integer vectors, and the Storing(G_i, α, β, δ) subroutine of
// Lemma 4.2 built on top of it.
//
// A sparse-recovery sketch maintains, under arbitrary interleaved
// insertions and deletions, a vector x indexed by 64-bit field keys. If at
// decode time x has at most s nonzero entries, Decode recovers all of them
// exactly (with their integer payload vectors, e.g. point coordinates or
// cell indices) with high probability; otherwise it reports failure —
// never a wrong answer, matching the FAIL contract of Lemma 4.2.
package sketch

import (
	"math"
	"math/bits"
	"math/rand"

	"streambalance/internal/hashing"
)

// Item is one recovered nonzero entry of the sketched vector.
type Item struct {
	Key     uint64  // field key identifying the entry
	Count   int64   // net multiplicity after all insertions/deletions
	Payload []int64 // payload vector (count-weighted sums divided out)
}

// SparseRecovery is an s-sparse recovery sketch with an optional integer
// payload of fixed dimension attached to every key. All operations are
// linear, so the structure supports deletions (negative updates) natively
// and two sketches over the same hash functions can be merged by addition.
//
// Bucket state lives in one flat slab of int64 words, stride words per
// bucket: [count, keySum, fpSum, payload...]. keySum = Σ count·key and
// fpSum = Σ count·fp(key) are GF(p) elements (p = 2^61 − 1 < 2^63, so they
// fit in the signed words); keeping the payload inline in the same slab
// means Update touches one contiguous run of memory per row — the sketch
// update is the ingest hot path, and the pointer-chasing bucket-of-slices
// layout this replaces paid roughly twice the cache misses per op.
type SparseRecovery struct {
	s          int // sparsity budget
	rows       int
	width      int
	payloadDim int
	stride     int // int64 words per bucket: 3 + payloadDim

	rowHash []*hashing.KWise // bucket placement, one per row
	fpHash  *hashing.KWise   // key fingerprint shared by all rows

	slab []int64 // rows × width buckets, stride words each

	// Dirty-bucket journal for the differential decode (DESIGN.md §13).
	// While track is set, every bucket whose words may have changed since
	// the last snapshot is appended to dirty (duplicates allowed — writes
	// are idempotent to replay). The journal lets DecodeDeltaWith fill,
	// peel, verify and re-zero only the changed buckets, and SnapshotInto
	// refresh only those buckets, making a splice O(dirty) instead of
	// O(slab). When the journal outgrows dirtyCap the sketch flips to
	// trackDense — "changed too much to enumerate" — and the splice falls
	// back to the full-residual peel. The journal is derived state: absent
	// from Bytes and Digest.
	track      bool
	trackDense bool
	dirty      []int32

	scr *updScratch // lazily allocated batch-kernel scratch; never shared
}

// updScratch holds the reusable buffers of the bucket-ordered batch
// kernel (updateOrderedN). It is private to one SparseRecovery — updates
// must not run concurrently on one sketch (the Storing contract) — so no
// synchronization is needed.
type updScratch struct {
	rk   []uint64 // reduced keys
	fe   []uint64 // fingerprint evaluations
	dk   []uint64 // ToField(delta)·key terms
	dfp  []uint64 // ToField(delta)·fp(key) terms
	he   []uint64 // row-hash evaluations, one row at a time
	bkt  []int32  // bucket target per item for the current row
	perm []int32  // counting-sort permutation (bucket-ascending item order)
	cnt  []int32  // per-bucket counters / running positions, width entries
}

func (sr *SparseRecovery) scratch(n int) *updScratch {
	s := sr.scr
	if s == nil {
		s = new(updScratch)
		sr.scr = s
	}
	if cap(s.rk) < n {
		s.rk = make([]uint64, n)
		s.fe = make([]uint64, n)
		s.dk = make([]uint64, n)
		s.dfp = make([]uint64, n)
		s.he = make([]uint64, n)
		s.bkt = make([]int32, n)
		s.perm = make([]int32, n)
	}
	if cap(s.cnt) < sr.width {
		s.cnt = make([]int32, sr.width)
	}
	return s
}

// orderedMinRows is the batch size below which the bucket-ordering
// pass (hash columns + per-row counting sort) costs more than the
// cache locality it buys; small batches take the 4-lane scatter path.
const orderedMinRows = 64

// useOrdered reports whether a batch of n updates should go through the
// bucket-ordered kernel: the batch must be large in absolute terms and
// relative to the bucket row (zeroing width counters per row has to
// amortize over the items).
func (sr *SparseRecovery) useOrdered(n int) bool {
	return n >= orderedMinRows && n*8 >= sr.width
}

// NewSparseRecovery creates a sketch that recovers any vector with at most
// s nonzero keys with failure probability ≈ δ. payloadDim is the length of
// the payload vector attached to each key (0 for none).
func NewSparseRecovery(rng *rand.Rand, s int, delta float64, payloadDim int) *SparseRecovery {
	sr := drawSparseRecovery(rng, s, delta, payloadDim)
	sr.allocSlab()
	return sr
}

// allocSlab gives a drawn sketch its zeroed bucket state.
func (sr *SparseRecovery) allocSlab() { sr.slab = make([]int64, sr.rows*sr.width*sr.stride) }

// drawSparseRecovery is NewSparseRecovery without the slab: it draws the
// hash functions from rng — every draw the sketch takes — and sizes the
// table, but allocates no bucket state.
func drawSparseRecovery(rng *rand.Rand, s int, delta float64, payloadDim int) *SparseRecovery {
	if s < 1 {
		s = 1
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.01
	}
	// Peeling over independent rows of 2s buckets is an IBLT-style
	// hypergraph core computation: at load factor 1/2 per row, 4 rows
	// decode an s-sparse vector with high probability, and each extra row
	// multiplies the failure probability by a constant < 1/4.
	rows := 4
	if extra := int(math.Ceil(math.Log2(0.01/delta) / 4)); extra > 0 {
		rows += extra
	}
	invTabOnce.Do(initInvTab) // purity tests use the small-count inverse table
	sr := &SparseRecovery{
		s:          s,
		rows:       rows,
		width:      2 * s,
		payloadDim: payloadDim,
		stride:     3 + payloadDim,
		rowHash:    make([]*hashing.KWise, rows),
		fpHash:     hashing.NewKWise(rng, 4),
	}
	for r := 0; r < rows; r++ {
		sr.rowHash[r] = hashing.NewKWise(rng, 2)
	}
	return sr
}

// Sparsity returns the sparsity budget s.
func (sr *SparseRecovery) Sparsity() int { return sr.s }

// dirtyCap bounds the journal: past a quarter of the buckets (plus a
// floor for tiny sketches) enumerating changes buys nothing over a full
// slab pass, so the sketch flips to densely-dirty instead.
func (sr *SparseRecovery) dirtyCap() int { return sr.rows*sr.width/4 + 64 }

// markDirty journals one changed bucket; callers guard on sr.track.
func (sr *SparseRecovery) markDirty(bi int) {
	if sr.trackDense {
		return
	}
	if len(sr.dirty) >= sr.dirtyCap() {
		sr.trackDense = true
		sr.dirty = sr.dirty[:0]
		return
	}
	sr.dirty = append(sr.dirty, int32(bi))
}

// StartDirtyTracking (re)starts the journal from the present state —
// called right after a snapshot, so that journal ⊇ {buckets differing
// from the snapshot} holds from here on.
func (sr *SparseRecovery) StartDirtyTracking() {
	sr.track, sr.trackDense, sr.dirty = true, false, sr.dirty[:0]
}

// StopDirtyTracking turns the journal off and releases it.
func (sr *SparseRecovery) StopDirtyTracking() {
	sr.track, sr.trackDense, sr.dirty = false, false, nil
}

// DirtySparse reports whether the journal is live and usable — i.e.
// the set of buckets changed since the last snapshot is exactly
// enumerated by it.
func (sr *SparseRecovery) DirtySparse() bool { return sr.track && !sr.trackDense }

// DirtyJournalBytes reports the journal's memory footprint (derived
// state, counted by Storing.CacheBytes alongside the snapshots).
func (sr *SparseRecovery) DirtyJournalBytes() int64 { return int64(cap(sr.dirty)) * 4 }

// bucketOf maps a row-hash value h ∈ [0, p) to a bucket in [0, width) with
// a Lemire multiply-shift instead of a 64-bit modulo — the modulo was a
// measurable slice of the per-update cost. Shifting h to the top of the
// 64-bit range first keeps the map near-uniform.
func bucketOf(h uint64, width int) int {
	hi, _ := bits.Mul64(h<<3, uint64(width))
	return int(hi)
}

// Update applies x[key] += delta, with the payload vector scaled by delta.
// payload must have length payloadDim (nil allowed when payloadDim == 0).
// It is the one-row form of UpdateScaledN.
func (sr *SparseRecovery) Update(key uint64, payload []int64, delta int64) {
	if delta == 0 {
		return
	}
	// A stack buffer covers every grid dimension the CLIs use; wider
	// payloads pay one allocation per call.
	var buf [8]int64
	scaled := buf[:0]
	if len(payload) > len(buf) {
		scaled = make([]int64, 0, len(payload))
	}
	for _, v := range payload {
		scaled = append(scaled, delta*v)
	}
	if len(scaled) != sr.payloadDim {
		panic("sketch: Update payload length mismatch")
	}
	// One row is always below the ordered-schedule threshold.
	sr.updateLanesN([]uint64{key}, scaled, []int64{delta})
}

// UpdateScaledN applies a column of pre-aggregated updates: x[keys[t]] +=
// deltas[t], with the payload row scaled[t*payloadDim:(t+1)*payloadDim]
// added verbatim (scaled may be nil when payloadDim == 0). A row is
// already delta-scaled — Σ dᵢ·payloadᵢ over the ops coalesced into it,
// with deltas[t] = Σ dᵢ — as the ingest key-coalescer produces them. A
// zero-delta row is still applied: its field terms vanish (ToField(0)·x
// = 0) but its payload sum may not, exactly as the constituent per-op
// updates would have written it.
//
// Bucket state is a sum of exact field and integer terms — ToField
// distributes over signed sums mod p, and every slab word is an exact
// commutative sum — so the result is bit-identical to applying the
// constituent updates one at a time in any order. That frees the kernel
// to pick its write schedule from the batch size: large batches go
// through the bucket-ordered kernel (updateOrderedN), whose slab writes
// run row-major in bucket-sorted order instead of scattering, and small
// batches through the 4-lane scatter path (updateLanesN).
func (sr *SparseRecovery) UpdateScaledN(keys []uint64, scaled []int64, deltas []int64) {
	n := len(keys)
	if len(deltas) != n {
		panic("sketch: UpdateScaledN column length mismatch")
	}
	if sr.payloadDim > 0 && len(scaled) != n*sr.payloadDim {
		panic("sketch: UpdateScaledN payload column length mismatch")
	}
	if sr.useOrdered(n) {
		sr.updateOrderedN(keys, scaled, deltas)
		return
	}
	sr.updateLanesN(keys, scaled, deltas)
}

// updateLanesN is the 4-lane scatter path of UpdateScaledN: full blocks
// batch the fingerprint and row-hash evaluations through the interleaved
// Horner kernels, breaking the per-key multiply dependency chain; the
// ragged tail (and a one-row Update) evaluates one key at a time. Slab
// writes land wherever the row hashes point — fine for small batches,
// cache-hostile for large ones (see updateOrderedN).
func (sr *SparseRecovery) updateLanesN(keys []uint64, scaled []int64, deltas []int64) {
	n := len(keys)
	pd := sr.payloadDim
	t := 0
	for ; t+4 <= n; t += 4 {
		k0 := hashing.Reduce64(keys[t])
		k1 := hashing.Reduce64(keys[t+1])
		k2 := hashing.Reduce64(keys[t+2])
		k3 := hashing.Reduce64(keys[t+3])
		f0, f1, f2, f3 := sr.fpHash.Eval4(k0, k1, k2, k3)
		lk := [4]uint64{k0, k1, k2, k3}
		lf := [4]uint64{f0, f1, f2, f3}
		var ldk, ldfp [4]uint64
		for l := 0; l < 4; l++ {
			df := hashing.ToField(deltas[t+l])
			ldk[l] = hashing.MulMod(df, lk[l])
			ldfp[l] = hashing.MulMod(df, lf[l])
		}
		for r := 0; r < sr.rows; r++ {
			h0, h1, h2, h3 := sr.rowHash[r].Eval4(k0, k1, k2, k3)
			lc := [4]int{
				bucketOf(h0, sr.width), bucketOf(h1, sr.width),
				bucketOf(h2, sr.width), bucketOf(h3, sr.width),
			}
			// Sequential writes: two lanes may land in the same bucket,
			// and exact commutative sums make any write order identical.
			for l := 0; l < 4; l++ {
				if sr.track {
					sr.markDirty(r*sr.width + lc[l])
				}
				b := sr.slab[(r*sr.width+lc[l])*sr.stride:][:sr.stride:sr.stride]
				b[0] += deltas[t+l]
				b[1] = int64(hashing.AddMod(uint64(b[1]), ldk[l]))
				b[2] = int64(hashing.AddMod(uint64(b[2]), ldfp[l]))
				for j, v := range scaled[(t+l)*pd : (t+l+1)*pd] {
					b[3+j] += v
				}
			}
		}
	}
	for ; t < n; t++ {
		k := hashing.Reduce64(keys[t])
		df := hashing.ToField(deltas[t])
		dk := hashing.MulMod(df, k)
		dfp := hashing.MulMod(df, sr.fpHash.Eval(k))
		row := scaled[t*pd : (t+1)*pd]
		for r := 0; r < sr.rows; r++ {
			c := bucketOf(sr.rowHash[r].Eval(k), sr.width)
			if sr.track {
				sr.markDirty(r*sr.width + c)
			}
			b := sr.slab[(r*sr.width+c)*sr.stride:][:sr.stride:sr.stride]
			b[0] += deltas[t]
			b[1] = int64(hashing.AddMod(uint64(b[1]), dk))
			b[2] = int64(hashing.AddMod(uint64(b[2]), dfp))
			for j, v := range row {
				b[3+j] += v
			}
		}
	}
}

// updateOrderedN applies a batch with bucket-ordered slab traffic. The
// hash columns — reduced keys, fingerprints, per-row bucket targets —
// are precomputed through the 4-lane EvalN kernels, then each row's
// writes are applied in bucket-ascending order via a counting-sort
// permutation: the slab is touched row-major, sequentially within each
// row, instead of one random bucket per (op × row). Duplicate keys in
// the batch land adjacently, so their bucket lines are written while
// still hot. Write order is irrelevant to the exact commutative sums in
// the slab, so the result is bit-identical to the scatter path
// (TestUpdateNOrderedMatchesScatter, FuzzCoalescedIngestMatchesSerial).
func (sr *SparseRecovery) updateOrderedN(keys []uint64, scaled []int64, deltas []int64) {
	n := len(keys)
	s := sr.scratch(n)
	rk, fe := s.rk[:n], s.fe[:n]
	for t, k := range keys {
		rk[t] = hashing.Reduce64(k)
	}
	sr.fpHash.EvalN(fe, rk)
	dk, dfp := s.dk[:n], s.dfp[:n]
	for t := range rk {
		df := hashing.ToField(deltas[t])
		dk[t] = hashing.MulMod(df, rk[t])
		dfp[t] = hashing.MulMod(df, fe[t])
	}
	pd, stride, width := sr.payloadDim, sr.stride, sr.width
	he, bkt, perm, cnt := s.he[:n], s.bkt[:n], s.perm[:n], s.cnt[:width]
	for r := 0; r < sr.rows; r++ {
		sr.rowHash[r].EvalN(he, rk)
		for i := range cnt {
			cnt[i] = 0
		}
		for t := range he {
			c := int32(bucketOf(he[t], width))
			bkt[t] = c
			cnt[c]++
		}
		var pos int32
		for c := range cnt {
			k := cnt[c]
			cnt[c] = pos
			pos += k
		}
		for t := range bkt {
			c := bkt[t]
			perm[cnt[c]] = int32(t)
			cnt[c]++
		}
		row := sr.slab[r*width*stride : (r+1)*width*stride]
		lastDirty := int32(-1)
		for _, t32 := range perm {
			t := int(t32)
			// perm is bucket-ascending, so duplicate keys journal once.
			if sr.track && bkt[t] != lastDirty {
				lastDirty = bkt[t]
				sr.markDirty(r*width + int(lastDirty))
			}
			b := row[int(bkt[t])*stride:][:stride:stride]
			b[0] += deltas[t]
			b[1] = int64(hashing.AddMod(uint64(b[1]), dk[t]))
			b[2] = int64(hashing.AddMod(uint64(b[2]), dfp[t]))
			for j, v := range scaled[t*pd : (t+1)*pd] {
				b[3+j] += v
			}
		}
	}
}

// SnapshotSlab copies the current bucket slab into dst (grown if
// needed) and returns it. A snapshot is the base of a later
// DecodeDeltaWith: by linearity, cur − snapshot sketches exactly the
// updates applied in between. The snapshot is plain memory — it never
// aliases the live slab, so subsequent updates leave it untouched.
func (sr *SparseRecovery) SnapshotSlab(dst []int64) []int64 {
	if cap(dst) < len(sr.slab) {
		dst = make([]int64, len(sr.slab))
	}
	dst = dst[:len(sr.slab)]
	copy(dst, sr.slab)
	return dst
}

// RefreshSnapshot brings a snapshot previously taken by SnapshotSlab up
// to the current state and restarts the journal. With a live sparse
// journal only the journaled buckets are copied — every other bucket is
// unchanged since the snapshot by the journal invariant, O(dirty)
// instead of O(slab); otherwise it falls back to the full copy. Either
// way the returned snapshot equals the current slab verbatim.
func (sr *SparseRecovery) RefreshSnapshot(dst []int64) []int64 {
	if sr.DirtySparse() && len(dst) == len(sr.slab) {
		stride := sr.stride
		for _, b32 := range sr.dirty {
			off := int(b32) * stride
			copy(dst[off:off+stride], sr.slab[off:off+stride])
		}
		sr.StartDirtyTracking()
		return dst
	}
	dst = sr.SnapshotSlab(dst)
	sr.StartDirtyTracking()
	return dst
}

// Digest folds the full bucket state into one 64-bit value. Two sketches
// sharing hash functions have equal digests iff their slabs are
// bit-identical — the check the batched-ingestion equivalence tests use.
func (sr *SparseRecovery) Digest() uint64 {
	var d uint64
	for _, v := range sr.slab {
		d = hashing.Mix64(d ^ uint64(v))
	}
	return d
}

// Bytes reports the memory footprint of the bucket state in bytes — the
// quantity the streaming space accounting of Theorem 4.5 measures.
func (sr *SparseRecovery) Bytes() int64 {
	return int64(len(sr.slab)) * 8
}
