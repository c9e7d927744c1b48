// Batched, shared-key ingestion pipeline (the fast path behind
// Stream.Apply and Auto.Apply).
//
// Every stream update fans out to 3 substreams × (L+1) grid levels — and,
// under guess enumeration, × G guess instances. The per-op inputs those
// fan-out targets need are all derivable from two quantities: the op's
// fingerprint key (sampling decisions and point identity) and its cell
// index per level (cell keys and cell payloads). A batch precomputes both
// as columns, once per op:
//
//   - fkey[t]            — fingerprint key of op t,
//   - baseIdx[t·d : …]   — the level-L cell index (p + shift, exactly),
//   - cellKey[t·(L+1)+i] — the level-i cell key, derived bottom-up: the
//     level-(i−1) index is the level-i index shifted right one bit
//     (grid.ParentIndex), so all L+1 keys take one fingerprint per level
//     instead of one CellIndex + KeyOf pair per level per sketch.
//
// Coarser cell indices are reconstructed from baseIdx by a bit shift at
// application time, only when a sampler actually selects the op, so the
// batch stores one index vector per op rather than L+1.
//
// Because every sketch is linear over GF(p) and int64 counters — both
// exact, commutative, associative — applying a batch level-by-level, or
// sharding levels across goroutines, yields bit-identical sketch state to
// replaying the ops one at a time in stream order. TestApplyMatchesPerOp
// enforces this.
package stream

import (
	"runtime"
	"sync"
	"sync/atomic"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
)

// Coalesce-ratio telemetry (DESIGN.md §9/§12): per substream, how many
// sampled ops went into the key-coalescer and how many distinct-key rows
// came out. The ratio in/out is the slab-write fan-in the coalescer
// eliminated; it is largest at coarse grid levels, where a whole batch
// maps to a handful of cells. Tallies are accumulated locally per
// applyLevels call and added once per substream — nothing per op.
var (
	vCoalesceIn  = obs.CV("stream_coalesce_ops_in_total", "substream")
	vCoalesceOut = obs.CV("stream_coalesce_keys_out_total", "substream")

	mCoalesceIn = [3]*obs.Counter{
		vCoalesceIn.With("h"), vCoalesceIn.With("hp"), vCoalesceIn.With("hat"),
	}
	mCoalesceOut = [3]*obs.Counter{
		vCoalesceOut.With("h"), vCoalesceOut.With("hp"), vCoalesceOut.With("hat"),
	}
)

// coalesceOn gates the key-coalescing stage of applyLevels (on by
// default). Coalesced and un-coalesced application are bit-identical —
// the sketches are exact linear sums — so the knob exists only for perf
// A/B runs and the equivalence/fuzz suites. Do not flip it while an
// Apply is in flight.
var coalesceOn = func() *atomic.Bool {
	var b atomic.Bool
	b.Store(true)
	return &b
}()

// SetCoalesce enables or disables ingest key-coalescing, returning the
// previous setting.
func SetCoalesce(on bool) bool { return coalesceOn.Swap(on) }

// batch holds the columnar precomputation for a slice of ops against one
// grid + fingerprint pair. Buffers are reused across builds.
type batch struct {
	ops     []Op
	pts     []geo.Point // point column (ops[t].P), input to grid.CellIndexN
	sign    []int64     // +1 insert, −1 delete, per op
	fkey    []uint64    // fingerprint key per op
	baseIdx []int64     // level-L cell index per op, Dim entries each
	cellKey []uint64    // cell key per op per level, L+1 entries each
}

// build fills the batch's columns for ops. The grid and fingerprint must
// be the ones every consuming Stream shares.
//
// The two field-arithmetic columns — fingerprint keys and per-level cell
// keys — run through the 4-lane kernels (hashing.Key4, grid.ParentKeys4):
// four ops' Rabin–Karp chains are interleaved per block, so the column
// build is bounded by multiplier throughput rather than the serial
// multiply latency of one chain. The ragged tail (< 4 ops) takes the
// scalar path; both paths are bit-identical, so batch boundaries cannot
// change any key.
func (b *batch) build(g *grid.Grid, fp *hashing.Fingerprint, ops []Op) {
	n, dim, L := len(ops), g.Dim, g.L
	b.ops = ops
	b.pts = growPts(b.pts, n)
	b.sign = growInt64(b.sign, n)
	b.fkey = growUint64(b.fkey, n)
	b.baseIdx = growInt64(b.baseIdx, n*dim)
	b.cellKey = growUint64(b.cellKey, n*(L+1))
	for t := range ops {
		if ops[t].Delete {
			b.sign[t] = -1
		} else {
			b.sign[t] = +1
		}
		b.pts[t] = ops[t].P
	}
	// Columnar cell indexing: level and destination bounds validated once
	// for the whole batch (grid.CellIndexN), not once per op.
	g.CellIndexN(b.baseIdx, b.pts, L)
	scratch := make([]int64, 4*dim)
	s0, s1, s2, s3 := scratch[0*dim:1*dim], scratch[1*dim:2*dim], scratch[2*dim:3*dim], scratch[3*dim:4*dim]
	ck := func(t int) []uint64 { return b.cellKey[t*(L+1) : (t+1)*(L+1)] }
	t := 0
	for ; t+4 <= n; t += 4 {
		b.fkey[t], b.fkey[t+1], b.fkey[t+2], b.fkey[t+3] =
			fp.Key4(ops[t].P, ops[t+1].P, ops[t+2].P, ops[t+3].P)
		copy(s0, b.baseIdx[(t+0)*dim:])
		copy(s1, b.baseIdx[(t+1)*dim:])
		copy(s2, b.baseIdx[(t+2)*dim:])
		copy(s3, b.baseIdx[(t+3)*dim:])
		g.ParentKeys4(ck(t), ck(t+1), ck(t+2), ck(t+3), s0, s1, s2, s3, L)
	}
	for ; t < n; t++ {
		b.fkey[t] = fp.Key(ops[t].P)
		copy(s0, b.baseIdx[t*dim:(t+1)*dim])
		g.ParentKeys(ck(t), s0, L)
	}
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growPts(s []geo.Point, n int) []geo.Point {
	if cap(s) < n {
		return make([]geo.Point, n)
	}
	return s[:n]
}

// applyScratch is the per-call working set of applyLevels: selection
// masks, gather columns and the key-coalescer. applyLevels runs
// concurrently on disjoint level ranges of the same Stream, so scratch
// cannot live on s; a sync.Pool keeps the allocations off the per-batch
// path instead.
type applyScratch struct {
	sel     []bool
	keys    []uint64
	payload []int64
	deltas  []int64
	co      coalescer
}

var applyScratchPool = sync.Pool{New: func() any { return new(applyScratch) }}

// applyLevels applies the batch to sketch levels lo..hi of s. Distinct
// level ranges of the same Stream touch disjoint sketch state (each level
// owns its sketches), so they may run concurrently; the net counter s.n is
// the caller's responsibility. Level-major order keeps one level's sketch
// slabs hot in cache across the whole batch.
//
// Per level the three samplers run over the whole fingerprint-key column
// through the 4-lane Bernoulli kernel (SampleN); each substream's
// selected ops are then COALESCED by key — deltas summed, payloads
// summed delta-scaled, one output row per distinct key — and fed to
// Storing.UpdateKeyedScaledN. At coarse levels a whole batch collapses
// to a handful of cell rows, so the sketch pays one slab visit and one
// row-hash evaluation per distinct cell instead of per op. Sketch state
// is an exact linear sum, so both the coalescing and the bucket-ordered
// write schedule behind UpdateScaledN are bit-identical to the per-op
// path (TestApplyMatchesPerOp, FuzzCoalescedIngestMatchesSerial,
// FuzzForkMerge).
func (s *Stream) applyLevels(b *batch, lo, hi int) {
	g := s.g
	L, dim := g.L, g.Dim
	n := len(b.ops)
	sc := applyScratchPool.Get().(*applyScratch)
	defer applyScratchPool.Put(sc)
	sel := growBool(sc.sel, 3*n)
	sc.sel = sel
	selH, selHp, selHat := sel[0:n], sel[n:2*n], sel[2*n:3*n]
	coalesce := coalesceOn.Load()
	var nSel int64           // sampled sketch updates; one atomic add per shard
	var coIn, coOut [3]int64 // coalesce tallies per substream (h, hp, hat)
	for i := lo; i <= hi; i++ {
		sh := uint(L - i)
		if i <= L-1 {
			s.hSamp[i].SampleN(selH, b.fkey)
			if coalesce {
				in := sc.co.coalesceCells(b, selH, i, L, dim, sh)
				s.hStore[i].UpdateKeyedScaledN(sc.co.keys, sc.co.scaled, nil, nil, sc.co.deltas)
				nSel += in
				coIn[0] += in
				coOut[0] += int64(len(sc.co.deltas))
			} else {
				sc.keys, sc.payload, sc.deltas = gatherCells(b, selH, i, L, dim, sh, sc.keys[:0], sc.payload[:0], sc.deltas[:0])
				s.hStore[i].UpdateKeyedN(sc.keys, sc.payload, nil, nil, sc.deltas)
				nSel += int64(len(sc.deltas))
			}
		}
		s.hpSamp[i].SampleN(selHp, b.fkey)
		if coalesce {
			in := sc.co.coalesceCells(b, selHp, i, L, dim, sh)
			s.hpStore[i].UpdateKeyedScaledN(sc.co.keys, sc.co.scaled, nil, nil, sc.co.deltas)
			nSel += in
			coIn[1] += in
			coOut[1] += int64(len(sc.co.deltas))
		} else {
			sc.keys, sc.payload, sc.deltas = gatherCells(b, selHp, i, L, dim, sh, sc.keys[:0], sc.payload[:0], sc.deltas[:0])
			s.hpStore[i].UpdateKeyedN(sc.keys, sc.payload, nil, nil, sc.deltas)
			nSel += int64(len(sc.deltas))
		}

		s.hatSamp[i].SampleN(selHat, b.fkey)
		if coalesce {
			in := sc.co.coalescePoints(b, selHat, dim)
			s.hatStore[i].UpdateKeyedScaledN(nil, nil, sc.co.keys, sc.co.scaled, sc.co.deltas)
			nSel += in
			coIn[2] += in
			coOut[2] += int64(len(sc.co.deltas))
		} else {
			sc.keys, sc.payload, sc.deltas = gatherPoints(b, selHat, sc.keys[:0], sc.payload[:0], sc.deltas[:0])
			s.hatStore[i].UpdateKeyedN(nil, nil, sc.keys, sc.payload, sc.deltas)
			nSel += int64(len(sc.deltas))
		}
	}
	mSketchUpdates.Add(nSel)
	if coalesce && obs.Enabled() {
		for k := 0; k < 3; k++ {
			mCoalesceIn[k].Add(coIn[k])
			mCoalesceOut[k].Add(coOut[k])
		}
	}
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// coalescer aggregates a substream's sampled (key, payload, delta) rows
// by key before they hit the sketch: deltas are summed and payloads are
// summed delta-scaled, exactly, so the output columns applied through
// UpdateKeyedScaledN reproduce the un-coalesced sketch state bit for
// bit. The table is open-addressed (linear probing at load ≤ 1/2) over
// generation-stamped slots, so resetting between substreams is one
// counter bump, not a memset; all buffers are reused across calls via
// the applyScratch pool.
type coalescer struct {
	gen     uint32
	slotGen []uint32 // stamp per table slot; != gen means empty
	slot    []int32  // table slot -> row index in the output columns
	mask    uint64

	keys   []uint64 // distinct keys, first-occurrence order
	scaled []int64  // delta-scaled payload sums, payload-dim words per row
	deltas []int64  // summed deltas per row
}

// reset prepares the coalescer for up to n input rows.
func (c *coalescer) reset(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	if len(c.slot) < size {
		c.slot = make([]int32, size)
		c.slotGen = make([]uint32, size)
		c.gen = 0
	}
	c.gen++
	if c.gen == 0 { // generation wrapped: stamps are ambiguous, clear them
		clear(c.slotGen)
		c.gen = 1
	}
	c.mask = uint64(len(c.slot) - 1)
	c.keys = c.keys[:0]
	c.scaled = c.scaled[:0]
	c.deltas = c.deltas[:0]
}

// slotOf returns the output-row index for key, appending a fresh
// zeroed row (dim payload words) on first occurrence.
func (c *coalescer) slotOf(key uint64, dim int) int {
	h := hashing.Mix64(key) & c.mask
	for {
		if c.slotGen[h] != c.gen {
			si := int32(len(c.deltas))
			c.slotGen[h] = c.gen
			c.slot[h] = si
			c.keys = append(c.keys, key)
			c.deltas = append(c.deltas, 0)
			for j := 0; j < dim; j++ {
				c.scaled = append(c.scaled, 0)
			}
			return int(si)
		}
		if si := c.slot[h]; c.keys[si] == key {
			return int(si)
		}
		h = (h + 1) & c.mask
	}
}

// coalesceCells aggregates one level's selected cell updates: key is the
// precomputed level-i cell key, payload the level-i index (base index
// shifted down by sh), delta the op sign. Returns the number of ops
// consumed (the coalesce-ratio numerator).
func (c *coalescer) coalesceCells(b *batch, sel []bool, level, L, dim int, sh uint) int64 {
	c.reset(len(b.ops))
	var in int64
	for t := range b.ops {
		if !sel[t] {
			continue
		}
		in++
		si := c.slotOf(b.cellKey[t*(L+1)+level], dim)
		sign := b.sign[t]
		c.deltas[si] += sign
		base := b.baseIdx[t*dim : (t+1)*dim]
		row := c.scaled[si*dim : (si+1)*dim]
		if sign > 0 {
			for j := 0; j < dim; j++ {
				row[j] += base[j] >> sh
			}
		} else {
			for j := 0; j < dim; j++ {
				row[j] -= base[j] >> sh
			}
		}
	}
	return in
}

// coalescePoints aggregates the selected point updates of the ĥ
// substream: key is the op's fingerprint key, payload its coordinates.
func (c *coalescer) coalescePoints(b *batch, sel []bool, dim int) int64 {
	c.reset(len(b.ops))
	var in int64
	for t := range b.ops {
		if !sel[t] {
			continue
		}
		in++
		si := c.slotOf(b.fkey[t], dim)
		sign := b.sign[t]
		c.deltas[si] += sign
		p := b.ops[t].P
		row := c.scaled[si*dim : (si+1)*dim]
		if sign > 0 {
			for j := 0; j < dim; j++ {
				row[j] += p[j]
			}
		} else {
			for j := 0; j < dim; j++ {
				row[j] -= p[j]
			}
		}
	}
	return in
}

// gatherCells packs the cell-sketch update columns for one level out of
// the sampler's selection mask: the precomputed level-i cell key, the
// level-i index (base index shifted down), and the op sign.
func gatherCells(b *batch, sel []bool, level, L, dim int, sh uint, keys []uint64, payload []int64, deltas []int64) ([]uint64, []int64, []int64) {
	for t := range b.ops {
		if !sel[t] {
			continue
		}
		keys = append(keys, b.cellKey[t*(L+1)+level])
		base := b.baseIdx[t*dim : (t+1)*dim]
		for j := 0; j < dim; j++ {
			payload = append(payload, base[j]>>sh)
		}
		deltas = append(deltas, b.sign[t])
	}
	return keys, payload, deltas
}

// gatherPoints packs the point-sketch update columns: fingerprint key,
// flattened coordinates, sign.
func gatherPoints(b *batch, sel []bool, keys []uint64, payload []int64, deltas []int64) ([]uint64, []int64, []int64) {
	for t := range b.ops {
		if !sel[t] {
			continue
		}
		keys = append(keys, b.fkey[t])
		payload = append(payload, b.ops[t].P...)
		deltas = append(deltas, b.sign[t])
	}
	return keys, payload, deltas
}

// shard is one unit of parallel batch application: a level range of one
// guess instance.
type shard struct {
	s      *Stream
	lo, hi int
}

// applyShards applies the batch to every (stream × level-range) shard with
// a worker pool sized to the machine. Shards partition the sketch state —
// no two shards write the same sketch — so no synchronization beyond the
// final barrier is needed, and linearity makes the outcome independent of
// the schedule.
func applyShards(b *batch, shards []shard) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for _, sh := range shards {
			sh.s.applyLevels(b, sh.lo, sh.hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				sh := shards[i]
				sh.s.applyLevels(b, sh.lo, sh.hi)
			}
		}()
	}
	wg.Wait()
}

// levelShards appends the shards for one stream, splitting its L+1 levels
// into chunks of at most chunk levels.
func levelShards(dst []shard, s *Stream, chunk int) []shard {
	for lo := 0; lo <= s.g.L; lo += chunk {
		hi := lo + chunk - 1
		if hi > s.g.L {
			hi = s.g.L
		}
		dst = append(dst, shard{s: s, lo: lo, hi: hi})
	}
	return dst
}
