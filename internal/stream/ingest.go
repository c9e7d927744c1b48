// Batched, shared-key ingestion pipeline (the fast path behind
// Stream.Apply and Auto.Apply).
//
// Every stream update fans out to 3 substreams × (L+1) grid levels — and,
// under guess enumeration, to every guess instance's distinct sketches
// (guesses that sample a substream at rate 1 share its Storing, so it
// takes the update once). The per-op inputs those
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
// batch stores one index vector per op rather than L+1. Samplers at rate
// φ = 1 select every op; they all read one coalesced column per level
// (and one for points) that the batch builds on first use. Fractional
// samplers all hash the same fingerprint keys, so they share one power
// column — x⁰…x¹⁶ of each key (hashing.PowersN), also built on first
// use — and each sampler's degree-λ polynomial becomes dot products over
// it instead of a Horner chain per op.
//
// Because every sketch is linear over GF(p) and int64 counters — both
// exact, commutative, associative — applying a batch sketch by sketch,
// or sharding sketches across goroutines, yields bit-identical state to
// replaying the ops one at a time in stream order. TestApplyMatchesPerOp
// enforces this.
package stream

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"streambalance/internal/geo"
	"streambalance/internal/grid"
	"streambalance/internal/hashing"
	"streambalance/internal/obs"
	"streambalance/internal/sketch"
)

// Coalesce-ratio telemetry (DESIGN.md §9/§12): per substream, how many
// sampled ops went into the key-coalescer and how many distinct-key rows
// came out. The ratio in/out is the slab-write fan-in the coalescer
// eliminated; it is largest at coarse grid levels, where a whole batch
// maps to a handful of cells. Both count per distinct sketch: a Storing
// that several guesses share is written, and counted, once. Tallies are
// added once per unit and batch — nothing per op.
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

// batch holds the columnar precomputation for a slice of ops against one
// grid + fingerprint pair. Buffers are reused across builds.
type batch struct {
	ops     []Op
	L, dim  int         // the grid's finest level and dimension
	pts     []geo.Point // point column (ops[t].P), input to grid.CellIndexN
	sign    []int64     // +1 insert, −1 delete, per op
	fkey    []uint64    // fingerprint key per op
	baseIdx []int64     // level-L cell index per op, Dim entries each
	cellKey []uint64    // cell key per op per level, L+1 entries each

	// Shared rate-1 columns: rate1[i] for i ≤ L is the whole batch
	// coalesced by level-i cell key, rate1[L+1] the whole batch coalesced
	// by point key. A sampler with φ = 1 selects every op, so all rate-1
	// consumers of one column receive the same rows; the first shard that
	// needs a column builds it (rate1Once) and every other one reads it.
	rate1     []coalescer
	rate1Once []sync.Once

	// Shared power column: pow[t·PowerStride : (t+1)·PowerStride] holds
	// x⁰…x¹⁶ of x = fkey[t], the operand of every fractional sampler
	// (hashing.Bernoulli.SamplePowers). The first shard that samples
	// builds it (powOnce); every other one reads it.
	pow     []uint64
	powOnce sync.Once
}

// build validates ops (checkDims), meters the batch, fills its columns
// and returns the batch's net point count. The grid and fingerprint must
// be the ones every consuming Stream shares.
//
// The two field-arithmetic columns — fingerprint keys and per-level cell
// keys — run through the 4-lane kernels (hashing.Key4, grid.ParentKeys4):
// four ops' Rabin–Karp chains are interleaved per block, so the column
// build is bounded by multiplier throughput rather than the serial
// multiply latency of one chain. The ragged tail (< 4 ops) takes the
// scalar path; both paths are bit-identical, so batch boundaries cannot
// change any key.
func (b *batch) build(g *grid.Grid, fp *hashing.Fingerprint, ops []Op) (net int64) {
	checkDims(ops, g.Dim)
	n, L := len(ops), g.L
	b.ops, b.L, b.dim = ops, L, g.Dim
	b.pts = growPts(b.pts, n)
	b.sign = growInt64(b.sign, n)
	b.fkey = growUint64(b.fkey, n)
	for t := range ops {
		if ops[t].Delete {
			b.sign[t] = -1
		} else {
			b.sign[t] = +1
		}
		net += b.sign[t]
		b.pts[t] = ops[t].P
	}
	if obs.Enabled() { // a handful of atomic bumps per batch, nothing per op
		mBatches.Inc()
		mBatchOps.Observe(int64(n))
		mOps.Add(int64(n))
		mDeletes.Add((int64(n) - net) / 2)
	}
	t := 0
	for ; t+4 <= n; t += 4 {
		b.fkey[t], b.fkey[t+1], b.fkey[t+2], b.fkey[t+3] =
			fp.Key4(ops[t].P, ops[t+1].P, ops[t+2].P, ops[t+3].P)
	}
	for ; t < n; t++ {
		b.fkey[t] = fp.Key(ops[t].P)
	}
	b.baseIdx, b.cellKey = cellKeyColumns(g, b.baseIdx, b.cellKey, b.pts)
	if len(b.rate1) != L+2 {
		b.rate1 = make([]coalescer, L+2)
		b.rate1Once = make([]sync.Once, L+2)
	} else {
		clear(b.rate1Once)
	}
	b.powOnce = sync.Once{}
	return net
}

// cellKeyColumns quantizes pts once on g — base[t·d : (t+1)·d] is the
// level-L cell index of pts[t] — and derives every level's cell key from
// it: keys[t·(L+1)+i] is the level-i key, each coarser index a one-bit
// shift of the finer one (grid.ParentKeys4), so all L+1 keys cost one
// fingerprint per level. base and keys are grown as needed and returned.
func cellKeyColumns(g *grid.Grid, base []int64, keys []uint64, pts []geo.Point) ([]int64, []uint64) {
	n, dim, L := len(pts), g.Dim, g.L
	base = growInt64(base, n*dim)
	keys = growUint64(keys, n*(L+1))
	// Columnar cell indexing: level and destination bounds validated once
	// for the whole batch (grid.CellIndexN), not once per op.
	g.CellIndexN(base, pts, L)
	scratch := make([]int64, 4*dim)
	s0, s1, s2, s3 := scratch[0*dim:1*dim], scratch[1*dim:2*dim], scratch[2*dim:3*dim], scratch[3*dim:4*dim]
	ck := func(t int) []uint64 { return keys[t*(L+1) : (t+1)*(L+1)] }
	t := 0
	for ; t+4 <= n; t += 4 {
		copy(s0, base[(t+0)*dim:])
		copy(s1, base[(t+1)*dim:])
		copy(s2, base[(t+2)*dim:])
		copy(s3, base[(t+3)*dim:])
		g.ParentKeys4(ck(t), ck(t+1), ck(t+2), ck(t+3), s0, s1, s2, s3, L)
	}
	for ; t < n; t++ {
		copy(s0, base[t*dim:(t+1)*dim])
		g.ParentKeys(ck(t), s0, L)
	}
	return base, keys
}

// rateOne returns shared column c (a level ≤ L, or L+1 for points),
// coalescing the whole batch into it on first use.
func (b *batch) rateOne(c int) *coalescer {
	co := &b.rate1[c]
	b.rate1Once[c].Do(func() { co.coalesce(b, nil, c) })
	return co
}

// powers returns the batch's power column, building it from the
// fingerprint keys on first use.
func (b *batch) powers() []uint64 {
	b.powOnce.Do(func() {
		b.pow = growUint64(b.pow, hashing.PowerStride*len(b.ops))
		hashing.PowersN(b.pow, b.fkey)
	})
	return b.pow
}

// checkDims panics, before any state is touched, if an op's point does
// not have dim coordinates. Apply validates the whole batch up front so
// a malformed op leaves every sketch, counter and the cost bound as it
// was — and so the panic happens on the caller's goroutine, not in a
// pool worker.
func checkDims(ops []Op, dim int) {
	for i := range ops {
		checkDim(ops[i].P, dim)
	}
}

func checkDim(p geo.Point, dim int) {
	if len(p) != dim {
		panic(fmt.Sprintf("stream: point dim %d != %d", len(p), dim))
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

// applyScratch is the working set of a fractional unit's apply: a
// selection mask and the key-coalescer. Units of one batch run
// concurrently, so scratch cannot live on the unit; a sync.Pool keeps
// the allocations off the per-batch path instead.
type applyScratch struct {
	sel []bool
	co  coalescer
}

var applyScratchPool = sync.Pool{New: func() any { return new(applyScratch) }}

// unit is one sketch of a guess instance — the Storing of one
// (substream, level) — with the sampler that feeds it: the granule of
// batch application. Distinct units write distinct sketch state, so
// they may run concurrently. In an Auto ensemble every guess whose
// sampler has rate 1 at a (substream, level) shares one Storing there,
// and the ensemble lists that unit once (ensembleUnits).
type unit struct {
	st   *sketch.Storing
	samp *hashing.Bernoulli
	sub  int // substream: 0 h, 1 h′, 2 ĥ
	col  int // batch column: the level for h and h′, L+1 for ĥ
}

// apply writes the batch to u. Its selected ops are COALESCED by key —
// deltas summed, payloads summed delta-scaled, one output row per
// distinct key — and fed to Storing.UpdateKeyedScaledN. At coarse levels
// a whole batch collapses to a handful of cell rows, so the sketch pays
// one slab visit and one row-hash evaluation per distinct cell instead
// of per op. A rate-1 sampler selects every op, so its rows are the
// batch's shared rate-1 column (batch.rateOne), coalesced once for
// every such unit; a fractional sampler evaluates its polynomial as dot
// products over the batch's shared power column (batch.powers,
// Bernoulli.SamplePowers) and coalesces its own selection. Both give
// the same rows in the same first-occurrence order. Sketch state is an
// exact linear sum, so both the coalescing and the write schedule
// UpdateScaledN picks are bit-identical to the per-op Insert/Delete
// replay (TestApplyMatchesPerOp, TestRateOneColumnsMatchPerOp,
// TestApplyMatchesPerOpAcrossLambda, FuzzCoalescedIngestMatchesSerial,
// FuzzForkMerge). The telemetry tallies — sampled ops in, distinct-key
// rows out — are added once per unit.
func (u unit) apply(b *batch) {
	var co *coalescer
	if u.samp.Phi() >= 1 {
		co = b.rateOne(u.col)
	} else {
		sc := applyScratchPool.Get().(*applyScratch)
		defer applyScratchPool.Put(sc)
		sc.sel = growBool(sc.sel, len(b.ops))
		u.samp.SamplePowers(sc.sel, b.powers())
		co = &sc.co
		co.coalesce(b, sc.sel, u.col)
	}
	u.st.UpdateKeyedScaledN(co.keys, co.scaled, co.deltas)
	mSketchUpdates.Add(co.in)
	if obs.Enabled() {
		mCoalesceIn[u.sub].Add(co.in)
		mCoalesceOut[u.sub].Add(int64(len(co.deltas)))
	}
}

// sketchSet is a list of distinct units — a Stream's own sketches, or
// an Auto ensemble's with a shared Storing listed once — and the
// ingest, accounting and decode-cache upkeep both front-ends run over
// it. Stream and Auto embed it, so the exported cache methods
// (extract.go) are written once for both.
type sketchSet struct {
	units []unit
}

// update meters one op and feeds it to every unit whose sampler selects
// its fingerprint key — the per-op path Insert and Delete take, and the
// oracle Apply is pinned against. It returns the op's net count: +1 for
// an insertion, −1 for a deletion.
func (ss *sketchSet) update(p geo.Point, key uint64, del bool) (net int64) {
	mOps.Inc()
	net = 1
	if del {
		mDeletes.Inc()
		net = -1
	}
	var nSel int64
	for _, u := range ss.units {
		if !u.samp.Sample(key) {
			continue
		}
		if del {
			u.st.Delete(p)
		} else {
			u.st.Insert(p)
		}
		nSel++
	}
	mSketchUpdates.Add(nSel)
	return net
}

// apply writes a built batch to every unit on the shard pool
// (applyShards). nSide extra shards, side(0), …, side(nSide−1), join
// the same pool and are claimed right after the first lead units — Auto
// slots its cost-bound levels in behind its rate-1 units, the heaviest
// shards.
func (ss *sketchSet) apply(b *batch, lead, nSide int, side func(j int)) {
	applyShards(len(ss.units)+nSide, func(i int) {
		switch {
		case i < lead:
			ss.units[i].apply(b)
		case i < lead+nSide:
			side(i - lead)
		default:
			ss.units[i-nSide].apply(b)
		}
	})
}

// digest folds every unit's sketch state into d, in list order.
func (ss *sketchSet) digest(d uint64) uint64 {
	for _, u := range ss.units {
		d = hashing.Mix64(d ^ u.st.Digest())
	}
	return d
}

// bytes sums the sketch state of the units.
func (ss *sketchSet) bytes() (b int64) {
	for _, u := range ss.units {
		b += u.st.Bytes()
	}
	return b
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
// counter bump, not a memset; all buffers are reused across calls.
type coalescer struct {
	gen     uint32
	slotGen []uint32 // stamp per table slot; != gen means empty
	slot    []int32  // table slot -> row index in the output columns
	mask    uint64

	in     int64    // input rows consumed since reset (the coalesce-ratio numerator)
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
	c.in = 0
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

// coalesce aggregates the ops sel selects (every op when sel is nil)
// into column col of the batch: level-col cells for col ≤ L, points
// for L+1.
func (c *coalescer) coalesce(b *batch, sel []bool, col int) {
	if col > b.L {
		c.coalescePoints(b, sel)
	} else {
		c.coalesceCells(b, sel, col)
	}
}

// coalesceCells aggregates one level's selected cell updates (every op
// when sel is nil): key is the precomputed level-i cell key, payload the
// level-i index (base index shifted down by L − i), delta the op sign.
func (c *coalescer) coalesceCells(b *batch, sel []bool, level int) {
	c.reset(len(b.ops))
	L, dim := b.L, b.dim
	sh := uint(L - level)
	for t := range b.ops {
		if sel != nil && !sel[t] {
			continue
		}
		c.in++
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
}

// coalescePoints aggregates the selected point updates of the ĥ
// substream (every op when sel is nil): key is the op's fingerprint key,
// payload its coordinates.
func (c *coalescer) coalescePoints(b *batch, sel []bool) {
	c.reset(len(b.ops))
	dim := b.dim
	for t := range b.ops {
		if sel != nil && !sel[t] {
			continue
		}
		c.in++
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
}

// applyShards runs apply(0), …, apply(n−1) on a worker pool sized to
// the machine, claiming shard indices in order. Shards partition the
// sketch state — no two shards write the same sketch — so no
// synchronization beyond the final barrier is needed, and linearity
// makes the outcome independent of the schedule.
func applyShards(n int, apply func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			apply(i)
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
				if i >= n {
					return
				}
				apply(i)
			}
		}()
	}
	wg.Wait()
}
