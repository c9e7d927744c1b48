// Lane-batched GF(p) kernels, p = 2^61 − 1.
//
// Every scalar evaluation in this package — Horner polynomial hashing,
// Rabin–Karp fingerprinting — is a chain of
// dependent field multiplies: step i cannot start before step i−1
// retires, so a single evaluation runs at the *latency* of mulMod, not
// its throughput. The kernels here evaluate four independent inputs at
// once, interleaving four accumulator chains in one loop (the blocked
// DistRMatrix trick from the assignment engine, applied to field
// arithmetic): the out-of-order core overlaps the four multiply chains
// and the shared coefficient load is paid once per step instead of four
// times.
//
// Everything below is pinned bit-identical to its scalar counterpart —
// addMod/mulMod are exact functions of their inputs, so lane order
// cannot change a single output bit. FuzzEvalLanesMatchScalar and the
// lanes_test.go suite enforce this under -race.
package hashing

// Eval4 computes h(x0), h(x1), h(x2), h(x3) by four interleaved Horner
// chains. Bit-identical to four Eval calls, ~2–3× the throughput on one
// core (BenchmarkKWiseEval */batch).
func (h *KWise) Eval4(x0, x1, x2, x3 uint64) (y0, y1, y2, y3 uint64) {
	if x0 >= MersennePrime61 {
		x0 -= MersennePrime61
	}
	if x1 >= MersennePrime61 {
		x1 -= MersennePrime61
	}
	if x2 >= MersennePrime61 {
		x2 -= MersennePrime61
	}
	if x3 >= MersennePrime61 {
		x3 -= MersennePrime61
	}
	c := h.coeffs
	// Same leading-coefficient seeding as Eval: the first Horner step is
	// skipped, saving one multiply per lane.
	top := c[len(c)-1]
	a0, a1, a2, a3 := top, top, top, top
	for i := len(c) - 2; i >= 0; i-- {
		ci := c[i]
		a0 = addMod(mulMod(a0, x0), ci)
		a1 = addMod(mulMod(a1, x1), ci)
		a2 = addMod(mulMod(a2, x2), ci)
		a3 = addMod(mulMod(a3, x3), ci)
	}
	return a0, a1, a2, a3
}

// EvalN fills dst[i] = h.Eval(keys[i]) for every key, running full
// 4-lane blocks through Eval4 and the ragged tail through the scalar
// path. len(dst) must be at least len(keys).
func (h *KWise) EvalN(dst, keys []uint64) {
	if len(dst) < len(keys) {
		panic("hashing: EvalN dst shorter than keys")
	}
	i := 0
	for ; i+4 <= len(keys); i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = h.Eval4(keys[i], keys[i+1], keys[i+2], keys[i+3])
	}
	for ; i < len(keys); i++ {
		dst[i] = h.Eval(keys[i])
	}
}

// Key4 fingerprints four coordinate vectors of equal length at once —
// four interleaved Rabin–Karp chains over the shared base point.
// Bit-identical to four Key calls.
func (f *Fingerprint) Key4(p0, p1, p2, p3 []int64) (k0, k1, k2, k3 uint64) {
	n := len(p0)
	if len(p1) != n || len(p2) != n || len(p3) != n {
		panic("hashing: Key4 vectors must have equal length")
	}
	base := f.base
	var a0, a1, a2, a3 uint64
	for i := n - 1; i >= 0; i-- {
		a0 = addMod(mulMod(a0, base), reduce64(uint64(p0[i])))
		a1 = addMod(mulMod(a1, base), reduce64(uint64(p1[i])))
		a2 = addMod(mulMod(a2, base), reduce64(uint64(p2[i])))
		a3 = addMod(mulMod(a3, base), reduce64(uint64(p3[i])))
	}
	return addMod(a0, 1), addMod(a1, 1), addMod(a2, 1), addMod(a3, 1)
}

// KeyN fills dst[t] = f.Key(pts[t]). All vectors must have the same
// length (the batched ingestion pipeline fingerprints fixed-dimension
// points); full 4-lane blocks run through Key4, the tail through Key.
// len(dst) must be at least len(pts).
func (f *Fingerprint) KeyN(dst []uint64, pts [][]int64) {
	if len(dst) < len(pts) {
		panic("hashing: KeyN dst shorter than pts")
	}
	t := 0
	for ; t+4 <= len(pts); t += 4 {
		dst[t], dst[t+1], dst[t+2], dst[t+3] = f.Key4(pts[t], pts[t+1], pts[t+2], pts[t+3])
	}
	for ; t < len(pts); t++ {
		dst[t] = f.Key(pts[t])
	}
}

// KeyTagged4 is KeyTagged over four index vectors of equal length with a
// shared tag — the kernel behind grid.ParentKeys4, which derives the
// cell keys of four stream ops per level in one pass.
func (f *Fingerprint) KeyTagged4(tag int64, i0, i1, i2, i3 []int64) (k0, k1, k2, k3 uint64) {
	n := len(i0)
	if len(i1) != n || len(i2) != n || len(i3) != n {
		panic("hashing: KeyTagged4 vectors must have equal length")
	}
	base := f.base
	var a0, a1, a2, a3 uint64
	for i := n - 1; i >= 0; i-- {
		a0 = addMod(mulMod(a0, base), reduce64(uint64(i0[i])))
		a1 = addMod(mulMod(a1, base), reduce64(uint64(i1[i])))
		a2 = addMod(mulMod(a2, base), reduce64(uint64(i2[i])))
		a3 = addMod(mulMod(a3, base), reduce64(uint64(i3[i])))
	}
	tg := reduce64(uint64(tag))
	a0 = addMod(mulMod(a0, base), tg)
	a1 = addMod(mulMod(a1, base), tg)
	a2 = addMod(mulMod(a2, base), tg)
	a3 = addMod(mulMod(a3, base), tg)
	return addMod(a0, 1), addMod(a1, 1), addMod(a2, 1), addMod(a3, 1)
}
