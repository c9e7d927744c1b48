// Power-column evaluation of the λ-wise families, p = 2^61 − 1.
//
// A batch hashes one key column through many independent polynomials:
// every fractional sampler of a guess ensemble evaluates its own degree-
// (λ−1) polynomial on the same fingerprint keys. Horner's rule re-derives
// the key's powers inside every evaluation, one dependent field multiply
// per coefficient. A power column instead stores x⁰…x¹⁶ of each key once
// (PowersN), and each polynomial becomes a dot product over it:
//
//	h(x) = Σ_b (x¹⁶)^b · P_b(x),  P_b(x) = Σ_{i<16} c_{16b+i} · x^i.
//
// Every product c·x^i of two field elements is below p² < 2^122, so the
// 16 terms of one block sum to less than 2^126 and fit a 128-bit
// accumulator without overflow: the block is reduced once, not once per
// term, and its multiplies are independent of each other. (The x⁰ term
// needs no multiply at all: it is the coefficient itself.) λ ≤ 16 is one
// block; larger λ chains the blocks by Horner's rule in x¹⁶, the last
// word of the row, so any λ is exact in the same 17 words. Field arithmetic is exact, so the result is the same
// field element Eval returns, bit for bit, for every key below 2^62 —
// which covers every fingerprint key (all < p).
package hashing

import "math/bits"

// PowerStride is the number of words one key occupies in a power column:
// x⁰ through x¹⁶.
const PowerStride = powerBlock + 1

// powerBlock is the number of coefficients one 128-bit accumulation
// covers: 16 products below 2^122 each sum below 2^126.
const powerBlock = 16

// PowersN fills dst[t·PowerStride : (t+1)·PowerStride] with x⁰…x¹⁶ of
// x = keys[t] reduced mod p. The powers are taken by repeated squaring
// (x², x⁴, x⁸, x¹⁶, each filling the next run from the previous one), so
// one key's 15 multiplies form a chain only four deep. len(dst) must be
// at least PowerStride·len(keys).
func PowersN(dst, keys []uint64) {
	if len(dst) < PowerStride*len(keys) {
		panic("hashing: PowersN dst shorter than PowerStride·len(keys)")
	}
	for t, k := range keys {
		w := (*[PowerStride]uint64)(dst[t*PowerStride:])
		x := reduce64(k)
		w[0], w[1] = 1, x
		w[2] = mulMod(x, x)
		w[3] = mulMod(w[2], x)
		w[4] = mulMod(w[2], w[2])
		for i := 5; i <= 8; i++ {
			w[i] = mulMod(w[4], w[i-4])
		}
		for i := 9; i <= 16; i++ {
			w[i] = mulMod(w[8], w[i-8])
		}
	}
}

// reduce128 returns (hi·2^64 + lo) mod p for a value below 2^126: its
// 61-bit limbs at bits 0, 61 and 122 are summed, since 2^61 ≡ 1 (mod p).
func reduce128(hi, lo uint64) uint64 {
	s := (lo & MersennePrime61) + (((hi << 3) | (lo >> 61)) & MersennePrime61) + (hi >> 58)
	s = (s & MersennePrime61) + (s >> 61)
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// dot16 returns Σ c[i]·w[i] mod p over one block of 16 coefficients,
// accumulated in 128 bits and reduced once. w[0] = x⁰ = 1, so c[0]
// enters the sum without a multiply; two independent accumulators halve
// the carry chain.
func dot16(c *[powerBlock]uint64, w *[PowerStride]uint64) uint64 {
	var h0, cy uint64
	l0 := c[0]
	h1, l1 := bits.Mul64(c[1], w[1])
	for i := 2; i < powerBlock; i += 2 {
		ph, pl := bits.Mul64(c[i], w[i])
		l0, cy = bits.Add64(l0, pl, 0)
		h0 += ph + cy
		ph, pl = bits.Mul64(c[i+1], w[i+1])
		l1, cy = bits.Add64(l1, pl, 0)
		h1 += ph + cy
	}
	lo, cy := bits.Add64(l0, l1, 0)
	return reduce128(h0+h1+cy, lo)
}

// HashPowers fills dst[t] = h(x_t), the value Eval returns, for every
// row t of the power column pow (PowerStride words per key, as PowersN
// writes it). Each value is a dot product per block of 16 coefficients,
// chained from the highest block down by Horner's rule in x¹⁶ = w[16].
// The coefficients are zero-padded above the leading one to whole blocks
// (NewBernoulli), where a zero adds nothing, so every λ takes this one
// path and λ ≤ 16 never enters the chain. A sampler selects row t iff
// dst[t] < Threshold(); samplers that share b's polynomial at different
// rates (AtRate) share one column. len(dst) must be at least
// len(pow)/PowerStride.
func (b *Bernoulli) HashPowers(dst, pow []uint64) {
	n := len(pow) / PowerStride
	if len(dst) < n {
		panic("hashing: HashPowers dst shorter than the power column")
	}
	blk := b.blocks
	top := len(blk) - powerBlock
	hiBlk := (*[powerBlock]uint64)(blk[top:])
	for t := range dst[:n] {
		w := (*[PowerStride]uint64)(pow[t*PowerStride:])
		acc := dot16(hiBlk, w)
		for s := top - powerBlock; s >= 0; s -= powerBlock {
			acc = addMod(mulMod(acc, w[powerBlock]), dot16((*[powerBlock]uint64)(blk[s:]), w))
		}
		dst[t] = acc
	}
}

// SamplePowers fills dst[t] = b.Sample(x_t) for every row t of the power
// column pow: HashPowers over a chunk of rows at a time, then the
// threshold. The rate-1 and rate-0 short-circuits of Sample become
// whole-column fills. len(dst) must be at least len(pow)/PowerStride.
func (b *Bernoulli) SamplePowers(dst []bool, pow []uint64) {
	n := len(pow) / PowerStride
	if len(dst) < n {
		panic("hashing: SamplePowers dst shorter than the power column")
	}
	dst = dst[:n]
	if b.phi >= 1 || b.threshold == 0 {
		all := b.phi >= 1
		for t := range dst {
			dst[t] = all
		}
		return
	}
	var hv [64]uint64
	for lo := 0; lo < n; lo += len(hv) {
		m := min(n-lo, len(hv))
		b.HashPowers(hv[:m], pow[lo*PowerStride:(lo+m)*PowerStride])
		for t, h := range hv[:m] {
			dst[lo+t] = h < b.threshold
		}
	}
}
