// Package hashing implements the limited-independence hash families the
// paper's algorithms rely on: λ-wise independent hash functions realized
// as random polynomials of degree λ−1 over GF(p) with p = 2^61 − 1, plus
// Bernoulli(φ) samplers built on top of them (used by Algorithm 2 line 10,
// Algorithm 3, and Algorithm 4 step 2), and point fingerprints that embed
// [Δ]^d into the 64-bit key universe.
//
// The paper needs λ-wise independence (λ = poly(k d log Δ)) so that the
// Bellare–Rompel moment bound (Lemma 3.13) applies; full independence
// would require storing the random bits for every point, breaking the
// space bound. A degree-(λ−1) polynomial stores exactly λ field elements.
package hashing

import (
	"math/bits"
	"math/rand"
)

// MersennePrime61 is the field modulus p = 2^61 − 1.
const MersennePrime61 uint64 = (1 << 61) - 1

// mulMod returns a*b mod p for a, b < p, using the Mersenne structure of
// p = 2^61 − 1 to reduce the 122-bit product without division.
func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo = (hi*8)*2^61 + lo, and 2^61 ≡ 1 (mod p).
	s := (lo & MersennePrime61) + ((hi << 3) | (lo >> 61))
	s = (s & MersennePrime61) + (s >> 61)
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// addMod returns a+b mod p for a, b < p.
func addMod(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// KWise is a λ-wise independent hash function h : {0,...,p−1} → {0,...,p−1},
// realized as a uniformly random polynomial of degree λ−1 over GF(p).
type KWise struct {
	coeffs []uint64 // degree = len(coeffs)-1; coeffs[0] is the constant term
}

// NewKWise draws a λ-wise independent hash function using rng. λ must be
// at least 1; λ = 2 gives the classic pairwise-independent family.
func NewKWise(rng *rand.Rand, lambda int) *KWise {
	return &KWise{coeffs: drawCoeffs(rng, lambda, lambda)}
}

// drawCoeffs draws λ uniform coefficients into a zeroed slice of
// capacity at least capacity, so a caller may view the zero padding
// above the leading coefficient.
func drawCoeffs(rng *rand.Rand, lambda, capacity int) []uint64 {
	if lambda < 1 {
		panic("hashing: lambda must be >= 1")
	}
	c := make([]uint64, lambda, max(lambda, capacity))
	for i := range c {
		c[i] = randField(rng)
	}
	return c
}

// randField returns a uniform element of GF(p).
func randField(rng *rand.Rand) uint64 {
	for {
		v := rng.Uint64() & ((1 << 61) - 1)
		if v < MersennePrime61 {
			return v
		}
	}
}

// Degree returns λ, the independence of the family.
func (h *KWise) Degree() int { return len(h.coeffs) }

// Eval computes h(x) by Horner's rule. Keys ≥ p are first reduced mod p;
// callers that need injectivity must keep keys below p (Fingerprint does).
func (h *KWise) Eval(x uint64) uint64 {
	if x >= MersennePrime61 {
		x -= MersennePrime61 // keys are < 2^61 in all callers
	}
	// Seed the accumulator with the leading coefficient instead of 0: the
	// first Horner step would be addMod(mulMod(0, x), c) = c, so skipping
	// it saves one field multiplication — a quarter of the work for the
	// degree-3 sketch fingerprints and half for the pairwise row hashes.
	acc := h.coeffs[len(h.coeffs)-1]
	for i := len(h.coeffs) - 2; i >= 0; i-- {
		acc = addMod(mulMod(acc, x), h.coeffs[i])
	}
	return acc
}

// Bernoulli is a λ-wise independent sampler h : keys → {0,1} with
// Pr[h(x) = 1] = φ (up to 1/p quantization), as required by Algorithm 2
// line 10 and Algorithm 3 steps 2 and 4.
type Bernoulli struct {
	h         *KWise
	blocks    []uint64 // h's coefficients zero-padded to whole 16-word blocks (HashPowers)
	threshold uint64
	phi       float64
}

// NewBernoulli draws a λ-wise independent Bernoulli(φ) sampler. φ is
// clamped to [0, 1].
func NewBernoulli(rng *rand.Rand, lambda int, phi float64) *Bernoulli {
	// The power-column kernel reads the coefficients in whole blocks; the
	// padding shares h's backing array, so it costs at most 15 words.
	c := drawCoeffs(rng, lambda, (lambda+powerBlock-1)/powerBlock*powerBlock)
	return (&Bernoulli{h: &KWise{coeffs: c}, blocks: c[:cap(c)]}).AtRate(phi)
}

// AtRate returns a Bernoulli(φ) sampler over b's polynomial: it selects
// x iff h(x) < φ·p. Each such sampler is λ-wise independent on its own,
// and samplers over one polynomial are nested — a key a lower rate
// selects, every higher rate selects too — so they share one hash column
// (HashPowers). φ is clamped to [0, 1].
func (b *Bernoulli) AtRate(phi float64) *Bernoulli {
	phi = min(max(phi, 0), 1)
	return &Bernoulli{h: b.h, blocks: b.blocks, threshold: uint64(phi * float64(MersennePrime61)), phi: phi}
}

// Sample reports whether key x is selected. Rate-1 and rate-0 samplers
// short-circuit before the degree-λ Horner evaluation: the streaming
// calibration ψ_i = min(1, ·) pins many levels at φ = 1 (and a zero
// threshold can never select), so the boundary cases are hot paths, not
// corner cases.
func (b *Bernoulli) Sample(x uint64) bool {
	if b.phi >= 1 {
		return true
	}
	if b.threshold == 0 {
		return false
	}
	return b.h.Eval(x) < b.threshold
}

// Phi returns the configured sampling probability.
func (b *Bernoulli) Phi() float64 { return b.phi }

// Threshold returns ⌊φ·p⌋: the sampler selects x iff h(x) is below it.
func (b *Bernoulli) Threshold() uint64 { return b.threshold }

// Fingerprint maps points of [Δ]^d to keys in GF(p) by evaluating the
// Rabin–Karp polynomial Σ coord_i · x^i at a random field element x. Two
// distinct points collide with probability at most d/p ≤ d/2^61 − an error
// folded into the algorithm's 0.1 failure budget. The same construction
// fingerprints grid cells.
type Fingerprint struct {
	base uint64
}

// NewFingerprint draws a random fingerprint function.
func NewFingerprint(rng *rand.Rand) *Fingerprint {
	return &Fingerprint{base: randField(rng)}
}

// reduce64 maps an arbitrary 64-bit value into GF(p) using the Mersenne
// fold 2^61 ≡ 1 (mod p).
func reduce64(x uint64) uint64 {
	v := (x & MersennePrime61) + (x >> 61)
	if v >= MersennePrime61 {
		v -= MersennePrime61
	}
	return v
}

// Key returns the fingerprint of the coordinate vector.
func (f *Fingerprint) Key(coords []int64) uint64 {
	var acc uint64
	for i := len(coords) - 1; i >= 0; i-- {
		acc = addMod(mulMod(acc, f.base), reduce64(uint64(coords[i])))
	}
	// Offset by 1 so the all-zero vector does not map to key 0, which some
	// sketches reserve as "empty".
	return addMod(acc, 1)
}

// Key2 fingerprints a pair (tag, key) — used to key (cell, point) pairs in
// the two-level sketches of Section 4.
func (f *Fingerprint) Key2(tag, key uint64) uint64 {
	return addMod(addMod(mulMod(reduce64(tag), f.base), reduce64(key)), 1)
}

// KeyTagged returns Key applied to the virtual vector (tag, coords...)
// without materializing it — the allocation-free form of the cell-key
// computation (grid.KeyOf), which prefixes the level tag to the cell
// index vector.
func (f *Fingerprint) KeyTagged(tag int64, coords []int64) uint64 {
	var acc uint64
	for i := len(coords) - 1; i >= 0; i-- {
		acc = addMod(mulMod(acc, f.base), reduce64(uint64(coords[i])))
	}
	acc = addMod(mulMod(acc, f.base), reduce64(uint64(tag)))
	return addMod(acc, 1)
}

// Mix64 is the SplitMix64 finalizer: a fast, high-quality 64-bit mixer used
// for non-cryptographic key scrambling where limited independence is not
// required (bucket placement inside sketches combines this with KWise).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
