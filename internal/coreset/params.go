// Package coreset implements the strong coreset construction for
// capacitated k-clustering in ℓ_r: Algorithm 2 of the paper, together
// with the o-guess enumeration that turns it into the offline algorithm
// of Theorem 3.19. It also holds Algorithm 4's core (query.go) — the
// rate rule, the guess rule, the plan step and the assembly — which the
// streaming (Theorem 4.5) and distributed (Theorem 4.7) constructions in
// internal/stream and internal/dist run over their own recovered counts
// and points.
package coreset

import (
	"errors"
	"fmt"
	"math"
)

// Params configures the coreset construction.
//
// Two regimes are supported. Conservative mode instantiates every
// constant exactly as printed in Algorithm 2 (γ, ξ, λ and the sampling
// rate φ_i with their 2^{2(r+10)} and 10^6 factors). Those constants are
// worst-case union-bound artifacts: for any input that fits in memory
// they drive φ_i to 1, i.e. the "coreset" is the entire input. The
// default practical mode keeps the full structure of the algorithm —
// hierarchical heavy-cell partition, per-part inclusion threshold
// γ·T_i(o), per-level uniform sampling rate φ_i ∝ 1/T_i(o), λ-wise
// independent sampling, FAIL-driven guess selection — and only calibrates
// the absolute constants, which is how every implementation in this line
// of work (Chen'09, BFL+17, HSYZ18) is run in practice. DESIGN.md §1
// records this substitution.
type Params struct {
	K   int     // number of clusters (k ≥ 1)
	R   float64 // ℓ_r exponent (default 2, i.e. capacitated k-means)
	Eps float64 // ε ∈ (0, 0.5): cost approximation (default 0.3)
	Eta float64 // η ∈ (0, 0.5): capacity violation (default 0.3)

	Seed int64 // seed for all randomness (grids, hashes)

	Conservative bool // paper-exact constants (coreset ≈ input for laptop n)

	// Practical-mode knobs (ignored when Conservative).
	//
	// SamplesPerPart sets the expected number of samples drawn from a
	// part of size T_i(o) (crucial cells hold < T_i(o) points each, so
	// T_i(o) is the natural part scale; smaller parts get proportionally
	// fewer samples and contribute only the additive error Lemma 3.4
	// bounds). Default 512.
	SamplesPerPart   float64
	HashIndependence int // λ of the sampling hash family (default 16)
}

var (
	errK       = errors.New("coreset: K must be >= 1")
	errEps     = errors.New("coreset: Eps must be in (0, 0.5)")
	errEta     = errors.New("coreset: Eta must be in (0, 0.5)")
	errR       = errors.New("coreset: R must be finite and >= 1")
	errSamples = errors.New("coreset: SamplesPerPart must be finite and > 0")
	errLambda  = errors.New("coreset: HashIndependence must be >= 1")
)

// withDefaults fills zero fields with defaults and validates. Every
// range check is written so that NaN fails it.
func (p Params) withDefaults() (Params, error) {
	if p.R == 0 {
		p.R = 2
	}
	if p.Eps == 0 {
		p.Eps = 0.3
	}
	if p.Eta == 0 {
		p.Eta = 0.3
	}
	if p.SamplesPerPart == 0 {
		p.SamplesPerPart = 512
	}
	if p.HashIndependence == 0 {
		p.HashIndependence = 16
	}
	if p.K < 1 {
		return p, errK
	}
	if !(p.Eps > 0 && p.Eps < 0.5) {
		return p, errEps
	}
	if !(p.Eta > 0 && p.Eta < 0.5) {
		return p, errEta
	}
	if !(p.R >= 1) || math.IsInf(p.R, 1) {
		return p, errR
	}
	if !(p.SamplesPerPart > 0) || math.IsInf(p.SamplesPerPart, 1) {
		return p, errSamples
	}
	if p.HashIndependence < 1 {
		return p, errLambda
	}
	return p, nil
}

// Setting is one zero-means-default sizing or calibration field of a
// streaming or distributed config, by name.
type Setting struct {
	Name  string
	Value float64
}

// ResolveConfig resolves and checks what the streaming and distributed
// configs share, so their errors read alike: the parameters p, the domain
// (dim ≥ 1 and delta ≥ 1, returned rounded up to a power of two) and the
// zero-means-default settings, of which the first that no default can
// stand in for — a NaN, infinite or negative value — is an error. pkg
// prefixes every error.
func ResolveConfig(pkg string, p Params, dim int, delta int64, settings ...Setting) (Params, int64, error) {
	p, err := p.withDefaults()
	if err != nil {
		return p, 0, err
	}
	if dim < 1 {
		return p, 0, fmt.Errorf("%s: Dim must be >= 1", pkg)
	}
	if delta < 1 {
		return p, 0, fmt.Errorf("%s: Delta must be >= 1", pkg)
	}
	pow := int64(1)
	for pow < delta {
		pow <<= 1
	}
	for _, s := range settings {
		if !(s.Value >= 0) || math.IsInf(s.Value, 0) {
			return p, 0, fmt.Errorf("%s: %s must be finite and >= 0, got %v", pkg, s.Name, s.Value)
		}
	}
	return p, pow, nil
}

// d15r computes d^{1.5r}, the dimension factor in all of Algorithm 2's
// budgets.
func d15r(d int, r float64) float64 { return math.Pow(float64(d), 1.5*r) }

// Gamma returns γ: parts with τ(Q_{i,j}) < γ·T_i(o) are excluded (line 9
// of Algorithm 2; Lemma 3.4 shows removing them barely changes any
// capacitated cost). In conservative mode this is
// 2^{−2(r+10)}·min(η/(kL), ε/((k+d^{1.5r})L)); practical mode drops the
// 2^{−2(r+10)}.
func (p Params) Gamma(d, L int) float64 {
	k, l := float64(p.K), float64(L)
	g := math.Min(p.Eta/(k*l), p.Eps/((k+d15r(d, p.R))*l))
	if p.Conservative {
		g *= math.Exp2(-2 * (p.R + 10))
	}
	return g
}

// Xi returns ξ, the estimation accuracy parameter fed to the transferred
// assignment machinery (line 3 of Algorithm 2).
func (p Params) Xi(d, L int) float64 {
	k, l := float64(p.K), float64(L)
	x := math.Min(p.Eps, p.Eta) / (k * (k + d15r(d, p.R)) * l * l)
	if p.Conservative {
		x *= math.Exp2(-2 * (p.R + 10))
	}
	return x
}

// Lambda returns λ, the independence of the sampling hash family (line 3:
// 10^6·r·k³·d·L·⌈log(kdL)⌉ in conservative mode).
func (p Params) Lambda(d, L int) int {
	if p.Conservative {
		k := float64(p.K)
		v := 1e6 * p.R * k * k * k * float64(d) * float64(L) *
			math.Ceil(math.Log(float64(p.K*d*L)+1))
		// Evaluating a degree-λ polynomial per point per level is O(λ);
		// beyond a few thousand the independence buys nothing measurable
		// while the evaluation cost explodes, so conservative mode caps
		// the degree (the only concession it makes).
		if v > 1<<12 {
			v = 1 << 12
		}
		return int(v)
	}
	return p.HashIndependence
}

// Phi returns the level-i sampling probability φ_i given T = T_i(o)
// (line 8 of Algorithm 2). In conservative mode
// φ_i = min(1, 2^{2(r+10)}·λ/(ξ³·γ·T)) exactly as printed; practical mode
// keeps the same 1/T_i(o) shape but calibrates the numerator so a part of
// size T_i(o) yields SamplesPerPart expected samples:
// φ_i = min(1, SamplesPerPart/T).
func (p Params) Phi(T float64, d, L int) float64 {
	if T <= 0 {
		return 1
	}
	if p.Conservative {
		gamma := p.Gamma(d, L)
		xi := p.Xi(d, L)
		return math.Min(1, math.Exp2(2*(p.R+10))*float64(p.Lambda(d, L))/(xi*xi*xi*gamma*T))
	}
	return math.Min(1, p.SamplesPerPart/T)
}

// HeavyBudget is the FAIL threshold on the total number of heavy cells
// (line 5): 20000·(k + d^{1.5r})·L.
func (p Params) HeavyBudget(d, L int) float64 {
	return 20000 * (float64(p.K) + d15r(d, p.R)) * float64(L)
}

// LevelBudget is the FAIL threshold on τ(∪_j Q_{i,j}) for one level
// (line 6): 10000·(kL + d^{1.5r})·T_i(o).
func (p Params) LevelBudget(d, L int, T float64) float64 {
	return 10000 * (float64(p.K)*float64(L) + d15r(d, p.R)) * T
}
