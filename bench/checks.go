package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"streambalance"
)

// checkQuality records strong_ratio for the coreset cs of the live
// multiset q (aggregated by site) against the centers z, and checks it
// against 1+ε. A nil cs is a failed query: it fails the check.
func (o *outcome) checkQuality(cs *streambalance.Coreset, qerr error, q []streambalance.Weighted, z []streambalance.Point) {
	if cs == nil {
		o.check("strong_ratio", false, "no coreset to check: %v", qerr)
		return
	}
	var n float64
	for _, p := range q {
		n += p.W
	}
	up, down := strongRatio(q, cs.Points, z, n)
	o.strong = math.Max(up, down)
	o.check("strong_ratio", o.strong <= 1+eps, "up %.4f, down %.4f, limit %.2f; |Q| = %d sites of weight %.0f, |Q′| = %d points of weight %.0f",
		up, down, 1+eps, len(q), n, cs.Size(), cs.TotalWeight())
}

// strongRatio evaluates the strong-coreset sandwich of Theorem 3.19 for
// the center set z at capacity t = 1.1·n/k, where n is q's total
// weight, in the form E1 uses:
//
//	up   = cost_{(1+η)t}(Q′) / cost_t(Q)
//	down = cost_{(1+η)²t}(Q) / cost_{(1+η)t}(Q′)
//
// An (η, ε) strong coreset keeps both within 1+ε. Giving Q′ the (1+η)
// capacity keeps its side feasible when its total weight drifts above n,
// which the guess selection allows. A ratio that cannot be evaluated is
// +Inf.
func strongRatio(q, qp []streambalance.Weighted, z []streambalance.Point, n float64) (up, down float64) {
	t := 1.1 * n / k
	full := streambalance.CapacitatedCost(q, z, t, 2)
	core := streambalance.CapacitatedCost(qp, z, (1+eta)*t, 2)
	relaxed := streambalance.CapacitatedCost(q, z, (1+eta)*(1+eta)*t, 2)
	up, down = core/full, relaxed/core
	if math.IsNaN(up) {
		up = math.Inf(1)
	}
	if math.IsNaN(down) {
		down = math.Inf(1)
	}
	return up, down
}

// checkLinearity feeds the multiset q, as inserts in one Apply, to a
// fresh ensemble built from cfg and compares its state digest with want,
// the digest of an ensemble that reached the same multiset through
// churn. Linear sketches must agree bit for bit.
func checkLinearity(cfg streambalance.StreamConfig, q []streambalance.Weighted, want uint64) error {
	a, err := streambalance.NewAutoStream(cfg, oFactor)
	if err != nil {
		return err
	}
	var ops []streambalance.Op
	for _, w := range q {
		for i := 0; i < int(w.W); i++ {
			ops = append(ops, streambalance.Op{P: w.P})
		}
	}
	a.Apply(ops)
	if got := a.StateDigest(); got != want {
		return fmt.Errorf("digest %016x, want %016x", got, want)
	}
	return nil
}

// balanced reports whether every center's load stays within the
// capacity plus the rounding allowance of Section 3.3: at most k−1
// points exceed the capacity, by at most (k−1)·max w in total.
func balanced(sol streambalance.Solution, ws []streambalance.Weighted, capacity float64) bool {
	var maxW float64
	for _, w := range ws {
		maxW = math.Max(maxW, w.W)
	}
	for _, load := range sol.Sizes {
		if load > capacity+float64(k-1)*maxW+1e-9 {
			return false
		}
	}
	return len(sol.Sizes) == k
}

// aggregate returns the multiset of ps, point i taken mult[i] times (once
// each when mult is nil), as one weighted point per distinct site in
// coordinate order.
func aggregate(ps []streambalance.Point, mult []float64) []streambalance.Weighted {
	idx := map[[dim]int64]int{}
	var out []streambalance.Weighted
	for i, p := range ps {
		m := 1.0
		if mult != nil {
			m = mult[i]
		}
		var key [dim]int64
		copy(key[:], p)
		j, ok := idx[key]
		if !ok {
			j = len(out)
			idx[key] = j
			out = append(out, streambalance.Weighted{P: p})
		}
		out[j].W += m
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P.Less(out[j].P) })
	return out
}

// peakRSSMiB returns the process's peak resident set (VmHWM). Where
// /proc is missing it falls back to the memory the Go runtime holds now.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
