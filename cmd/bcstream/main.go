// Command bcstream maintains a capacitated-clustering coreset over a
// dynamic stream read from stdin or a file (the format cmd/bcgen emits:
// "+ x,y,..." inserts, "- x,y,..." deletes) and writes the weighted
// coreset to stdout as "w x,y,..." lines, with a summary on stderr.
//
// By default the full guess enumeration of Theorem 4.5 runs (one sketch
// ensemble per guess o); pass -guess to run a single-guess instance when
// an estimate of the optimal clustering cost is known.
//
// Telemetry (README "Observability"): -debug-addr serves /metrics,
// /debug/pprof/ and /debug/vars while the stream runs; -metrics dumps a
// final counter snapshot to stderr after the coreset is written.
//
// Usage:
//
//	bcgen -n 10000 -pattern churn | bcstream -k 4 -delta 4096
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"streambalance"
	"streambalance/internal/obs"
	"streambalance/internal/streamfmt"
)

func main() {
	k := flag.Int("k", 4, "number of clusters")
	dim := flag.Int("d", 2, "dimension")
	delta := flag.Int64("delta", 1<<12, "coordinate range [1,delta]")
	r := flag.Float64("r", 2, "lr exponent (1 = k-median, 2 = k-means)")
	guess := flag.Float64("guess", 0, "fixed guess o of the optimal cost (0 = enumerate all guesses)")
	seed := flag.Int64("seed", 1, "random seed")
	in := flag.String("in", "-", "input stream file (- = stdin)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/pprof/ and /debug/vars on this address (e.g. :6060) while running")
	metricsDump := flag.String("metrics", "", "dump a final telemetry snapshot to stderr: text (Prometheus exposition) or json")
	hold := flag.Duration("hold", 0, "with -debug-addr, keep the debug server up this long after the run (0 = exit immediately)")
	flag.Parse()

	switch *metricsDump {
	case "", "text", "json":
	default:
		fatal(fmt.Errorf("-metrics must be text or json, got %q", *metricsDump))
	}
	if *metricsDump != "" {
		obs.Enable()
		obs.Trace.Enable()
	}
	if *debugAddr != "" {
		addr, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bcstream: debug server on http://%s (/metrics, /debug/pprof/, /debug/vars, /debug/spans)\n", addr)
	}

	var src *os.File
	if *in == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}

	params := streambalance.Params{K: *k, R: *r, Seed: *seed}
	cfg := streambalance.StreamConfig{Dim: *dim, Delta: *delta, Params: params}

	type sink interface {
		Apply([]streambalance.Op)
		Bytes() int64
		Result() (*streambalance.Coreset, error)
	}
	var s sink
	var err error
	if *guess > 0 {
		cfg.O = *guess
		s, err = streambalance.NewStream(cfg)
	} else {
		cfg.CellSparsity = 512
		cfg.PointSparsity = 2048
		s, err = streambalance.NewAutoStream(cfg, 8)
	}
	if err != nil {
		fatal(err)
	}

	// Updates are ingested in batches through Apply, the columnar path;
	// sketch state is linear, so batching cannot change the result.
	const batchSize = 4096
	batch := make([]streambalance.Op, 0, batchSize)
	var updates int64
	err = streamfmt.ReadUpdates(src, *dim, func(u streamfmt.Update) error {
		if !u.P.InRange(*delta) {
			return fmt.Errorf("update %d: point %v outside [1, %d]^%d", updates+1, u.P, *delta, *dim)
		}
		if batch = append(batch, streambalance.Op{P: u.P, Delete: u.Delete}); len(batch) == batchSize {
			s.Apply(batch)
			batch = batch[:0]
		}
		updates++
		return nil
	})
	if err != nil {
		fatal(err)
	}
	s.Apply(batch)

	cs, err := s.Result()
	if err != nil {
		fatal(err)
	}
	if err := streamfmt.WriteWeighted(os.Stdout, cs.Points); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"bcstream: %d updates, coreset %d points (total weight %.1f), sketch state %d bytes, accepted o=%.3g\n",
		updates, cs.Size(), cs.TotalWeight(), s.Bytes(), cs.O)

	switch *metricsDump {
	case "text":
		if err := obs.Default.WriteProm(os.Stderr); err != nil {
			fatal(err)
		}
	case "json":
		if err := obs.Default.WriteJSON(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if *debugAddr != "" && *hold > 0 {
		fmt.Fprintf(os.Stderr, "bcstream: holding debug server for %s\n", *hold)
		time.Sleep(*hold)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcstream:", err)
	os.Exit(1)
}
