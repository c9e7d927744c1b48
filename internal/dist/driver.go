package dist

// Protocol drivers. Run executes the protocol concurrently: every machine
// computes in its own goroutine (bounded by Config.Workers) and streams
// its round-2 frames level by level, while per-link coordinator readers
// merge counts as they arrive and the coordinator's partition build
// (Algorithms 1–2) runs pipelined against the still-incoming levels —
// a count source blocks only until the specific level it consults is
// complete. The single-goroutine oracle RunSerial (oracle_test.go) runs
// the same frames, metered and merged machine-major, with no concurrency
// anywhere. Both produce bit-identical Reports (see driver_test.go),
// because machine compute is deterministic, merges sum exact integers
// (arrival-order independent), and assembly merges each level's sorted
// ĥ payloads in machine order.

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"streambalance/internal/geo"
	"streambalance/internal/obs"
)

// finishSpan stamps the run span with the coordinator's final wire
// accounting and FAIL count. Called after every worker goroutine has
// been joined, but reads under the mutex anyway — it is not a hot path.
func (co *coordinator) finishSpan(sp *obs.Span) {
	if !sp.Active() {
		return
	}
	co.mu.Lock()
	bits, formula, fails, o := co.rep.Bits, co.rep.FormulaBits, co.failFrames, co.o
	co.mu.Unlock()
	sp.AttrFloat("o", o)
	sp.AttrInt("wire_bits", bits)
	sp.AttrInt("formula_bits", formula)
	sp.AttrInt("fail_frames", fails)
	sp.End()
}

func validate(machines []geo.PointSet, cfg Config) (Config, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return cfg, err
	}
	if len(machines) == 0 {
		return cfg, errors.New("dist: no machines")
	}
	// A point off the grid's domain would count in the root cell's n but
	// fall outside it, and one of another dimension would not encode.
	for j, m := range machines {
		for _, q := range m {
			if err := q.Check(cfg.Dim, cfg.Delta); err != nil {
				return cfg, fmt.Errorf("dist: machine %d: %w", j, err)
			}
		}
	}
	return cfg, nil
}

// Run executes the protocol with the pipelined concurrent driver over
// cfg.Transport (ChanTransport by default).
func Run(machines []geo.PointSet, cfg Config) (*Report, error) {
	cfg, err := validate(machines, cfg)
	if err != nil {
		return nil, err
	}
	tr := cfg.Transport
	if tr == nil {
		tr = ChanTransport{}
	}
	links, err := tr.Links(len(machines))
	if err != nil {
		return nil, err
	}
	s := len(machines)
	co := newCoordinator(cfg, s)

	workers := cfg.Workers
	if workers <= 0 || workers > s {
		workers = s
	}
	sem := make(chan struct{}, workers)

	mRuns.Inc()
	// The run span roots a distributed trace; its context rides the
	// broadcast frame so machine and link spans parent onto it even when
	// the "machines" are remote processes.
	sp := obs.Trace.StartRoot("dist.run")
	sp.AttrInt("machines", int64(s))
	sp.AttrInt("workers", int64(workers))
	defer co.finishSpan(&sp)
	rootCtx := sp.Context()
	tRound1 := obs.NowNano()

	var mwg sync.WaitGroup
	for j := range machines {
		mwg.Add(1)
		go func(j int) {
			defer mwg.Done()
			runMachine(links[j].Machine, j, machines[j], cfg, sem)
		}(j)
	}

	// Round 1 up: one reader per link collects the sample frame.
	var rwg sync.WaitGroup
	for j := range links {
		rwg.Add(1)
		go func(j int) {
			defer rwg.Done()
			f, err := links[j].Coord.Recv()
			if err != nil {
				co.abort(fmt.Errorf("dist: machine %d round 1: %w", j, err))
				return
			}
			co.addSample(j, f)
		}(j)
	}
	rwg.Wait()

	fail := func(err error) (*Report, error) {
		for _, l := range links {
			l.Coord.Close()
		}
		mwg.Wait()
		return nil, err
	}
	if err := co.firstErr(); err != nil {
		return fail(err)
	}
	bframe, err := co.finishRound1()
	if err != nil {
		return fail(err)
	}
	mRound1NS.ObserveSince(tRound1)
	tRound2 := obs.NowNano()

	// Round 1 down + round 2 up: per-link readers merge frames as they
	// arrive, waking any count source blocked on the level they complete.
	var r2wg sync.WaitGroup
	for j := range links {
		r2wg.Add(1)
		go func(j int) {
			defer r2wg.Done()
			// The broadcast carries the run span's context; the charge is
			// the plain frame (the header is never metered).
			if err := links[j].Coord.Send(attachTrace(bframe, rootCtx)); err != nil {
				co.abort(fmt.Errorf("dist: broadcast to machine %d: %w", j, err))
				return
			}
			co.chargeBroadcast(len(bframe))
			co.readRound2(j, links[j].Coord)
		}(j)
	}

	// The coordinator's own build runs concurrently with the readers,
	// blocking per consulted level rather than per round.
	cs, buildErr := co.buildCoreset()

	r2wg.Wait()
	mwg.Wait()
	mRound2NS.ObserveSince(tRound2)
	for _, l := range links {
		l.Coord.Close()
	}
	if buildErr != nil {
		return nil, buildErr
	}
	if err := co.firstErr(); err != nil {
		return nil, err
	}
	co.rep.Coreset = cs
	return co.rep, nil
}

// readRound2 drains machine j's round-2 frames into the merge state. It
// always reads to EOF — even after an abort — so a machine blocked on a
// full link can finish and exit. The first traced frame opens a
// dist.link span parented on the sender's machine span (a cross-process
// parent when the transport is real), closed at EOF with per-link frame
// and byte totals.
func (co *coordinator) readRound2(j int, c Conn) {
	expected := 3*co.env.g.L + 2
	seen := 0
	var linkSp obs.Span
	var linkBytes int64
	defer func() {
		if linkSp.Active() {
			linkSp.AttrInt("frames", int64(seen))
			linkSp.AttrInt("bytes", linkBytes)
			linkSp.End()
		}
	}()
	for {
		f, err := c.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			co.abort(fmt.Errorf("dist: machine %d round 2: %w", j, err))
			return
		}
		if tc, payload, derr := detachTrace(f); derr == nil {
			if tc.Valid() && !linkSp.Active() {
				linkSp = obs.Trace.StartChild(tc, "dist.link")
				linkSp.AttrInt("machine", int64(j))
			}
			linkBytes += int64(len(payload))
		}
		if co.aborted() {
			continue // drain without merging
		}
		if err := co.handleFrame(j, f); err != nil {
			co.abort(fmt.Errorf("dist: machine %d: %w", j, err))
			continue
		}
		seen++
	}
	if seen != expected && !co.aborted() {
		co.abort(fmt.Errorf("dist: machine %d closed after %d of %d round-2 frames", j, seen, expected))
	}
}

// runMachine is one machine's side of the protocol. The semaphore bounds
// how many machines compute at once (Config.Workers); waiting on the
// network is never counted against it.
func runMachine(c Conn, j int, pts geo.PointSet, cfg Config, sem chan struct{}) {
	defer c.Close()

	sem <- struct{}{}
	t0 := obs.NowNano()
	frame := encodeSample(machineSample(j, pts, cfg))
	mComputeNS.ObserveSince(t0)
	<-sem
	if c.Send(frame) != nil {
		return
	}

	bf, err := c.Recv()
	if err != nil {
		return
	}
	ptc, bf, err := detachTrace(bf)
	if err != nil {
		return
	}
	bc, err := decodeBroadcast(bf, cfg.Dim)
	if err != nil {
		return // coordinator sees the early close and aborts
	}

	// The machine's round-2 work runs under a span parented on the
	// coordinator's run span (carried by the broadcast header); its own
	// context rides every round-2 frame so the coordinator's link span
	// parents onto it in turn. With tracing off both contexts are zero
	// and every frame is sent headerless.
	msp := obs.Trace.StartChild(ptc, "dist.machine")
	msp.AttrInt("machine", int64(j))
	defer msp.End()
	mtc := msp.Context()

	sem <- struct{}{}
	defer func() { <-sem }()
	t1 := obs.NowNano()
	defer func() { mComputeNS.ObserveSince(t1) }()
	env := newShared(cfg, bc.O, bc.Seed)
	if !shiftEqual(env.g.Shift, bc.Shift) {
		return // shared-randomness reconstruction mismatch
	}
	newMachineCtx(cfg, env, pts).round2(func(frame []byte) error {
		return c.Send(attachTrace(frame, mtc))
	})
}
