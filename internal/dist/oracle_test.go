package dist

// Independent oracle for round 2 of the protocol. It keeps the design the
// sorted-payload pipeline replaced: machines aggregate cells and ĥ points
// in hash maps keyed by fingerprint, emit them in first-seen order and
// let the codec sort; the coordinator merges into per-cell and per-point
// map entries; assembly collects each level's merged points, sorts them
// alphabetically and locates every point's part with PartOf. Round 1 is
// shared with production. The oracle runs machine-major in one
// goroutine and records every round-2 frame, so the production path can
// be pinned to it frame by frame and report by report.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/hashing"
	"streambalance/internal/partition"
)

// oracleMachine is one machine's round-2 state in the oracle: its points
// in input order and their fingerprint keys.
type oracleMachine struct {
	cfg  Config
	env  *shared
	pts  geo.PointSet
	keys []uint64
}

func newOracleMachine(cfg Config, env *shared, pts geo.PointSet) *oracleMachine {
	om := &oracleMachine{cfg: cfg, env: env, pts: pts, keys: make([]uint64, len(pts))}
	for i, q := range pts {
		om.keys[i] = env.fp.Key(q)
	}
	return om
}

// cellsAt computes the machine's level-i non-empty-cell counts under the
// given sampler, FAILing when the distinct-cell cap is exceeded.
func (om *oracleMachine) cellsAt(level int, samp *hashing.Bernoulli) cellsMsg {
	g := om.env.g
	pos := map[uint64]int{}
	var list []wireCell
	idx := make([]int64, 0, g.Dim)
	for i, q := range om.pts {
		if !samp.Sample(om.keys[i]) {
			continue
		}
		idx = g.CellIndexInto(idx[:0], q, level)
		key := g.KeyOf(level, idx)
		if at, ok := pos[key]; ok {
			list[at].Count++
			continue
		}
		if len(list) >= om.cfg.CellCap {
			return cellsMsg{Level: level, Fail: true}
		}
		pos[key] = len(list)
		list = append(list, wireCell{Idx: append([]int64(nil), idx...), Count: 1})
	}
	return cellsMsg{Level: level, Cells: list}
}

// hatAt computes the machine's level-i ĥ point payload (distinct points
// with multiplicities, in first-seen order), FAILing when total sampled
// occurrences exceed the point cap.
func (om *oracleMachine) hatAt(level int) hatMsg {
	samp := om.env.hatSamp[level]
	pos := map[uint64]int{}
	var list []wirePoint
	occ := 0
	for i, q := range om.pts {
		if !samp.Sample(om.keys[i]) {
			continue
		}
		occ++
		if occ > om.cfg.PointCap {
			return hatMsg{Level: level, Fail: true}
		}
		if at, ok := pos[om.keys[i]]; ok {
			list[at].Mult++
			continue
		}
		pos[om.keys[i]] = len(list)
		list = append(list, wirePoint{P: q, Mult: 1})
	}
	return hatMsg{Level: level, Pts: list}
}

// mcell and mpoint are the oracle's merged round-2 entries.
type mcell struct {
	idx   []int64
	count int64
}

type mpoint struct {
	p    geo.Point
	mult int64
}

// oracleCells is one level's merged h or h′ counts.
type oracleCells struct {
	failed bool
	cells  map[uint64]*mcell
}

// oracleHat is one level's merged ĥ points.
type oracleHat struct {
	failed, lowestFail int
	pts                map[uint64]*mpoint
}

// oracleFrame is one round-2 frame as a machine emitted it.
type oracleFrame struct {
	machine, level int
	kind           byte
	frame          []byte
}

// oracleRun runs the protocol through the oracle's round 2, returning
// the Report, every round-2 frame in emission order (machine-major, then
// level, then h, h′, ĥ), and the shared randomness machines reconstruct.
func oracleRun(machines []geo.PointSet, cfg Config) (*Report, []oracleFrame, *shared, error) {
	cfg, err := validate(machines, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	s := len(machines)
	co := newCoordinator(cfg, s)
	for j, m := range machines {
		co.addSample(j, encodeSample(machineSample(j, m, cfg)))
	}
	if err := co.firstErr(); err != nil {
		return nil, nil, nil, err
	}
	bframe, err := co.finishRound1()
	if err != nil {
		return nil, nil, nil, err
	}
	env := co.env
	g := env.g
	L := g.L

	hAgg := make([]*oracleCells, L+1)
	hpAgg := make([]*oracleCells, L+1)
	hatAgg := make([]*oracleHat, L+1)
	for i := range hAgg {
		hAgg[i] = &oracleCells{cells: map[uint64]*mcell{}}
		hpAgg[i] = &oracleCells{cells: map[uint64]*mcell{}}
		hatAgg[i] = &oracleHat{lowestFail: -1, pts: map[uint64]*mpoint{}}
	}
	charge := func(phase string, frameBytes int, formula int64) {
		co.mu.Lock()
		co.chargeLocked(phase, frameBytes)
		co.formulaLocked(phase, formula)
		co.mu.Unlock()
	}
	var frames []oracleFrame
	addCells := func(j int, typ byte, agg *oracleCells, phase string, m cellsMsg) {
		frame := encodeCells(typ, m)
		frames = append(frames, oracleFrame{machine: j, level: m.Level, kind: typ, frame: frame})
		if m.Fail {
			charge(phase, len(frame), 1)
			agg.failed = true
			return
		}
		charge(phase, len(frame), int64(len(m.Cells))*cellBits(cfg.Dim, cfg.Delta)+1)
		for _, c := range m.Cells {
			key := g.KeyOf(m.Level, c.Idx)
			if cur, ok := agg.cells[key]; ok {
				cur.count += c.Count
			} else {
				agg.cells[key] = &mcell{idx: c.Idx, count: c.Count}
			}
		}
	}
	addHat := func(j int, m hatMsg) {
		sort.Slice(m.Pts, func(a, b int) bool { return m.Pts[a].P.Less(m.Pts[b].P) })
		frame := encodeHat(m)
		frames = append(frames, oracleFrame{machine: j, level: m.Level, kind: frameHat, frame: frame})
		agg := hatAgg[m.Level]
		if m.Fail {
			charge("round2-hat", len(frame), 1)
			if agg.failed++; agg.lowestFail < 0 {
				agg.lowestFail = j
			}
			return
		}
		var occ int64
		for _, wp := range m.Pts {
			occ += wp.Mult
			key := env.fp.Key(wp.P)
			if cur, ok := agg.pts[key]; ok {
				cur.mult += wp.Mult
			} else {
				agg.pts[key] = &mpoint{p: wp.P, mult: wp.Mult}
			}
		}
		charge("round2-hat", len(frame), occ*pointBits(cfg.Dim, cfg.Delta)+1)
	}
	for j, m := range machines {
		co.chargeBroadcast(len(bframe))
		om := newOracleMachine(cfg, env, m)
		for level := 0; level <= L; level++ {
			if level < L {
				addCells(j, frameCellsH, hAgg[level], "round2-h", om.cellsAt(level, env.hSamp[level]))
			}
			addCells(j, frameCellsHP, hpAgg[level], "round2-hp", om.cellsAt(level, env.hpSamp[level]))
			addHat(j, om.hatAt(level))
		}
	}

	source := func(aggs []*oracleCells, rates []float64) partition.CountSource {
		return func(level int) (map[uint64]partition.CellTau, bool) {
			if level == -1 {
				return co.root, true
			}
			if aggs[level].failed {
				return nil, false
			}
			out := make(map[uint64]partition.CellTau, len(aggs[level].cells))
			for key, c := range aggs[level].cells {
				out[key] = partition.CellTau{Index: c.idx, Tau: float64(c.count) / rates[level]}
			}
			return out, true
		}
	}
	p := cfg.Params
	part, err := partition.BuildLazy(g, p.R, co.o, source(hAgg, env.psi), source(hpAgg, env.psiP))
	if err != nil {
		return nil, frames, env, fmt.Errorf("dist: %w (a machine exceeded its level cap)", err)
	}
	pl := coreset.BuildPlan(part, p)
	if pl.Failed() {
		return nil, frames, env, fmt.Errorf("dist: plan FAILed: %s", pl.FailWhy)
	}
	needLevel := make([]bool, L+1)
	for id := range pl.Included {
		needLevel[id.Level] = true
	}
	cs := &coreset.Coreset{O: co.o, Grid: g, Part: part, Plan: pl, Params: p}
	for i := 0; i <= L; i++ {
		if !needLevel[i] {
			continue
		}
		agg := hatAgg[i]
		if agg.failed > 0 {
			return nil, frames, env, fmt.Errorf("dist: machine %d exceeded point cap at level %d (%d of %d machines failed)",
				agg.lowestFail, i, agg.failed, s)
		}
		pts := make([]*mpoint, 0, len(agg.pts))
		for _, e := range agg.pts {
			pts = append(pts, e)
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].p.Less(pts[b].p) })
		for _, e := range pts {
			id, ok := part.PartOf(e.p)
			if !ok || id.Level != i || !pl.Included[id] {
				continue
			}
			cs.Points = append(cs.Points, geo.Weighted{P: e.p, W: float64(e.mult) / env.phi[i]})
			cs.Levels = append(cs.Levels, i)
		}
	}
	co.rep.Coreset = cs
	return co.rep, frames, env, nil
}

// productionFrames collects the production machine side's round-2 frames
// over the oracle's shared randomness, in the oracle's emission order.
func productionFrames(machines []geo.PointSet, cfg Config, env *shared) []oracleFrame {
	cfg, err := validate(machines, cfg)
	if err != nil {
		panic(err)
	}
	var out []oracleFrame
	for j, m := range machines {
		newMachineCtx(cfg, env, m).round2(func(frame []byte) error {
			f := oracleFrame{machine: j, kind: frame[0], frame: frame}
			if f.kind == frameHat {
				hm, err := decodeHat(frame, cfg.Dim, env.g.L)
				if err != nil {
					return err
				}
				f.level = hm.Level
			} else {
				cm, err := decodeCells(frame, cfg.Dim, env.g.L)
				if err != nil {
					return err
				}
				f.level = cm.Level
			}
			out = append(out, f)
			return nil
		})
	}
	return out
}

// round2Input builds one oracle-comparison input: n points of the test
// mixture split across s machines at random, or, when dup is set, n
// draws from only n/16+1 distinct sites, so multiplicities are large and
// the same point sits on several machines.
func round2Input(seed int64, n, s int, dup bool) []geo.PointSet {
	ps, _ := testMixture(seed, n)
	rng := rand.New(rand.NewSource(seed + 1))
	if dup {
		sites := ps[:n/16+1]
		for i := range ps {
			ps[i] = sites[rng.Intn(len(sites))].Clone()
		}
	}
	return splitAcross(ps, s, rng)
}

// round2Config returns the protocol config of one comparison case: caps
// 0 keeps the default caps, 1 sets a cell cap and 2 a point cap tight
// enough that some machines FAIL on some levels.
func round2Config(seed int64, n, s int, spp float64, caps int) Config {
	cfg := Config{Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: seed, SamplesPerPart: spp}}
	switch caps {
	case 1:
		cfg.CellCap = 4 + n/(8*s)
	case 2:
		cfg.PointCap = 1 + n/(4*s)
	}
	return cfg
}

// round2Driver is one production driver configuration.
type round2Driver struct {
	name string
	run  func([]geo.PointSet, Config) (*Report, error)
}

func round2Drivers() []round2Driver {
	ds := []round2Driver{{"serial", RunSerial}}
	for _, tr := range []Transport{ChanTransport{}, PipeTransport{}} {
		for _, w := range []int{0, 1, 2, 8} {
			ds = append(ds, round2Driver{fmt.Sprintf("%T/workers=%d", tr, w), func(m []geo.PointSet, cfg Config) (*Report, error) {
				cfg.Transport, cfg.Workers = tr, w
				return Run(m, cfg)
			}})
		}
	}
	return ds
}

// checkRound2 pins every production driver to the oracle on one input:
// byte-identical round-2 frames, then an identical Report or error text.
// It returns the oracle's outcome ("ok" or the error) for coverage.
func checkRound2(t *testing.T, tag string, machines []geo.PointSet, cfg Config, drivers []round2Driver) string {
	t.Helper()
	want, wantFrames, env, wantErr := oracleRun(machines, cfg)
	if env != nil {
		got := productionFrames(machines, cfg, env)
		if len(got) != len(wantFrames) {
			t.Fatalf("%s: %d production frames vs %d oracle frames", tag, len(got), len(wantFrames))
		}
		for i, f := range got {
			w := wantFrames[i]
			if f.machine != w.machine || f.level != w.level || f.kind != w.kind || !bytes.Equal(f.frame, w.frame) {
				t.Fatalf("%s: frame %d (machine %d, level %d, type %d) differs from the oracle's (machine %d, level %d, type %d)",
					tag, i, f.machine, f.level, f.kind, w.machine, w.level, w.kind)
			}
		}
	}
	for _, d := range drivers {
		rep, err := d.run(machines, cfg)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s %s: error %v, oracle %v", tag, d.name, err, wantErr)
			}
			continue
		}
		if diff := reportDiff(want, rep); diff != "" {
			t.Fatalf("%s %s: %s", tag, d.name, diff)
		}
		checkCompact(t, tag+" "+d.name, rep.Coreset)
	}
	if wantErr != nil {
		return wantErr.Error()
	}
	return "ok"
}

// checkCompact asserts the coreset's points live in one compact array of
// their own — cap == Dim each, laid out back to back — so none aliases a
// decoded frame and a retained Report pins nothing else.
func checkCompact(t *testing.T, tag string, cs *coreset.Coreset) {
	t.Helper()
	d := cs.Grid.Dim
	for i, wp := range cs.Points {
		if len(wp.P) != d || cap(wp.P) != d {
			t.Fatalf("%s: coreset point %d has len %d cap %d, want %d", tag, i, len(wp.P), cap(wp.P), d)
		}
		if i > 0 {
			prev := uintptr(unsafe.Pointer(unsafe.SliceData(cs.Points[i-1].P)))
			if uintptr(unsafe.Pointer(unsafe.SliceData(wp.P))) != prev+uintptr(d)*unsafe.Sizeof(int64(0)) {
				t.Fatalf("%s: coreset point %d is not adjacent to point %d", tag, i, i-1)
			}
		}
	}
}

// TestRound2MatchesOracle pins the sorted-payload round 2 — machine
// frames, merge, assembly — to the oracle over inputs that vary size,
// machine count, duplication, part sampling and caps, at every driver:
// RunSerial and Run at several worker counts over both transports. In
// -short mode each input runs RunSerial and one rotating Run variant.
func TestRound2MatchesOracle(t *testing.T) {
	drivers := round2Drivers()
	outcomes := map[string]int{}
	c := 0
	for _, n := range []int{300, 2000, 4096, 6000} {
		for _, s := range []int{1, 3, 8, 16} {
			for _, dup := range []bool{false, true} {
				for _, spp := range []float64{0, 32} {
					for caps := 0; caps < 3; caps++ {
						seed := int64(100 + c)
						ds := drivers
						if testing.Short() {
							ds = []round2Driver{drivers[0], drivers[1+c%(len(drivers)-1)]}
						}
						c++
						tag := fmt.Sprintf("n=%d s=%d dup=%v spp=%v caps=%d", n, s, dup, spp, caps)
						out := checkRound2(t, tag, round2Input(seed, n, s, dup), round2Config(seed, n, s, spp, caps), ds)
						switch {
						case out == "ok":
							outcomes["ok"]++
						case strings.Contains(out, "point cap"):
							outcomes["point-cap FAIL"]++
						case strings.Contains(out, "level cap"):
							outcomes["cell-cap FAIL"]++
						default:
							outcomes["other error"]++
						}
					}
				}
			}
		}
	}
	for _, o := range []string{"ok", "point-cap FAIL", "cell-cap FAIL"} {
		if outcomes[o] == 0 {
			t.Fatalf("no input produced %q: outcomes %v", o, outcomes)
		}
	}
	t.Logf("outcomes over %d inputs: %v", c, outcomes)
}

// FuzzRound2MatchesOracle drives the oracle comparison from arbitrary
// inputs: size, machine count, duplication, part sampling, caps, driver
// and seed all come from the fuzzer.
func FuzzRound2MatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(3), uint8(0))
	f.Add(int64(2), uint16(1200), uint8(8), uint8(0b0110_0011))
	f.Add(int64(3), uint16(90), uint8(15), uint8(0b1010_1001))
	f.Add(int64(4), uint16(700), uint8(1), uint8(0b0001_0110))
	drivers := round2Drivers()
	f.Fuzz(func(t *testing.T, seed int64, n uint16, s, flags uint8) {
		nn, ss := 1+int(n)%1500, 1+int(s)%16
		dup := flags&1 != 0
		spp := 0.0
		if flags&2 != 0 {
			spp = 32
		}
		caps := int(flags>>2) % 3
		d := drivers[int(flags>>4)%len(drivers)]
		tag := fmt.Sprintf("seed=%d n=%d s=%d dup=%v spp=%v caps=%d", seed, nn, ss, dup, spp, caps)
		checkRound2(t, tag, round2Input(seed, nn, ss, dup), round2Config(seed, nn, ss, spp, caps),
			[]round2Driver{drivers[0], d})
	})
}
