package dist

// Wire codec for the coordinator protocol. Every message crossing a Link
// is one framed byte string; Report.Bits is the measured length of these
// frames, replacing the closed-form pointBits/cellBits accounting (which
// Report.FormulaBits still carries for comparison).
//
// Frame layout: a one-byte type tag followed by a type-specific payload.
// All integers are LEB128 varints; signed values are zigzag-folded
// (internal/streamfmt). Cell indices and points are sorted
// lexicographically and delta-encoded coordinate-wise against the
// previous vector, so dense level summaries cost ~1 byte per coordinate
// instead of the log₂(2Δ)-bit fixed width of the formula accounting.
//
// Every frame has exactly one encoding, and the decoders accept nothing
// else: varints must be minimal, flag bytes 0 or 1, sample points
// non-decreasing, and round-2 cells and ĥ points strictly increasing.
// The coordinator's s-way merge of ĥ payloads relies on the last rule;
// together they make every accepted frame re-encode to itself.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"streambalance/internal/geo"
	"streambalance/internal/obs"
	"streambalance/internal/streamfmt"
)

// Frame type tags.
const (
	frameSample    byte = 1 // machine → coordinator, round 1 up
	frameBroadcast byte = 2 // coordinator → machine, round 1 down
	frameCellsH    byte = 3 // machine → coordinator, round 2: h cell counts
	frameCellsHP   byte = 4 // machine → coordinator, round 2: h′ cell counts
	frameHat       byte = 5 // machine → coordinator, round 2: ĥ point payload

	// frameTraceTag prefixes an optional trace-context header in front of
	// any frame: [0x80][version][16-byte trace id][8-byte span id][frame].
	// The tag sits outside the 1–5 payload range, so a receiver that
	// detaches before dispatching decodes old (headerless) frames
	// unchanged, and the header is version-gated for future growth.
	// The header is observability-only: Report.Bits charges the inner
	// frame, never the header, so traced and untraced runs report
	// bit-identical communication.
	frameTraceTag byte = 0x80
	traceHeaderV1 byte = 1
)

// traceHeaderLen is the full prefix length: tag + version + ids.
const traceHeaderLen = 2 + 16 + 8

var (
	errTruncated = errors.New("dist: truncated or malformed frame")
	errUnsorted  = errors.New("dist: frame entries out of canonical order")
)

// attachTrace prefixes frame with tc's trace-context header. An invalid
// (zero) context — tracing disabled, or an untraced span — returns the
// frame unchanged, which is what keeps disabled-telemetry runs byte-
// identical on the wire.
func attachTrace(frame []byte, tc obs.TraceContext) []byte {
	if !tc.Valid() {
		return frame
	}
	out := make([]byte, 0, traceHeaderLen+len(frame))
	out = append(out, frameTraceTag, traceHeaderV1)
	out = append(out, tc.TraceID[:]...)
	out = append(out, tc.SpanID[:]...)
	return append(out, frame...)
}

// detachTrace splits an optional trace-context header off a frame. A
// headerless frame passes through untouched with a zero context; an
// unknown header version is an error (the header is version-gated, not
// silently skipped, since its length may change).
func detachTrace(frame []byte) (obs.TraceContext, []byte, error) {
	if len(frame) == 0 || frame[0] != frameTraceTag {
		return obs.TraceContext{}, frame, nil
	}
	if len(frame) < traceHeaderLen {
		return obs.TraceContext{}, nil, errTruncated
	}
	if frame[1] != traceHeaderV1 {
		return obs.TraceContext{}, nil, fmt.Errorf("dist: unknown trace header version %d", frame[1])
	}
	var tc obs.TraceContext
	copy(tc.TraceID[:], frame[2:18])
	copy(tc.SpanID[:], frame[18:26])
	return tc, frame[traceHeaderLen:], nil
}

// wireCell is one non-empty cell in a round-2 count message: its level-i
// index vector and the machine's local (integer) point count.
type wireCell struct {
	Idx   []int64
	Count int64
}

// wirePoint is one distinct sampled point with its local multiplicity.
type wirePoint struct {
	P    geo.Point
	Mult int64
}

// sampleMsg is round 1 up: the machine's exact local size and a small
// uniform sample for the coordinator's OPT estimate.
type sampleMsg struct {
	LocalN int64
	Pts    []geo.Point
}

// broadcastMsg is round 1 down: the accepted guess o, the shared-
// randomness seed from which every machine reconstructs the identical
// grid shift, fingerprint and sampling hashes, and the shift itself (the
// machine cross-checks its reconstruction against it).
type broadcastMsg struct {
	O     float64
	Seed  int64
	Shift []int64
}

// cellsMsg is one machine's per-level h or h′ summary; Fail is Lemma
// 4.6's 1-bit FAIL (the local cell cap was exceeded).
type cellsMsg struct {
	Level int
	Fail  bool
	Cells []wireCell // unique Idx; sorted by encodeCells, and as decoded
}

// hatMsg is one machine's per-level ĥ point payload.
type hatMsg struct {
	Level int
	Fail  bool
	Pts   []wirePoint // strictly increasing P, Mult >= 1
}

// frameType returns the type tag of a frame (0 if empty).
func frameType(frame []byte) byte {
	if len(frame) == 0 {
		return 0
	}
	return frame[0]
}

// reader is a cursor over a frame payload that latches the first error.
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) uvarint() uint64 {
	v, n := streamfmt.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *reader) deltaVec(prev []int64) {
	n, ok := streamfmt.DeltaVec(r.b[r.off:], prev)
	if !ok {
		r.bad = true
		return
	}
	r.off += n
}

// level reads a level tag in [0, maxLevel].
func (r *reader) level(maxLevel int) int {
	v := r.uvarint()
	if maxLevel < 0 || v > uint64(maxLevel) {
		r.bad = true
		return 0
	}
	return int(v)
}

// count reads a positive multiplicity or cell count.
func (r *reader) count() int64 {
	v := r.uvarint()
	if v < 1 || v > math.MaxInt64 {
		r.bad = true
		return 0
	}
	return int64(v)
}

// flag reads a FAIL byte, which must be 0 or 1.
func (r *reader) flag() bool {
	b := r.byte()
	if b > 1 {
		r.bad = true
	}
	return b == 1
}

func (r *reader) fixed64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(r.b[r.off+i]) << (8 * i)
	}
	r.off += 8
	return v
}

func (r *reader) byte() byte {
	if r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *reader) done() error {
	if r.bad {
		return errTruncated
	}
	if r.off != len(r.b) {
		return fmt.Errorf("dist: %d trailing bytes in frame", len(r.b)-r.off)
	}
	return nil
}

func appendFixed64(dst []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

// encodeSample frames a round-1 sample message, sorting Pts in place.
func encodeSample(m sampleMsg) []byte {
	slices.SortFunc(m.Pts, geo.Point.Compare)
	dim := 0
	if len(m.Pts) > 0 {
		dim = len(m.Pts[0])
	}
	dst := append(make([]byte, 0, 8+len(m.Pts)*(dim+1)), frameSample)
	dst = streamfmt.AppendUvarint(dst, uint64(m.LocalN))
	dst = streamfmt.AppendUvarint(dst, uint64(len(m.Pts)))
	prev := make([]int64, dim)
	for _, p := range m.Pts {
		dst = streamfmt.AppendDeltaVec(dst, prev, p)
	}
	return dst
}

func decodeSample(frame []byte, dim int) (sampleMsg, error) {
	if frameType(frame) != frameSample {
		return sampleMsg{}, fmt.Errorf("dist: expected sample frame, got type %d", frameType(frame))
	}
	r := &reader{b: frame, off: 1}
	m := sampleMsg{LocalN: int64(r.uvarint())}
	n := r.uvarint()
	if r.bad || m.LocalN < 0 || n > uint64(len(frame))/uint64(dim) {
		return sampleMsg{}, errTruncated
	}
	prev := make([]int64, dim)
	if n > 0 {
		m.Pts = make([]geo.Point, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		r.deltaVec(prev)
		if r.bad {
			return sampleMsg{}, errTruncated
		}
		p := geo.Point(append([]int64(nil), prev...))
		if i > 0 && p.Compare(m.Pts[i-1]) < 0 {
			return sampleMsg{}, errUnsorted
		}
		m.Pts = append(m.Pts, p)
	}
	if err := r.done(); err != nil {
		return sampleMsg{}, err
	}
	return m, nil
}

func encodeBroadcast(m broadcastMsg) []byte {
	dst := append(make([]byte, 0, 24+len(m.Shift)*2), frameBroadcast)
	dst = appendFixed64(dst, math.Float64bits(m.O))
	dst = appendFixed64(dst, uint64(m.Seed))
	dst = streamfmt.AppendUvarint(dst, uint64(len(m.Shift)))
	for _, v := range m.Shift {
		dst = streamfmt.AppendZigzag(dst, v)
	}
	return dst
}

func decodeBroadcast(frame []byte, dim int) (broadcastMsg, error) {
	if frameType(frame) != frameBroadcast {
		return broadcastMsg{}, fmt.Errorf("dist: expected broadcast frame, got type %d", frameType(frame))
	}
	r := &reader{b: frame, off: 1}
	m := broadcastMsg{O: math.Float64frombits(r.fixed64()), Seed: int64(r.fixed64())}
	d := r.uvarint()
	if r.bad || d != uint64(dim) {
		return broadcastMsg{}, errTruncated
	}
	m.Shift = make([]int64, dim)
	r.deltaVec(m.Shift) // deltas against zero = absolute zigzag values
	if err := r.done(); err != nil {
		return broadcastMsg{}, err
	}
	return m, nil
}

// encodeCells frames a round-2 count message (typ selects h vs h′),
// sorting Cells in place.
func encodeCells(typ byte, m cellsMsg) []byte {
	slices.SortFunc(m.Cells, func(a, b wireCell) int { return slices.Compare(a.Idx, b.Idx) })
	dim := 0
	if len(m.Cells) > 0 {
		dim = len(m.Cells[0].Idx)
	}
	dst := append(make([]byte, 0, 4+len(m.Cells)*(dim+2)), typ)
	dst = streamfmt.AppendUvarint(dst, uint64(m.Level))
	if m.Fail {
		return append(dst, 1)
	}
	dst = append(dst, 0)
	dst = streamfmt.AppendUvarint(dst, uint64(len(m.Cells)))
	prev := make([]int64, dim)
	for _, c := range m.Cells {
		dst = streamfmt.AppendDeltaVec(dst, prev, c.Idx)
		dst = streamfmt.AppendUvarint(dst, uint64(c.Count))
	}
	return dst
}

// decodeCells decodes a round-2 count frame. All cell indices share one
// flat coordinate array; they must be strictly increasing.
func decodeCells(frame []byte, dim, maxLevel int) (cellsMsg, error) {
	if t := frameType(frame); t != frameCellsH && t != frameCellsHP {
		return cellsMsg{}, fmt.Errorf("dist: expected cells frame, got type %d", t)
	}
	r := &reader{b: frame, off: 1}
	m := cellsMsg{Level: r.level(maxLevel)}
	if m.Fail = r.flag(); m.Fail || r.bad {
		if err := r.done(); err != nil {
			return cellsMsg{}, err
		}
		return m, nil
	}
	n := r.uvarint()
	if r.bad || n > uint64(len(frame))/uint64(dim+1) {
		return cellsMsg{}, errTruncated
	}
	if n > 0 {
		m.Cells = make([]wireCell, n)
	}
	flat := make([]int64, int(n)*dim)
	for i := range m.Cells {
		idx := flat[i*dim : (i+1)*dim]
		if i > 0 {
			copy(idx, m.Cells[i-1].Idx)
		}
		r.deltaVec(idx)
		m.Cells[i] = wireCell{Idx: idx, Count: r.count()}
		if r.bad {
			return cellsMsg{}, errTruncated
		}
		if i > 0 && slices.Compare(m.Cells[i-1].Idx, idx) >= 0 {
			return cellsMsg{}, errUnsorted
		}
	}
	if err := r.done(); err != nil {
		return cellsMsg{}, err
	}
	return m, nil
}

// encodeHat frames a round-2 ĥ point payload. Pts must already be in
// canonical order — strictly increasing — as machines build them.
func encodeHat(m hatMsg) []byte {
	dim := 0
	if len(m.Pts) > 0 {
		dim = len(m.Pts[0].P)
	}
	dst := append(make([]byte, 0, 4+len(m.Pts)*(dim+2)), frameHat)
	dst = streamfmt.AppendUvarint(dst, uint64(m.Level))
	if m.Fail {
		return append(dst, 1)
	}
	dst = append(dst, 0)
	dst = streamfmt.AppendUvarint(dst, uint64(len(m.Pts)))
	prev := make([]int64, dim)
	for _, p := range m.Pts {
		dst = streamfmt.AppendDeltaVec(dst, prev, p.P)
		dst = streamfmt.AppendUvarint(dst, uint64(p.Mult))
	}
	return dst
}

// decodeHat decodes a round-2 ĥ frame. All points share one flat
// coordinate array; they must be strictly increasing.
func decodeHat(frame []byte, dim, maxLevel int) (hatMsg, error) {
	if frameType(frame) != frameHat {
		return hatMsg{}, fmt.Errorf("dist: expected hat frame, got type %d", frameType(frame))
	}
	r := &reader{b: frame, off: 1}
	m := hatMsg{Level: r.level(maxLevel)}
	if m.Fail = r.flag(); m.Fail || r.bad {
		if err := r.done(); err != nil {
			return hatMsg{}, err
		}
		return m, nil
	}
	n := r.uvarint()
	if r.bad || n > uint64(len(frame))/uint64(dim+1) {
		return hatMsg{}, errTruncated
	}
	if n > 0 {
		m.Pts = make([]wirePoint, n)
	}
	flat := make([]int64, int(n)*dim)
	for i := range m.Pts {
		p := geo.Point(flat[i*dim : (i+1)*dim])
		if i > 0 {
			copy(p, m.Pts[i-1].P)
		}
		r.deltaVec(p)
		m.Pts[i] = wirePoint{P: p, Mult: r.count()}
		if r.bad {
			return hatMsg{}, errTruncated
		}
		if i > 0 && m.Pts[i-1].P.Compare(p) >= 0 {
			return hatMsg{}, errUnsorted
		}
	}
	if err := r.done(); err != nil {
		return hatMsg{}, err
	}
	return m, nil
}
