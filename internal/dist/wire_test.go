package dist

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streambalance/internal/geo"
)

func randPoint(rng *rand.Rand, dim int, delta int64) geo.Point {
	p := make(geo.Point, dim)
	for j := range p {
		p[j] = rng.Int63n(delta)
	}
	return p
}

func TestSampleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 200} {
		m := sampleMsg{LocalN: int64(n) * 10}
		for i := 0; i < n; i++ {
			m.Pts = append(m.Pts, randPoint(rng, 3, 1<<10))
		}
		frame := encodeSample(m) // sorts m.Pts in place
		got, err := decodeSample(frame, 3)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.LocalN != m.LocalN || !reflect.DeepEqual(got.Pts, m.Pts) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestBroadcastRoundTrip(t *testing.T) {
	m := broadcastMsg{O: 1234.5, Seed: -99, Shift: []int64{3, -511, 0, 1 << 20}}
	got, err := decodeBroadcast(encodeBroadcast(m), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.O != m.O || got.Seed != m.Seed || !reflect.DeepEqual(got.Shift, m.Shift) {
		t.Fatalf("got %+v want %+v", got, m)
	}
	if _, err := decodeBroadcast(encodeBroadcast(m), 3); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestCellsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := cellsMsg{Level: 5}
	seen := map[string]bool{}
	for len(m.Cells) < 300 {
		idx := []int64(randPoint(rng, 2, 1<<9))
		if k := geo.Point(idx).String(); !seen[k] {
			seen[k] = true
			m.Cells = append(m.Cells, wireCell{Idx: idx, Count: rng.Int63n(1000) + 1})
		}
	}
	frame := encodeCells(frameCellsH, m) // sorts in place
	got, err := decodeCells(frame, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != 5 || got.Fail || !reflect.DeepEqual(got.Cells, m.Cells) {
		t.Fatal("cells round trip mismatch")
	}
	// Sorted dense indices must beat the formula's fixed-width cells.
	if measured := int64(len(frame)) * 8; measured >= int64(len(m.Cells))*cellBits(2, 1<<9) {
		t.Fatalf("measured %d bits >= formula %d", measured, int64(len(m.Cells))*cellBits(2, 1<<9))
	}

	fail := cellsMsg{Level: 3, Fail: true}
	gotF, err := decodeCells(encodeCells(frameCellsHP, fail), 2, 10)
	if err != nil || !gotF.Fail || gotF.Level != 3 {
		t.Fatalf("FAIL round trip: %+v err=%v", gotF, err)
	}
	if _, err := decodeCells(encodeCells(frameCellsH, cellsMsg{Level: 11}), 2, 10); err == nil {
		t.Fatal("level beyond maxLevel must error")
	}
}

func TestHatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := hatMsg{Level: 2}
	seen := map[string]bool{}
	for len(m.Pts) < 100 {
		p := randPoint(rng, 3, 1<<8)
		if k := p.String(); !seen[k] {
			seen[k] = true
			m.Pts = append(m.Pts, wirePoint{P: p, Mult: rng.Int63n(9) + 1})
		}
	}
	slices.SortFunc(m.Pts, func(a, b wirePoint) int { return a.P.Compare(b.P) }) // encodeHat's precondition
	got, err := decodeHat(encodeHat(m), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != 2 || got.Fail || !reflect.DeepEqual(got.Pts, m.Pts) {
		t.Fatal("hat round trip mismatch")
	}

	gotF, err := decodeHat(encodeHat(hatMsg{Level: 1, Fail: true}), 3, 5)
	if err != nil || !gotF.Fail {
		t.Fatalf("FAIL round trip: %+v err=%v", gotF, err)
	}
}

// Decoders must reject garbage with an error, never panic or accept.
func TestDecodersRejectMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{frameSample},
		{frameBroadcast, 1, 2, 3},
		{frameCellsH, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{frameHat, 0, 0, 5},
		append(encodeSample(sampleMsg{LocalN: 1}), 0xee), // trailing byte
		{frameCellsH, 0, 0, 1, 0, 0, 0},                  // count 0 cell

		// Non-canonical frames. Coordinates are zigzag deltas: 4 = +2,
		// 1 = −1, 6 = +3, so (2,2) then (1,5) is out of order.
		{frameSample, 2, 2, 4, 4, 1, 6},           // sample points decreasing
		{frameCellsH, 0, 0, 2, 4, 4, 1, 1, 6, 1},  // cells out of order
		{frameCellsHP, 0, 0, 2, 4, 4, 1, 0, 0, 1}, // duplicate cell
		{frameHat, 0, 0, 2, 4, 4, 1, 1, 6, 1},     // points out of order
		{frameHat, 0, 0, 2, 4, 4, 1, 0, 0, 1},     // duplicate point
		{frameHat, 0x80, 0x00, 1},                 // padded (non-minimal) level varint
		{frameHat, 0, 0, 1, 0x84, 0x00, 4, 1},     // padded coordinate varint
		{frameHat, 0, 2},                          // FAIL flag neither 0 nor 1
		{frameCellsH, 0, 2},                       // FAIL flag neither 0 nor 1
		{frameCellsH, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1},          // level 2⁶⁴−1
		{frameHat, 0, 0, 1, 4, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // mult ≥ 2⁶³
	}
	for i, frame := range cases {
		if _, err := decodeSample(frame, 2); err == nil && frameType(frame) == frameSample {
			t.Fatalf("case %d: sample decode accepted garbage", i)
		}
		if _, err := decodeBroadcast(frame, 2); err == nil && frameType(frame) == frameBroadcast {
			t.Fatalf("case %d: broadcast decode accepted garbage", i)
		}
		if _, err := decodeCells(frame, 2, 10); err == nil && (frameType(frame) == frameCellsH || frameType(frame) == frameCellsHP) {
			t.Fatalf("case %d: cells decode accepted garbage", i)
		}
		if _, err := decodeHat(frame, 2, 10); err == nil && frameType(frame) == frameHat {
			t.Fatalf("case %d: hat decode accepted garbage", i)
		}
	}
	// Controls: the canonical neighbours of the out-of-order cases decode.
	for i, frame := range [][]byte{
		{frameSample, 2, 2, 4, 4, 0, 6},
		{frameCellsH, 0, 0, 2, 4, 4, 1, 0, 6, 1},
		{frameHat, 0, 0, 2, 4, 4, 1, 0, 6, 1},
		{frameHat, 0, 1},
	} {
		var err error
		switch frameType(frame) {
		case frameSample:
			_, err = decodeSample(frame, 2)
		case frameCellsH:
			_, err = decodeCells(frame, 2, 10)
		default:
			_, err = decodeHat(frame, 2, 10)
		}
		if err != nil {
			t.Fatalf("control %d rejected: %v", i, err)
		}
	}
}
