package dist

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"streambalance/internal/geo"
)

// FuzzWireRoundTrip drives the codec both ways: arbitrary bytes are
// interpreted (a) as a structured message that must survive
// encode→decode exactly, and (b) as a raw frame that every decoder must
// reject or accept without panicking.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(encodeSample(sampleMsg{LocalN: 3, Pts: []geo.Point{{1, 2}, {3, 4}}}))
	f.Add(encodeBroadcast(broadcastMsg{O: 8, Seed: 7, Shift: []int64{1, -2}}))
	f.Add(encodeCells(frameCellsH, cellsMsg{Level: 1, Cells: []wireCell{{Idx: []int64{0, 1}, Count: 2}}}))
	f.Add(encodeHat(hatMsg{Level: 0, Pts: []wirePoint{{P: geo.Point{5, 6}, Mult: 1}}}))
	f.Add([]byte{frameHat, 0, 0, 2, 4, 4, 1, 1, 6, 1}) // out of order
	f.Add([]byte{frameCellsHP, 0x80, 0x00, 1})         // padded varint

	f.Fuzz(func(t *testing.T, data []byte) {
		// (a) structured round trip: derive a message from the bytes.
		cur := &reader{b: data}
		next := func(mod int64) int64 {
			v := int64(cur.uvarint())
			if mod > 0 {
				v %= mod
			}
			return v
		}
		const dim = 2
		var pts []geo.Point
		seen := map[string]bool{}
		for !cur.bad && len(pts) < 64 {
			p := geo.Point{next(1 << 16), next(1 << 16)}
			if cur.bad {
				break
			}
			if k := p.String(); !seen[k] {
				seen[k] = true
				pts = append(pts, p)
			}
		}
		sm := sampleMsg{LocalN: int64(len(pts)) + 1, Pts: append([]geo.Point(nil), pts...)}
		got, err := decodeSample(encodeSample(sm), dim)
		if err != nil {
			t.Fatalf("sample: %v", err)
		}
		if got.LocalN != sm.LocalN || !reflect.DeepEqual(got.Pts, sm.Pts) {
			t.Fatal("sample round trip mismatch")
		}

		slices.SortFunc(pts, geo.Point.Compare) // encodeHat's precondition
		cm := cellsMsg{Level: int(sm.LocalN % 8)}
		hm := hatMsg{Level: cm.Level}
		for i, p := range pts {
			cm.Cells = append(cm.Cells, wireCell{Idx: append([]int64(nil), p...), Count: int64(i) + 1})
			hm.Pts = append(hm.Pts, wirePoint{P: p, Mult: int64(i)%5 + 1})
		}
		gc, err := decodeCells(encodeCells(frameCellsHP, cm), dim, 8)
		if err != nil {
			t.Fatalf("cells: %v", err)
		}
		if gc.Level != cm.Level || !reflect.DeepEqual(gc.Cells, cm.Cells) {
			t.Fatal("cells round trip mismatch")
		}
		gh, err := decodeHat(encodeHat(hm), dim, 8)
		if err != nil {
			t.Fatalf("hat: %v", err)
		}
		if gh.Level != hm.Level || !reflect.DeepEqual(gh.Pts, hm.Pts) {
			t.Fatal("hat round trip mismatch")
		}

		// (b) raw decode: must never panic on arbitrary frames, and every
		// frame a decoder accepts is canonical — it re-encodes to itself.
		if m, err := decodeSample(data, dim); err == nil && !bytes.Equal(encodeSample(m), data) {
			t.Fatalf("accepted sample frame %x does not re-encode to itself", data)
		}
		if m, err := decodeBroadcast(data, dim); err == nil && !bytes.Equal(encodeBroadcast(m), data) {
			t.Fatalf("accepted broadcast frame %x does not re-encode to itself", data)
		}
		if m, err := decodeCells(data, dim, 16); err == nil && !bytes.Equal(encodeCells(data[0], m), data) {
			t.Fatalf("accepted cells frame %x does not re-encode to itself", data)
		}
		if m, err := decodeHat(data, dim, 16); err == nil && !bytes.Equal(encodeHat(m), data) {
			t.Fatalf("accepted hat frame %x does not re-encode to itself", data)
		}
	})
}
