package stream

import (
	"math/rand"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
)

// FuzzCoalescedIngestMatchesSerial: random dynamic streams — interleaved
// insertions and deletions of live points, with a duplication knob that
// replays each op up to 8× to stress the coalescer — applied through the
// key-coalescing batched pipeline must be bit-identical to the per-op
// Insert/Delete replay: same N, same StateDigest, same Bytes, and the
// same Result including the FAIL side (the tiny sketch budgets make
// over-full decodes common here, and coalescing must FAIL exactly when
// the per-op path does). The guess o = 2^(9 + oShift mod 16) sets the
// sampling rates: at 2^9 every sampler has rate 1 and the batch's shared
// rate-1 columns carry all of ingest; from 2^18 up some levels mix
// rate-1 and fractional samplers. Plain `go test` replays the seed
// corpus; `make check` fuzzes it for 15 s.
func FuzzCoalescedIngestMatchesSerial(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(30), uint8(64), uint8(0), uint8(0))
	f.Add(int64(2), uint16(700), uint8(0), uint8(255), uint8(7), uint8(0))
	f.Add(int64(3), uint16(400), uint8(80), uint8(16), uint8(3), uint8(0))
	f.Add(int64(4), uint16(64), uint8(50), uint8(1), uint8(1), uint8(0))
	f.Add(int64(5), uint16(900), uint8(10), uint8(128), uint8(5), uint8(0))
	f.Add(int64(6), uint16(600), uint8(40), uint8(64), uint8(2), uint8(12))

	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, delPct, chunkRaw, dupRaw, oShift uint8) {
		n := int(nRaw)%1024 + 1
		chunk := int(chunkRaw) + 1
		dup := int(dupRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))

		// Random dynamic stream (every prefix valid: deletes only live
		// points), each op replayed dup times back to back so batches
		// carry heavy key duplication when dup > 1.
		const delta = 1 << 8
		var live []geo.Point
		ops := make([]Op, 0, n*dup)
		for len(ops) < n*dup {
			if len(live) > 0 && int(delPct) > rng.Intn(256) {
				j := rng.Intn(len(live))
				for r := 0; r < dup; r++ {
					ops = append(ops, Op{P: live[j], Delete: true})
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			p := geo.Point{1 + rng.Int63n(delta), 1 + rng.Int63n(delta)}
			for r := 0; r < dup; r++ {
				ops = append(ops, Op{P: p})
			}
			live = append(live, p)
		}
		// dup deletes of a point that was inserted dup times keep every
		// prefix a valid stream: net multiplicity stays in [0, dup].

		cfg := Config{Dim: 2, Delta: delta, O: float64(int64(1) << (9 + oShift%16)),
			Params:       coreset.Params{K: 2, Seed: seed ^ 0x3c},
			CellSparsity: 64, PointSparsity: 128}

		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.Delete {
				ref.Delete(op.P)
			} else {
				ref.Insert(op.P)
			}
		}

		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(ops); i += chunk {
			end := i + chunk
			if end > len(ops) {
				end = len(ops)
			}
			s.Apply(ops[i:end])
		}
		if s.N() != ref.N() {
			t.Fatalf("N %d vs %d (chunk=%d dup=%d)", s.N(), ref.N(), chunk, dup)
		}
		if s.Bytes() != ref.Bytes() {
			t.Fatalf("Bytes %d vs %d", s.Bytes(), ref.Bytes())
		}
		if s.StateDigest() != ref.StateDigest() {
			t.Fatalf("state diverged from per-op replay (chunk=%d dup=%d)", chunk, dup)
		}
		ca, errA := ref.Result()
		cb, errB := s.Result()
		sameCoreset(t, ca, cb, errA, errB)
	})
}
