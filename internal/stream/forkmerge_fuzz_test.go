package stream

import (
	"math/rand"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
)

// FuzzForkMerge: random op sequences — interleaved insertions and
// deletions of previously-inserted points — split round-robin across
// Fork siblings, applied per fork in chunks and Merged back must
// recombine to sketch state and extraction results bit-identical to a
// serial Apply of the same ops. Round-robin routing lets a point's
// deletion land on a different fork than its insertion, so a fork's own
// state (and N) may be "negative" until the merge; linearity makes that
// irrelevant to the merged result. Plain `go test` replays the seed
// corpus.
func FuzzForkMerge(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(3), uint8(30), uint8(64))
	f.Add(int64(2), uint16(700), uint8(1), uint8(0), uint8(255))
	f.Add(int64(3), uint16(400), uint8(8), uint8(80), uint8(16))
	f.Add(int64(4), uint16(64), uint8(5), uint8(50), uint8(1))
	f.Add(int64(5), uint16(1000), uint8(2), uint8(10), uint8(128))
	// Nearly every insert is followed at once by its delete, so with two
	// forks one fork holds the inserts and the other the deletes (its N
	// is about −150 before the merge).
	f.Add(int64(6), uint16(300), uint8(1), uint8(255), uint8(7))

	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, shardsRaw, delPct, chunkRaw uint8) {
		n := int(nRaw)%1024 + 1
		shards := int(shardsRaw)%8 + 1
		chunk := int(chunkRaw) + 1
		rng := rand.New(rand.NewSource(seed))

		// Random dynamic stream: each step deletes a random live point
		// with probability delPct/256, else inserts a fresh uniform one.
		// Every prefix stays a valid stream (deletes only live points).
		const delta = 1 << 8
		var live []geo.Point
		ops := make([]Op, 0, n)
		for len(ops) < n {
			if len(live) > 0 && int(delPct) > rng.Intn(256) {
				j := rng.Intn(len(live))
				ops = append(ops, Op{P: live[j], Delete: true})
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			p := geo.Point{1 + rng.Int63n(delta), 1 + rng.Int63n(delta)}
			ops = append(ops, Op{P: p})
			live = append(live, p)
		}

		cfg := Config{Dim: 2, Delta: delta, O: 1 << 9,
			Params:       coreset.Params{K: 2, Seed: seed ^ 0x5a},
			CellSparsity: 64, PointSparsity: 128}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.Apply(ops)

		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([][]Op, shards)
		for i, op := range ops {
			parts[i%shards] = append(parts[i%shards], op)
		}
		for _, part := range parts {
			fork := s.Fork()
			for i := 0; i < len(part); i += chunk {
				fork.Apply(part[i:min(i+chunk, len(part))])
			}
			s.Merge(fork)
		}

		if s.N() != ref.N() {
			t.Fatalf("N %d vs %d (shards=%d chunk=%d)", s.N(), ref.N(), shards, chunk)
		}
		if s.StateDigest() != ref.StateDigest() {
			t.Fatalf("merged state diverged from serial Apply (shards=%d chunk=%d)", shards, chunk)
		}
		// Result equality including the FAIL side: the tiny sketch budgets
		// make over-full decodes common in fuzzed inputs, and the merged
		// path must FAIL exactly when the serial one does.
		ca, errA := ref.Result()
		cb, errB := s.Result()
		sameCoreset(t, ca, cb, errA, errB)
	})
}
