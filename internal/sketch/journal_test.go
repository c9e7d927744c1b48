package sketch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestDirtyJournalRefresh checks the dirty-journal invariant directly:
// after a snapshot, every write path — the one-row Update wrapper, the
// UpdateScaledN kernel at batch sizes around both schedule thresholds
// (the 4-lane block width, orderedMinRows, and width/8), and the
// sibling sum addSlab that the linearity tests splice after — must journal a superset of the buckets it changes, so the
// journal-guided RefreshSnapshot equals a full SnapshotSlab copy. Batches
// carry zero-delta rows with non-zero payload, which change only payload
// words. The slab itself must equal row-at-a-time scalar writes.
// Two rounds per case check that RefreshSnapshot restarts the journal.
func TestDirtyJournalRefresh(t *testing.T) {
	const pd = 2
	for _, s := range []int{16, 512} {
		width := 2 * s
		sizes := []int{1, 3, 4, 5, 63, 64, 65, width/8 - 1, width / 8, width/8 + 1}
		slices.Sort(sizes)
		for _, n := range slices.Compact(sizes) {
			for _, path := range []string{"update", "kernel", "merge"} {
				name := fmt.Sprintf("s=%d/n=%d/%s", s, n, path)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(s*1000 + n)))
					sr := NewSparseRecovery(rng, s, 0.01, pd)
					oracle := sr.cloneEmpty()
					keys, payload, deltas := randBatch(rng, 2*s, s, pd)
					scaled := scaleRows(payload, deltas, pd)
					sr.UpdateScaledN(keys, scaled, deltas)
					scalarWriteN(oracle, keys, scaled, deltas)

					snap := sr.SnapshotSlab(nil)
					sr.StartDirtyTracking()
					for round := 0; round < 2; round++ {
						keys, payload, deltas := randBatch(rng, n, 1+n/2, pd)
						scaled := scaleRows(payload, deltas, pd)
						// Zero-delta rows with a non-zero payload sum: only
						// their payload words change.
						for i := 0; i < n; i += 3 {
							deltas[i] = 0
							scaled[i*pd] = int64(i + 1)
						}
						switch path {
						case "update":
							for i := range keys {
								sr.Update(keys[i], payload[i*pd:(i+1)*pd], deltas[i])
							}
							scalarUpdateN(oracle, keys, payload, deltas)
						case "kernel":
							sr.UpdateScaledN(keys, scaled, deltas)
							scalarWriteN(oracle, keys, scaled, deltas)
						case "merge":
							other := sr.cloneEmpty()
							other.UpdateScaledN(keys, scaled, deltas)
							addSlab(sr, other)
							scalarWriteN(oracle, keys, scaled, deltas)
						}
						if s == 512 && !sr.DirtySparse() {
							t.Fatalf("round %d: journal went dense; the sparse refresh is untested", round)
						}
						snap = sr.RefreshSnapshot(snap)
						if !slices.Equal(snap, sr.SnapshotSlab(nil)) {
							t.Fatalf("round %d: journal-guided refresh differs from a full snapshot", round)
						}
						if !slices.Equal(sr.slab, oracle.slab) {
							t.Fatalf("round %d: slab differs from row-at-a-time writes", round)
						}
					}
				})
			}
		}
	}
}
