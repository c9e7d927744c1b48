package partition

import (
	"math/rand"
	"testing"
)

// TestKeySetMatchesMap: the flat key set must answer membership exactly
// like a map across growth from an empty table, with key 0 (the table's
// empty-slot marker), all-ones keys, keys sharing their low or high bits,
// and every key added several times.
func TestKeySetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, hint := range []int{0, 1, 5, 300} {
		s := newKeySet(hint)
		want := map[uint64]bool{}
		var probes []uint64
		add := func(k uint64) {
			s.add(k)
			want[k] = true
			if s.len() != len(want) {
				t.Fatalf("hint %d: after adding %x: len %d, want %d", hint, k, s.len(), len(want))
			}
		}
		if s.has(0) || s.len() != 0 {
			t.Fatalf("hint %d: empty set holds 0 or has len %d", hint, s.len())
		}
		for i := 0; i < 2000; i++ {
			var k uint64
			switch i % 4 {
			case 0:
				k = rng.Uint64()
			case 1:
				k = uint64(i) << 40 // equal low bits
			case 2:
				k = uint64(i) // equal high bits
			default:
				k = ^uint64(i & 7)
			}
			add(k)
			probes = append(probes, k, k+1, k^1<<63)
			if i == 1000 {
				add(0)
			}
			if i%3 == 0 { // duplicate adds change nothing
				add(k)
			}
		}
		add(0)
		probes = append(probes, 0, 1, ^uint64(0))
		for _, k := range probes {
			if s.has(k) != want[k] {
				t.Fatalf("hint %d: has(%x) = %v, want %v", hint, k, s.has(k), want[k])
			}
		}
		if 2*s.n > len(s.slots) {
			t.Fatalf("hint %d: %d keys in %d slots: over half full", hint, s.n, len(s.slots))
		}
	}
	var zero keySet // the zero value is an empty set
	if zero.has(0) || zero.has(7) || zero.len() != 0 {
		t.Fatal("zero keySet is not empty")
	}
	zero.add(7)
	if !zero.has(7) || zero.has(0) || zero.len() != 1 {
		t.Fatal("zero keySet does not grow on add")
	}
}
