package partition

import "math/bits"

// keySet is a set of 64-bit cell keys in one open-addressed table with
// linear probing: the heavy cells of one level, or the parents of a
// level's included parts. Every key is a legal member, 0 included: the
// table marks an empty slot with 0, so key 0 is held by a flag beside it.
// The table is at most half full, so a probe for an absent key ends after
// a slot or two.
type keySet struct {
	slots []uint64 // power-of-two length; 0 marks an empty slot
	shift uint     // 64 − log2(len(slots)): the hash keeps the top bits
	n     int      // nonzero members
	zero  bool     // key 0 is a member
}

// newKeySet returns an empty set with room for n keys before it grows.
func newKeySet(n int) keySet {
	var s keySet
	s.alloc(n)
	return s
}

// alloc sizes an empty table for n keys at load ≤ ½ (at least 8 slots).
func (s *keySet) alloc(n int) {
	lg := max(3, bits.Len(uint(2*n)))
	s.slots = make([]uint64, 1<<lg)
	s.shift = uint(64 - lg)
}

// slot is k's home slot: Fibonacci hashing keeps the product's top bits,
// which mix every bit of k, so keys that share low bits still spread.
func (s *keySet) slot(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> s.shift }

// has reports whether k is a member.
func (s *keySet) has(k uint64) bool {
	if k == 0 {
		return s.zero
	}
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

// add inserts k; adding a member again changes nothing.
func (s *keySet) add(k uint64) {
	if k == 0 {
		s.zero = true
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	if s.put(k) {
		s.n++
	}
}

// put stores k ≠ 0 in the table, which has a free slot, and reports
// whether k was new.
func (s *keySet) put(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := s.slot(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			return true
		}
	}
}

// grow doubles the table and re-inserts every member.
func (s *keySet) grow() {
	old := s.slots
	s.alloc(2 * max(s.n, 4))
	for _, k := range old {
		if k != 0 {
			s.put(k)
		}
	}
}

// len returns the number of members.
func (s *keySet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}
