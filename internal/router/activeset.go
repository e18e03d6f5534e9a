package router

import "math/bits"

// activeSet is a set of ids visited ascending — a shard's routers or
// NICs that may need servicing next cycle, or a router's ports
// (router.go): one bit per id and a population count. Additions
// are O(1) at the mutation points (Inject, event handling, grant), and
// stale entries are pruned lazily while the Step loop scans the set. A
// scan walks the words in order and peels each word's set bits lowest
// first (scan, idAt), so active-set stepping visits components in
// exactly the ascending order the full scan would — this is what makes
// the two step modes cycle-for-cycle identical — with nothing to sort. A
// scan reads each word once: it may drop the id it is visiting, and an
// add is never lost (a bit set behind the scan waits for the next one).
type activeSet struct {
	words []uint64
	// count is the number of set bits, stale entries included; zero is
	// the quiet-cycle test.
	count int
	// base offsets the bits: the set covers ids [base, base+64*len(words)),
	// so a shard's sets cost memory proportional to the shard, not the
	// topology.
	base int32
}

// newActiveSet returns an empty set over the id range [lo, hi).
func newActiveSet(lo, hi int32) activeSet {
	return activeSet{base: lo, words: make([]uint64, (hi-lo+63)/64)}
}

// bit locates id's bit: its word and its mask within the word.
func (s *activeSet) bit(id int32) (*uint64, uint64) {
	i := uint32(id - s.base)
	return &s.words[i>>6], 1 << (i & 63)
}

// add marks id active. Duplicate adds are cheap no-ops.
func (s *activeSet) add(id int32) {
	if w, m := s.bit(id); *w&m == 0 {
		*w |= m
		s.count++
	}
}

// has reports whether id is currently in the set (invariant checks).
func (s *activeSet) has(id int32) bool { w, m := s.bit(id); return *w&m != 0 }

// drop removes id; dropping a non-member is a no-op, like a duplicate add.
func (s *activeSet) drop(id int32) {
	if w, m := s.bit(id); *w&m != 0 {
		*w &^= m
		s.count--
	}
}

// clear empties the set.
func (s *activeSet) clear() {
	clear(s.words)
	s.count = 0
}

// scan returns the words a phase peels members from, in order: none
// when the set is empty, so an idle phase costs one compare and a
// near-idle cycle does not pay for the width of the topology.
func (s *activeSet) scan() []uint64 {
	if s.count == 0 {
		return nil
	}
	return s.words
}

// idAt returns the lowest id among the set bits w of word wi of scan; a
// phase peels them with w &= w - 1 (see stepShard).
func (s *activeSet) idAt(wi int, w uint64) int32 {
	return s.base + int32(wi<<6+bits.TrailingZeros64(w))
}
