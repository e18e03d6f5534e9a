package router

import (
	"fmt"
	"math/bits"
	"testing"
)

// members returns the set's ids by the scan every Step phase uses.
func (s *activeSet) members() []int32 {
	var ids []int32
	for wi, w := range s.scan() {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, s.idAt(wi, w))
		}
	}
	return ids
}

// checkAgainst compares the set with a reference membership map: the
// scan yields the reference's ids ascending, has agrees id by id, and
// count equals both the reference size and the number of set bits.
func (s *activeSet) checkAgainst(t *testing.T, lo, hi int32, ref map[int32]bool) {
	t.Helper()
	want := make([]int32, 0, len(ref))
	for id := lo; id < hi; id++ {
		if ref[id] != s.has(id) {
			t.Fatalf("has(%d) = %v, reference %v", id, s.has(id), ref[id])
		}
		if ref[id] {
			want = append(want, id)
		}
	}
	if got := s.members(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan yields %v, sorted reference %v", got, want)
	}
	set := 0
	for _, w := range s.words {
		set += bits.OnesCount64(w)
	}
	if s.count != len(want) || set != len(want) {
		t.Fatalf("count %d, %d bits set, reference holds %d", s.count, set, len(want))
	}
}

// TestActiveSetScanOrder: under seeded random add/drop the ascending
// scan equals a sorted-slice reference — for a range with a non-zero
// base (a shard that is not the first), ranges ending just below, on and
// just above a 64-bit word boundary, and through the empty and the full
// set — and count tracks the set bits throughout, duplicate adds
// included. Entries stay until dropped: nothing but a scan's drop prunes
// a stale one, which is what the quiet-cycle rule counts on.
func TestActiveSetScanOrder(t *testing.T) {
	for _, rg := range [][2]int32{{0, 1}, {0, 63}, {0, 64}, {0, 65}, {264, 528}, {1000, 1129}, {37, 37 + 128}} {
		lo, hi := rg[0], rg[1]
		s := newActiveSet(lo, hi)
		ref := map[int32]bool{}
		s.checkAgainst(t, lo, hi, ref) // empty
		rng := newTestRand(uint64(hi) + 3)
		for step := 0; step < 2000; step++ {
			id := lo + int32(rng()%uint64(hi-lo))
			if rng()%3 != 0 {
				s.add(id)
				ref[id] = true
			} else if ref[id] {
				s.drop(id)
				delete(ref, id)
			}
			if step%97 == 0 {
				s.checkAgainst(t, lo, hi, ref)
			}
		}
		for id := lo; id < hi; id++ {
			s.add(id)
			ref[id] = true
		}
		s.checkAgainst(t, lo, hi, ref) // full
		// A scan may drop the id it is visiting and still visits the rest.
		visited := 0
		for wi, w := range s.scan() {
			for ; w != 0; w &= w - 1 {
				s.drop(s.idAt(wi, w))
				visited++
			}
		}
		if visited != int(hi-lo) || s.count != 0 {
			t.Fatalf("[%d,%d): dropping scan visited %d ids and left count %d", lo, hi, visited, s.count)
		}
		s.checkAgainst(t, lo, hi, map[int32]bool{})
	}
}

// TestActiveSetClear: clear empties a set of any width in one call —
// membership, the scan and count — leaves it reusable, and is a no-op on
// an empty set.
func TestActiveSetClear(t *testing.T) {
	for _, hi := range []int32{1, 64, 65, 130} {
		s := newActiveSet(0, hi)
		s.clear() // empty: nothing to do
		s.checkAgainst(t, 0, hi, map[int32]bool{})
		for id := int32(0); id < hi; id += 3 {
			s.add(id)
		}
		s.add(hi - 1)
		s.clear()
		s.checkAgainst(t, 0, hi, map[int32]bool{})
		s.add(hi - 1)
		s.checkAgainst(t, 0, hi, map[int32]bool{hi - 1: true})
	}
}

// TestRRPick: the output arbiter picks the lowest candidate above the
// pointer and wraps to the lowest when none is, across a word boundary
// as within one word.
func TestRRPick(t *testing.T) {
	set := func(words int, ids ...int) []uint64 {
		s := make([]uint64, words)
		for _, id := range ids {
			s[id>>6] |= 1 << (id & 63)
		}
		return s
	}
	cases := []struct {
		cand []uint64
		rr   int
		want int
	}{
		// One word.
		{set(1, 0), 0, 0},         // the pointer's own input is the last resort
		{set(1, 0, 63), 0, 63},    // above the pointer
		{set(1, 0, 63), 62, 63},   // just above
		{set(1, 0, 63), 63, 0},    // pointer on the top bit: wrap
		{set(1, 5, 9, 40), 9, 40}, // strictly above, not at
		{set(1, 5, 9, 40), 40, 5}, // wrap to the lowest
		{set(1, 5, 9, 40), 4, 5},  // lowest is above
		{set(1, 63), 63, 63},      // single candidate at the pointer
		// Two words.
		{set(2, 0, 63, 64, 65), 0, 63},
		{set(2, 0, 63, 64, 65), 63, 64}, // above the pointer is in the next word
		{set(2, 0, 63, 64, 65), 64, 65},
		{set(2, 0, 63, 64, 65), 65, 0}, // wrap from the second word to the first
		{set(2, 0, 65), 63, 65},        // pointer at the boundary, first word has nothing above
		{set(2, 0, 65), 64, 65},
		{set(2, 64), 64, 64},
		{set(2, 63), 64, 63}, // wrap back across the boundary
		{set(2, 65), 0, 65},  // nothing above in the pointer's word
		{set(2, 0, 64), 127, 0},
	}
	for _, tc := range cases {
		if got := rrPick(tc.cand, tc.rr); got != tc.want {
			t.Errorf("rrPick(%#x, %d) = %d, want %d", tc.cand, tc.rr, got, tc.want)
		}
	}
}
