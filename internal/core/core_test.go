package core

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCountersIncDecGet(t *testing.T) {
	k := CountersOver(make([]int32, 4))
	if k.Len() != 4 {
		t.Fatalf("len %d", k.Len())
	}
	k.Inc(2)
	k.Inc(2)
	k.Inc(0)
	if k.Get(2) != 2 || k.Get(0) != 1 || k.Get(1) != 0 {
		t.Fatalf("snapshot %v", k.Snapshot())
	}
	k.Dec(2)
	if k.Get(2) != 1 {
		t.Fatalf("after dec: %d", k.Get(2))
	}
	if k.Sum() != 2 {
		t.Fatalf("sum %d", k.Sum())
	}
}

func TestCountersUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dec below zero did not panic")
		}
	}()
	k := CountersOver(make([]int32, 2))
	k.Dec(0)
}

func TestCountersExceeds(t *testing.T) {
	k := CountersOver(make([]int32, 1))
	for i := 0; i < 6; i++ {
		k.Inc(0)
	}
	if k.Exceeds(0, 6) {
		t.Fatal("6 > 6 reported true; trigger must be strict")
	}
	k.Inc(0)
	if !k.Exceeds(0, 6) {
		t.Fatal("7 > 6 reported false")
	}
}

func TestCountersReset(t *testing.T) {
	k := CountersOver(make([]int32, 3))
	k.Inc(1)
	k.Reset()
	if k.Sum() != 0 {
		t.Fatal("reset incomplete")
	}
}

// TestECtNOverSharesCallerSlice: ECtN state built over a caller's slice
// starts zeroed, counts in that slice and stays within it.
func TestECtNOverSharesCallerSlice(t *testing.T) {
	buf := []int32{7, 7, 7, 7, 7}
	e := ECtNOver(buf[1:3:3], NewGroupDirty(1), 0)
	if e.Links() != 2 || e.Partial(0) != 0 || e.Partial(1) != 0 {
		t.Fatalf("%d links, partials %d %d; want a zeroed array of 2", e.Links(), e.Partial(0), e.Partial(1))
	}
	e.IncPartial(1)
	if buf[2] != 1 || buf[0] != 7 || buf[3] != 7 {
		t.Fatalf("backing slice %v after IncPartial(1)", buf)
	}
}

// TestCountersOverSharesCallerSlice: a bank built over a caller's slice
// starts zeroed, counts in that slice and stays within it.
func TestCountersOverSharesCallerSlice(t *testing.T) {
	buf := []int32{7, 7, 7, 7, 7}
	k := CountersOver(buf[1:3:3])
	if k.Len() != 2 || k.Sum() != 0 {
		t.Fatalf("len %d sum %d, want a zeroed bank of 2", k.Len(), k.Sum())
	}
	k.Inc(1)
	if buf[2] != 1 || buf[0] != 7 || buf[3] != 7 {
		t.Fatalf("backing slice %v after Inc(1)", buf)
	}
}

func TestCountersSnapshotIsCopy(t *testing.T) {
	k := CountersOver(make([]int32, 2))
	s := k.Snapshot()
	s[0] = 99
	if k.Get(0) != 0 {
		t.Fatal("snapshot aliases internal state")
	}
}

// TestQuickCountersMatchCensus drives a random Inc/Dec-balanced workload
// and checks the bank always equals an independently maintained census.
func TestQuickCountersMatchCensus(t *testing.T) {
	f := func(ops []uint8) bool {
		const ports = 5
		k := CountersOver(make([]int32, ports))
		census := make([]int32, ports)
		for _, op := range ops {
			port := int(op) % ports
			if op&0x80 != 0 && census[port] > 0 {
				k.Dec(port)
				census[port]--
			} else {
				k.Inc(port)
				census[port]++
			}
		}
		for p := 0; p < ports; p++ {
			if k.Get(p) != census[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newECtN is partial state for a router of group 0 of a one-group
// dirty-set, for the tests that do not look at the marks.
func newECtN(links int) *ECtN {
	e := ECtNOver(make([]int32, links), NewGroupDirty(1), 0)
	return &e
}

func TestECtNPartial(t *testing.T) {
	e := newECtN(8)
	if e.Links() != 8 {
		t.Fatalf("links %d", e.Links())
	}
	e.IncPartial(3)
	e.IncPartial(3)
	e.DecPartial(3)
	if e.Partial(3) != 1 {
		t.Fatalf("partial %d", e.Partial(3))
	}
}

func TestECtNUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecPartial below zero did not panic")
		}
	}()
	newECtN(2).DecPartial(1)
}

func TestCombineGroupSums(t *testing.T) {
	a, b, c := newECtN(4), newECtN(4), newECtN(4)
	a.IncPartial(0)
	b.IncPartial(0)
	b.IncPartial(2)
	c.IncPartial(2)
	combined := make([]int32, 4)
	CombineGroup(combined, []*ECtN{a, b, c})
	if combined[0] != 2 || combined[2] != 2 || combined[1] != 0 {
		t.Fatalf("combined wrong: %v", combined)
	}
	// A second exchange after decrements refreshes, not accumulates:
	// what the array held before does not leak into the sums.
	b.DecPartial(0)
	CombineGroup(combined, []*ECtN{a, b, c})
	if combined[0] != 1 || combined[2] != 2 {
		t.Fatalf("combined after refresh: %v", combined)
	}
}

func TestCombineGroupSaturation(t *testing.T) {
	a, b := newECtN(1), newECtN(1)
	for i := 0; i < 100; i++ {
		a.IncPartial(0)
	}
	b.IncPartial(0)
	combined := make([]int32, 1)
	CombineGroup(combined, []*ECtN{a, b})
	// a contributes at most the 4-bit cap of 15, b contributes 1.
	if combined[0] != DefaultSatCap+1 {
		t.Fatalf("combined %d, want %d", combined[0], DefaultSatCap+1)
	}
}

func TestCombineGroupEmptyAndMismatch(t *testing.T) {
	CombineGroup(nil, nil) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched link counts did not panic")
		}
	}()
	CombineGroup(make([]int32, 2), []*ECtN{newECtN(2), newECtN(3)})
}

func TestECtNReset(t *testing.T) {
	e := newECtN(2)
	e.IncPartial(0)
	e.Reset()
	if e.Partial(0) != 0 {
		t.Fatal("reset incomplete")
	}
}

// TestQuickCombineGroupConservation: the sum of the group's combined
// array equals the total partial sum across the group, each (router,
// link) count capped at DefaultSatCap.
func TestQuickCombineGroupConservation(t *testing.T) {
	f := func(incs []uint8) bool {
		const links, routers = 6, 3
		members := make([]*ECtN, routers)
		for i := range members {
			members[i] = newECtN(links)
		}
		var census [routers][links]int64
		for i, v := range incs {
			members[i%routers].IncPartial(int(v) % links)
			census[i%routers][int(v)%links]++
		}
		var total int64
		for _, row := range census {
			for _, c := range row {
				total += min(c, DefaultSatCap)
			}
		}
		combined := make([]int32, links)
		CombineGroup(combined, members)
		var combinedSum int64
		for _, v := range combined {
			combinedSum += int64(v)
		}
		return combinedSum == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupDirtyMarkDrain(t *testing.T) {
	d := NewGroupDirty(5)
	if d.Any() {
		t.Fatal("new set has a marked group")
	}
	d.Mark(3)
	d.Mark(1)
	d.Mark(3) // idempotent
	if !d.Any() || !d.Marked(3) || !d.Marked(1) || d.Marked(0) {
		t.Fatal("membership wrong after marking 1 and 3")
	}
	var got []int32
	d.Drain(func(g int32) { got = append(got, g) })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("drain order %v, want [1 3]", got)
	}
	if d.Any() || d.Marked(1) || d.Marked(3) {
		t.Fatal("drain did not empty the set")
	}
	// The set is reusable after a drain.
	d.Mark(4)
	if !d.Any() || !d.Marked(4) {
		t.Fatal("set unusable after drain")
	}
}

// TestGroupDirtyReentrantMark: a Mark from inside a Drain visit is never
// lost — on the visited group or an earlier one it survives into the
// next drain, on a later group this drain still visits it (once).
func TestGroupDirtyReentrantMark(t *testing.T) {
	d := NewGroupDirty(5)
	d.Mark(1)
	d.Mark(3)
	var first []int32
	d.Drain(func(g int32) {
		first = append(first, g)
		if g == 1 {
			d.Mark(0) // earlier group: next drain
			d.Mark(1) // the group being visited: next drain
			d.Mark(3) // later and already marked: visited once, now
			d.Mark(4) // later and fresh: visited now
		}
	})
	if len(first) != 3 || first[0] != 1 || first[1] != 3 || first[2] != 4 {
		t.Fatalf("first drain visited %v, want [1 3 4]", first)
	}
	if !d.Marked(0) || !d.Marked(1) || d.Marked(3) || d.Marked(4) {
		t.Fatal("after the first drain exactly groups 0 and 1 must stay marked")
	}
	var second []int32
	d.Drain(func(g int32) { second = append(second, g) })
	if len(second) != 2 || second[0] != 0 || second[1] != 1 {
		t.Fatalf("second drain visited %v, want [0 1]", second)
	}
	if d.Any() {
		t.Fatal("second drain did not empty the set")
	}
}

// TestGroupDirtySharded: distinct groups are distinct bytes, so two
// goroutines marking disjoint group ranges need no lock (the shard
// workers' contract; run under -race), and the barrier-side drain then
// visits every group once, ascending.
func TestGroupDirtySharded(t *testing.T) {
	d := NewGroupDirty(8)
	var wg sync.WaitGroup
	for lo := 0; lo < 8; lo += 4 {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				for g := lo; g < lo+4; g++ {
					d.Mark(int32(g))
				}
			}
		}(lo)
	}
	wg.Wait()
	var got []int32
	d.Drain(func(g int32) { got = append(got, g) })
	if len(got) != 8 {
		t.Fatalf("concurrent marks: drained %v, want all 8 groups", got)
	}
	for i, g := range got {
		if g != int32(i) {
			t.Fatalf("concurrent marks: drained %v, want ascending 0..7", got)
		}
	}
}

func TestECtNBindDirtyMarksOnMutation(t *testing.T) {
	d := NewGroupDirty(3)
	e := ECtNOver(make([]int32, 4), d, 2)
	e.IncPartial(1)
	if !d.Marked(2) || d.Marked(0) || d.Marked(1) {
		t.Fatal("IncPartial did not mark the bound group")
	}
	d.Drain(func(int32) {})
	e.DecPartial(1)
	if !d.Marked(2) {
		t.Fatal("DecPartial did not mark the bound group")
	}
}

func TestVerifyGroupFresh(t *testing.T) {
	a, b := newECtN(2), newECtN(2)
	a.IncPartial(0)
	combined := make([]int32, 2)
	CombineGroup(combined, []*ECtN{a, b})
	if err := VerifyGroupFresh(combined, []*ECtN{a, b}); err != nil {
		t.Fatalf("fresh combine flagged: %v", err)
	}
	// A partial mutation after the combine makes the stored sums stale.
	b.IncPartial(0)
	if err := VerifyGroupFresh(combined, []*ECtN{a, b}); err == nil {
		t.Fatal("stale combined not flagged")
	}
	if err := VerifyGroupFresh(nil, nil); err != nil {
		t.Fatalf("empty group flagged: %v", err)
	}
}

func BenchmarkCountersIncDec(b *testing.B) {
	k := CountersOver(make([]int32, 31))
	for i := 0; i < b.N; i++ {
		k.Inc(i % 31)
		k.Dec(i % 31)
	}
}

func BenchmarkCombineGroup(b *testing.B) {
	members := make([]*ECtN, 16)
	for i := range members {
		members[i] = newECtN(128)
		for l := 0; l < 128; l += 3 {
			members[i].IncPartial(l)
		}
	}
	combined := make([]int32, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CombineGroup(combined, members)
	}
}
