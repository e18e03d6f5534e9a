package routing

import (
	"slices"
	"testing"
	"testing/quick"

	"cbar/internal/router"
)

// Unit tests of the routing state the contention-based mechanisms keep
// beside the fabric: the §III-B counter bank of contentionHooks and the
// §III-D partial and combined arrays of ectnAlg.

// remotePacket is a fresh packet injected at r for node 0 of group dg's
// first router, counted nowhere yet.
func remotePacket(n *router.Network, r *router.Router, dg int) *router.Packet {
	t := n.Topo
	dst := t.NodeID(t.RouterID(dg, 0), 0)
	return &router.Packet{Src: int32(t.NodeID(r.ID, 0)), Dst: int32(dst),
		DstRouter: int32(t.RouterOfNode(dst)), Inter: -1, CountedPort: -1, CountedLink: -1}
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestContentionHooksCount: OnHead counts a packet on its minimal output
// in its router's row, OnDequeue uncounts it once, and Contention reads
// the row — nil for a mechanism without counters.
func TestContentionHooksCount(t *testing.T) {
	n := build(t, Base, testOptions(), 5)
	r := n.Routers[0]
	p, q := remotePacket(n, r, 3), remotePacket(n, r, 3)
	min := r.MinimalOut(p)
	n.Alg.OnHead(r, p, 0, 0)
	n.Alg.OnHead(r, q, 0, 0)
	c := Contention(n.Alg, r)
	if len(c) != r.NumPorts() || c[min] != 2 || p.CountedPort != int16(min) {
		t.Fatalf("after two heads: row %v, counted port %d; want 2 on port %d", c, p.CountedPort, min)
	}
	n.Alg.OnDequeue(r, p, 0, 0)
	n.Alg.OnDequeue(r, p, 0, 0) // uncounted already: a no-op
	if c[min] != 1 || p.CountedPort != -1 {
		t.Fatalf("after one dequeue: row %v, counted port %d", c, p.CountedPort)
	}
	if other := Contention(n.Alg, n.Routers[1]); slices.Max(other) != 0 {
		t.Fatalf("router 1's row %v moved with router 0's", other)
	}
	for _, a := range []Algo{Min, Valiant, PB, OLM} {
		if c := Contention(build(t, a, testOptions(), 5).Alg, r); c != nil {
			t.Errorf("%v has contention counters %v", a, c)
		}
	}
}

// TestQuickContentionMatchesCensus drives random OnHead/OnDequeue
// sequences over one router and checks its row against an independent
// census after each.
func TestQuickContentionMatchesCensus(t *testing.T) {
	n := build(t, Base, testOptions(), 5)
	r := n.Routers[0]
	f := func(ops []uint8) bool {
		clear(Contention(n.Alg, r))
		census := make([]int32, r.NumPorts())
		var held []*router.Packet
		for _, op := range ops {
			if op&0x80 != 0 && len(held) > 0 {
				p := held[len(held)-1]
				held = held[:len(held)-1]
				census[p.CountedPort]--
				n.Alg.OnDequeue(r, p, 0, 0)
				continue
			}
			p := remotePacket(n, r, 1+int(op)%(n.Topo.Groups-1))
			n.Alg.OnHead(r, p, 0, 0)
			census[p.CountedPort]++
			held = append(held, p)
		}
		return slices.Equal(Contention(n.Alg, r), census)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestContentionUnderflowPanics: a decrement without its increment is a
// bookkeeping bug, not a state: OnDequeue panics rather than let a
// counter go negative.
func TestContentionUnderflowPanics(t *testing.T) {
	n := build(t, Base, testOptions(), 5)
	r := n.Routers[0]
	p := remotePacket(n, r, 1)
	p.CountedPort = 0
	mustPanic(t, "uncounting a zero counter", func() { n.Alg.OnDequeue(r, p, 0, 0) })
}

// TestContentionTriggerIsStrict: the §III-B trigger fires when the
// minimal output's counter strictly exceeds the threshold — at th the
// packet stays minimal, at th+1 it takes a nonminimal port.
func TestContentionTriggerIsStrict(t *testing.T) {
	o := testOptions()
	n := build(t, Base, o, 5)
	a := n.Alg.(*baseAlg)
	r := n.Routers[0]
	p := remotePacket(n, r, 3)
	min := r.MinimalOut(p)
	row := Contention(n.Alg, r)
	row[min] = o.BaseTh
	if out, ok := a.contentionAlternative(r, p, min, o.BaseTh); ok {
		t.Fatalf("counter at the threshold %d misrouted to port %d", o.BaseTh, out)
	}
	row[min] = o.BaseTh + 1
	if out, ok := a.contentionAlternative(r, p, min, o.BaseTh); !ok || out == min {
		t.Fatalf("counter above the threshold: port %d ok %v, want a nonminimal port", out, ok)
	}
}

// TestECtNPartialCounts: addPartial counts in the router's own row of
// the partial array, and nowhere else.
func TestECtNPartialCounts(t *testing.T) {
	n := build(t, ECtN, testOptions(), 5)
	a := n.Alg.(*ectnAlg)
	r := n.Group(2)[1]
	a.addPartial(r, 3, 1)
	a.addPartial(r, 3, 1)
	a.addPartial(r, 3, -1)
	i := r.ID*a.links + 3
	if got := a.partials[i]; got != 1 {
		t.Fatalf("partial %d after +1 +1 -1", got)
	}
	if slices.Max(a.partials[:i]) != 0 || slices.Max(a.partials[i+1:]) != 0 {
		t.Fatal("another partial counter moved")
	}
}

// TestECtNPartialMarksGroupDirty: an increment and a decrement each mark
// the router's group, and only its group, dirty.
func TestECtNPartialMarksGroupDirty(t *testing.T) {
	n := build(t, ECtN, testOptions(), 5)
	a := n.Alg.(*ectnAlg)
	r := n.Group(2)[1]
	a.addPartial(r, 3, 1)
	if want := []bool{false, false, true}; !slices.Equal(a.dirty[:3], want) || slices.Contains(a.dirty[3:], true) {
		t.Fatalf("dirty flags %v after an increment, want group 2 alone", a.dirty)
	}
	clear(a.dirty)
	a.addPartial(r, 3, -1)
	if !a.dirty[2] || slices.Contains(a.dirty[:2], true) || slices.Contains(a.dirty[3:], true) {
		t.Fatalf("dirty flags %v after a decrement, want group 2 alone", a.dirty)
	}
}

// TestECtNCombineClearsDirtyMarks: the combine at an exchange tick
// visits every marked group, clears its mark and refreshes its sums; the
// flags are reusable afterwards.
func TestECtNCombineClearsDirtyMarks(t *testing.T) {
	n := build(t, ECtN, testOptions(), 5)
	a := n.Alg.(*ectnAlg)
	if slices.Contains(a.dirty, true) {
		t.Fatalf("fresh network has dirty groups %v", a.dirty)
	}
	a.addPartial(n.Group(3)[0], 2, 1)
	a.addPartial(n.Group(1)[0], 4, 1)
	a.addPartial(n.Group(3)[1], 2, 1)
	a.BeginCycle(n) // cycle 0 is an exchange tick
	if slices.Contains(a.dirty, true) {
		t.Fatalf("after the combine: dirty %v", a.dirty)
	}
	if a.groupCombined(1)[4] != 1 || a.groupCombined(3)[2] != 2 {
		t.Fatalf("combine skipped a marked group: group 1 %v, group 3 %v", a.groupCombined(1), a.groupCombined(3))
	}
	a.addPartial(n.Group(4)[0], 0, 1)
	if !a.dirty[4] {
		t.Fatal("flags unusable after a combine")
	}
}

// TestECtNCheckStateCatchesStaleCombine: right after a combine every
// group is fresh and the audit passes; a partial mutation that misses
// its dirty mark leaves the stored sums stale, and the audit names it.
func TestECtNCheckStateCatchesStaleCombine(t *testing.T) {
	n := build(t, ECtN, testOptions(), 5)
	a := n.Alg.(*ectnAlg)
	a.addPartial(n.Group(2)[0], 1, 1)
	a.BeginCycle(n)
	if err := a.CheckState(n); err != nil {
		t.Fatalf("fresh combine flagged: %v", err)
	}
	a.addPartial(n.Group(2)[1], 1, 1)
	a.dirty[2] = false // the mark the mutation should have left
	if err := a.CheckState(n); err == nil {
		t.Fatal("stale combined not flagged")
	}
}

// TestECtNPartialUnderflowPanics: so does a partial decrement below zero.
func TestECtNPartialUnderflowPanics(t *testing.T) {
	n := build(t, ECtN, testOptions(), 5)
	a := n.Alg.(*ectnAlg)
	mustPanic(t, "decrementing a zero partial", func() { a.addPartial(n.Routers[0], 1, -1) })
}

// TestECtNCombineSums: a group's combined array is the sum of its
// routers' partials, refreshed at each exchange, not accumulated: what
// it held before does not leak into the sums. Other groups' partials
// stay out.
func TestECtNCombineSums(t *testing.T) {
	n := build(t, ECtN, testOptions(), 5)
	a := n.Alg.(*ectnAlg)
	g := n.Group(1)
	a.addPartial(g[0], 0, 1)
	a.addPartial(g[1], 0, 1)
	a.addPartial(g[1], 2, 1)
	a.addPartial(g[2], 2, 1)
	a.addPartial(n.Group(0)[0], 0, 1)
	a.BeginCycle(n)
	if c := a.groupCombined(1); c[0] != 2 || c[1] != 0 || c[2] != 2 {
		t.Fatalf("combined %v, want 2 0 2 ...", c)
	}
	a.addPartial(g[1], 0, -1)
	a.BeginCycle(n)
	if c := a.groupCombined(1); c[0] != 1 || c[2] != 2 {
		t.Fatalf("combined after the refresh %v, want 1 0 2 ...", c)
	}
}

// TestECtNCombineSaturates: a router contributes its partial value as
// the 4-bit field carries it, saturated at 15, enough to exceed the
// combined threshold of 10.
func TestECtNCombineSaturates(t *testing.T) {
	n := build(t, ECtN, testOptions(), 5)
	a := n.Alg.(*ectnAlg)
	g := n.Group(0)
	for range 100 {
		a.addPartial(g[0], 0, 1)
	}
	a.addPartial(g[1], 0, 1)
	a.BeginCycle(n)
	if got := a.groupCombined(0)[0]; got != satCap+1 {
		t.Fatalf("combined %d, want %d", got, satCap+1)
	}
}

// TestQuickECtNCombineMatchesCensus: after random partial increments
// over a group's routers, some far past the saturation cap, the combined
// array equals an independent census of the partials, each router's
// count capped at satCap, and the exchange leaves every group clean.
func TestQuickECtNCombineMatchesCensus(t *testing.T) {
	n := build(t, ECtN, testOptions(), 5)
	a := n.Alg.(*ectnAlg)
	g := n.Group(0)
	f := func(incs []uint8) bool {
		clear(a.partials)
		a.dirty[0] = true // cleared behind the hooks' back: recombine
		census := make([][]int32, len(g))
		for i := range census {
			census[i] = make([]int32, a.links)
		}
		for i, v := range incs {
			r, l := i%len(g), int(v)%a.links
			for range 1 + int(v)/a.links {
				a.addPartial(g[r], l, 1)
				census[r][l]++
			}
		}
		a.BeginCycle(n)
		for l, have := range a.groupCombined(0) {
			var want int32
			for _, row := range census {
				want += min(row[l], satCap)
			}
			if have != want {
				return false
			}
		}
		return !slices.Contains(a.dirty, true)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
