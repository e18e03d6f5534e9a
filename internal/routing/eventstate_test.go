package routing

import (
	"testing"

	"cbar/internal/router"
)

// Tests for the algorithm state that lives beyond the deciding router:
// ECtN combines driven by the dirty-group flags, audited against a fresh
// recombination of every skipped group (ectnAlg.CheckState), and PB's
// read of the occupancy of the router that owns the minimal global link.

// combineCensus wraps ECtN to count, at each combine tick, the groups
// the exchange recombines (dirty) and the ones it skips (clean).
type combineCensus struct {
	*ectnAlg
	ran, skipped int
}

func (c *combineCensus) BeginCycle(n *router.Network) {
	if n.Now()%c.period == 0 {
		for _, dirty := range c.dirty {
			if dirty {
				c.ran++
			} else {
				c.skipped++
			}
		}
	}
	c.ectnAlg.BeginCycle(n)
}

// TestECtNDirtyGroupEquivalence: skipping a clean group's combine is
// exact — its stored sums already equal a fresh recombination. The tiny
// fabric is driven one cycle at a time, uniform then adversarial, then
// drained, with CheckInvariants after every cycle: its ECtN audit
// recomputes every group the next combine would skip, so a partial
// mutation that missed its dirty mark fails within the cycle. The run
// must both recombine and skip groups, or it proves nothing.
func TestECtNDirtyGroupEquivalence(t *testing.T) {
	alg := &combineCensus{ectnAlg: newECtN(testOptions())}
	n := buildAlg(t, ECtN, alg, 67)
	rnd := &testRand{s: 71}
	check := func(phase string) {
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s, cycle %d: %v", phase, n.Now(), err)
		}
	}
	for range 400 {
		driveUniform(n, rnd, 1, 10)
		check("uniform")
	}
	for range 600 {
		driveAdversarial(n, rnd, 1, 20, 1)
		check("adversarial")
	}
	for n.InFlight > 0 {
		if n.Now() > 60000 {
			t.Fatal("did not drain")
		}
		n.Step()
		check("drain")
	}
	if n.NumDelivered == 0 || alg.ran == 0 || alg.skipped == 0 {
		t.Fatalf("%d delivered over %d cycles, %d group combines run and %d skipped: the run proves nothing",
			n.NumDelivered, n.Now(), alg.ran, alg.skipped)
	}
	t.Logf("%d cycles: %d group combines run, %d skipped", n.Now(), alg.ran, alg.skipped)
}

// TestPBReadsOwnerOccupancy: PB's saturation flag is a read of another
// router's state — for a packet whose minimal global link belongs to a
// different router of the source group, the source diverts exactly when
// that router's Occupancy of the link exceeds satPhits. The UGAL offset is
// raised out of reach so the flag is the only trigger, and the census
// must see the flag both set and clear.
func TestPBReadsOwnerOccupancy(t *testing.T) {
	n := build(t, PB, testOptions(), 67)
	a := n.Alg.(*pbAlg)
	a.offset = 1 << 30
	topo := n.Topo
	rnd := &testRand{s: 71}
	var diverted, minimal int
	for round := 0; round < 30; round++ {
		driveAdversarial(n, rnd, 50, 25, 1)
		for _, r := range n.Routers {
			g := topo.GroupOf(r.ID)
			for dg := 0; dg < topo.Groups; dg++ {
				if dg == g {
					continue
				}
				pos, k := topo.GlobalLinkOwner(topo.GlobalLinkToGroup(g, dg))
				owner := n.Group(g)[pos]
				if owner == r {
					continue
				}
				dst := topo.NodeID(topo.RouterID(dg, 0), 0)
				p := &router.Packet{Src: int32(topo.NodeID(r.ID, 0)), Dst: int32(dst),
					DstRouter: int32(topo.RouterOfNode(dst)), Inter: -1}
				a.decide(r, p)
				occ := owner.Occupancy(topo.GlobalPort(k))
				if want := occ > a.satPhits; p.GlobalMisroute != want {
					t.Fatalf("round %d: router %d -> group %d: diverted %v but owner %d holds %d phits against threshold %d",
						round, r.ID, dg, p.GlobalMisroute, owner.ID, occ, a.satPhits)
				}
				if p.GlobalMisroute {
					diverted++
				} else {
					minimal++
				}
			}
		}
	}
	if diverted == 0 || minimal == 0 {
		t.Fatalf("census one-sided: %d diverted, %d minimal decisions", diverted, minimal)
	}
}

// TestECtNCheckStateCatchesCorruption: a missed dirty mark — a clean
// group whose combined array no longer equals its partials' sum — must
// trip the audit.
func TestECtNCheckStateCatchesCorruption(t *testing.T) {
	n := build(t, ECtN, testOptions(), 17)
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("clean network flagged: %v", err)
	}
	// Mutate one router's partials behind the dirty-set's back by
	// resetting it: the stored combined no longer matches a fresh
	// recombination and the group is not marked dirty.
	alg := n.Alg.(*ectnAlg)
	alg.addPartial(n.Group(0)[0], 0, 1)
	clear(alg.dirty) // discard the legitimate mark
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("stale clean-group combine not detected")
	}
}

// TestEveryMechanismDeclaresHorizon: every shipped mechanism is eligible
// for quiet-cycle elision (router.CycleHorizon). The ones without
// BeginCycle work answer "never" — the default they inherit with the
// no-op BeginCycle from router.NopHooks — and ECtN, the one with a
// BeginCycle body, answers for it: never while its groups are clean, its
// next combine tick once a partial moved.
func TestEveryMechanismDeclaresHorizon(t *testing.T) {
	for _, a := range All() {
		n := build(t, a, testOptions(), 3)
		h, ok := n.Alg.(router.CycleHorizon)
		if !ok {
			t.Errorf("%v declares no horizon: it would never be elided", a)
			continue
		}
		if c, ok := h.NextAlgCycle(n); !ok || c != router.NoPendingCycle {
			t.Errorf("%v on an idle network: horizon %d ok %v, want NoPendingCycle", a, c, ok)
		}
	}

	o := testOptions()
	n := build(t, ECtN, o, 3)
	h := n.Alg.(router.CycleHorizon)
	alg := n.Alg.(*ectnAlg)
	alg.addPartial(n.Routers[0], 0, 1)
	if c, ok := h.NextAlgCycle(n); !ok || c != 0 {
		t.Fatalf("dirty group at cycle 0: horizon %d ok %v, want the combine due now", c, ok)
	}
	n.Step() // runs the combine: clean again
	if c, ok := h.NextAlgCycle(n); !ok || c != router.NoPendingCycle {
		t.Fatalf("after the combine: horizon %d ok %v, want NoPendingCycle", c, ok)
	}
	alg.addPartial(n.Routers[0], 0, -1)
	if c, ok := h.NextAlgCycle(n); !ok || c != o.ECtNPeriod {
		t.Fatalf("dirty group at cycle 1: horizon %d ok %v, want the next combine tick %d", c, ok, o.ECtNPeriod)
	}
}
