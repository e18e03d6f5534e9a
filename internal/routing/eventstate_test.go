package routing

import (
	"testing"

	"cbar/internal/router"
)

// Tests for the algorithm state that lives beyond the deciding router:
// ECtN combines driven by the dirty-group flags, pinned to the retained
// combine-every-group reference (Options.ReferenceScan), and PB's read of
// the occupancy of the router that owns the minimal global link.

// refOptions returns testOptions with ECtN's reference exchange
// selected.
func refOptions() Options {
	o := testOptions()
	o.ReferenceScan = true
	return o
}

// deliveryTrace runs the given network under a deterministic
// uniform-then-adversarial drive and returns the exact delivery trace
// (packet id and cycle), checking invariants — which include the
// StateChecker cross-audits — along the way.
func deliveryTrace(t *testing.T, n *router.Network, seed uint64) []int64 {
	t.Helper()
	var trace []int64
	n.OnDeliver = func(p *router.Packet, now int64) {
		trace = append(trace, int64(p.ID)<<24|now)
	}
	rnd := &testRand{s: seed}
	check := func(phase string) {
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	driveUniform(n, rnd, 400, 10)
	check("after uniform")
	driveAdversarial(n, rnd, 600, 20, 1)
	check("after adversarial")
	if !n.Drain(60000) {
		t.Fatal("did not drain")
	}
	check("after drain")
	return trace
}

// comparePinned builds the same algorithm in reference and event-driven
// modes and requires bit-identical delivery traces under an identical
// traffic drive — the decision-for-decision equivalence contract.
func comparePinned(t *testing.T, a Algo) {
	t.Helper()
	const netSeed, trafficSeed = 67, 71
	ref := deliveryTrace(t, build(t, a, refOptions(), netSeed), trafficSeed)
	evt := deliveryTrace(t, build(t, a, testOptions(), netSeed), trafficSeed)
	if len(ref) == 0 {
		t.Fatal("reference run delivered nothing")
	}
	if len(ref) != len(evt) {
		t.Fatalf("trace lengths differ: reference %d vs event-driven %d", len(ref), len(evt))
	}
	for i := range ref {
		if ref[i] != evt[i] {
			t.Fatalf("delivery %d diverged: reference %x vs event-driven %x", i, ref[i], evt[i])
		}
	}
}

// TestECtNDirtyGroupEquivalence: the dirty-group combine must reproduce
// the combine-every-group reference exactly — a clean group's combine
// recomputes identical sums, so skipping it cannot change any decision.
func TestECtNDirtyGroupEquivalence(t *testing.T) { comparePinned(t, ECtN) }

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
	r := n.Group(0)[0]
	r.Ectn.IncPartial(0)
	alg := n.Alg.(*ectnAlg)
	alg.dirty.Drain(func(int32) {}) // discard the legitimate mark
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("stale clean-group combine not detected")
	}
}

// TestEveryMechanismDeclaresHorizon: every shipped mechanism is eligible
// for quiet-cycle elision (router.CycleHorizon). The ones without
// BeginCycle work answer "never" — the default they inherit with the
// no-op BeginCycle from router.NopHooks — and ECtN, the one with a
// BeginCycle body, answers for it: never while its groups are clean, its
// next combine tick once a partial moved, and no elision at all in the
// combine-every-group reference mode.
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
	n.Routers[0].Ectn.IncPartial(0)
	if c, ok := h.NextAlgCycle(n); !ok || c != 0 {
		t.Fatalf("dirty group at cycle 0: horizon %d ok %v, want the combine due now", c, ok)
	}
	n.Step() // runs the combine: clean again
	if c, ok := h.NextAlgCycle(n); !ok || c != router.NoPendingCycle {
		t.Fatalf("after the combine: horizon %d ok %v, want NoPendingCycle", c, ok)
	}
	n.Routers[0].Ectn.DecPartial(0)
	if c, ok := h.NextAlgCycle(n); !ok || c != o.ECtNPeriod {
		t.Fatalf("dirty group at cycle 1: horizon %d ok %v, want the next combine tick %d", c, ok, o.ECtNPeriod)
	}
	o.ReferenceScan = true
	n = build(t, ECtN, o, 3)
	if _, ok := n.Alg.(router.CycleHorizon).NextAlgCycle(n); ok {
		t.Fatal("the reference exchange combines every period: it must not be elided")
	}
}
