package routing

import (
	"fmt"

	"cbar/internal/router"
)

// ectnAlg is the paper's Explicit Contention Notification mechanism
// (§III-D). On top of Base's local counters, every router keeps a
// partial array with one counter per global link of its group:
//
//   - incremented when local traffic bound for a remote group reaches
//     the head of an injection queue, and when remote-bound traffic is
//     received through a global input port (transit entering the group);
//     the index is the global link the packet would minimally leave the
//     group through;
//   - decremented when that packet leaves the input queue.
//
// Every ECtNPeriod cycles the routers of a group exchange partial arrays
// and sum them into the combined array. The exchange is modeled as free
// and instantaneous, as in the paper's simulations (§VI-B costs it
// analytically), so every router of a group would hold the same copy:
// the array is kept once per group, here. The periodic combine is
// change-driven: partial mutations set their group's dirty flag
// (ectnAlg.dirty) and the exchange visits only the flagged groups — a
// group whose partials did not change since its last combine would
// recompute the identical sums, so skipping it is exact. CheckState is
// the reference: it recomputes every skipped group's sums on each
// router.Network.CheckInvariants.
//
// At injection, a packet whose minimal global link's combined counter
// exceeds CombinedTh is misrouted through a random global link of the
// current router whose combined counter is under the threshold. All
// other decisions fall back to Base's local counters, which keeps
// in-transit hop-by-hop adaptivity.
//
// Because the combined information is refreshed only at the exchange
// period, a traffic change becomes visible group-wide one period later —
// exactly the 100-cycle plateau ECtN shows in Figure 7 before it starts
// misrouting directly from the injection queues.
type ectnAlg struct {
	// Base's local counters; OnHead and OnDequeue below add the partials.
	contentionHooks

	thLocal    int32
	thCombined int32
	period     int64
	links      int // global links of a group (a*h): every row's length
	// partials holds every router's partial array, router id's row at
	// id*links; a group's routers are consecutive ids, so its rows are a
	// span. combined holds each group's combined array, group g's row at
	// g*links, written only at the BeginCycle barrier and read only by
	// the routers of its own group — of one shard — in the route phase.
	partials, combined []int32
	// dirty flags the groups whose partials changed since their last
	// combine. The hooks mark it on each group's owning shard worker; a
	// byte per group keeps the marks lock-free and race-free (a group
	// never spans shards), while BeginCycle clears it at the barrier.
	dirty []bool
}

// satCap is the saturation value of the 4-bit counter fields the paper
// sizes the ECtN broadcast with (§VI-B): a partial value is transmitted
// saturated at 15, enough to exceed the combined threshold of 10.
const satCap = 15

func newECtN(o Options) *ectnAlg {
	return &ectnAlg{thLocal: o.BaseTh, thCombined: o.CombinedTh, period: o.ECtNPeriod}
}

func (*ectnAlg) Name() string { return ECtN.String() }

// Attach allocates Base's counter bank and the ECtN arrays, all zero and
// every group clean.
func (a *ectnAlg) Attach(n *router.Network) {
	a.contentionHooks.Attach(n)
	t := n.Topo
	a.links = t.GlobalLinks
	a.partials = make([]int32, t.Routers*a.links)
	a.combined = make([]int32, t.Groups*a.links)
	a.dirty = make([]bool, t.Groups)
}

// groupCombined returns group g's combined array.
func (a *ectnAlg) groupCombined(g int) []int32 {
	return a.combined[g*a.links : (g+1)*a.links : (g+1)*a.links]
}

// sumGroup models the periodic exchange of partial arrays within group g
// (§III-D): dst becomes the sum of its routers' partial arrays, each
// value saturated at satCap.
func (a *ectnAlg) sumGroup(dst []int32, g int) {
	clear(dst)
	span := len(a.partials) / len(a.dirty)
	for lo := g * span; lo < (g+1)*span; lo += a.links {
		for l, v := range a.partials[lo : lo+a.links] {
			dst[l] += min(v, satCap)
		}
	}
}

// addPartial adds d (±1) to router r's partial counter for global link
// l and marks r's group dirty; the mark is only written when unset, so
// shard workers do not bounce the flags' cache line. It panics on
// underflow, which is always a bookkeeping bug.
func (a *ectnAlg) addPartial(r *router.Router, l int, d int32) {
	i := r.ID*a.links + l
	if a.partials[i] += d; a.partials[i] < 0 {
		panic(fmt.Sprintf("routing: router %d: ECtN partial counter for link %d went negative", r.ID, l))
	}
	if g := r.Group(); !a.dirty[g] {
		a.dirty[g] = true
	}
}

// BeginCycle runs the periodic group-wide combine of the dirty groups,
// in ascending group order. An idle period — no partial changed
// anywhere — costs one pass over the flags.
//
// The combined arrays are the one piece of state Route reads that an
// event at the deciding router does not announce, so every recombined
// group is woken (router.Network.WakeGroup): a parked router's stored
// injection decisions are re-evaluated against the new sums.
func (a *ectnAlg) BeginCycle(n *router.Network) {
	if n.Now()%a.period != 0 {
		return
	}
	for g, dirty := range a.dirty {
		if dirty {
			a.dirty[g] = false
			a.sumGroup(a.groupCombined(g), g)
			n.WakeGroup(g)
		}
	}
}

// CheckState audits the dirty-group bookkeeping (router.StateChecker):
// a group the combiner would skip (not marked dirty) must still hold
// combined sums equal to a fresh recombination of its current partials —
// a mismatch means a partial mutation missed its dirty mark.
func (a *ectnAlg) CheckState(*router.Network) error {
	fresh := make([]int32, a.links)
	for g, dirty := range a.dirty {
		if dirty {
			continue
		}
		a.sumGroup(fresh, g)
		for l, have := range a.groupCombined(g) {
			if have != fresh[l] {
				return fmt.Errorf("routing: ECtN group %d: combined[%d] = %d stale: fresh partial sum is %d", g, l, have, fresh[l])
			}
		}
	}
	return nil
}

func (a *ectnAlg) OnArrive(r *router.Router, p *router.Packet, port, vc int) {
	// Remote-bound transit entering the group through a global port
	// contributes to the partial array on reception (§III-D).
	t := r.Net().Topo
	if !t.IsGlobalPort(port) {
		return
	}
	if l, ok := minGlobalLinkIndex(t, r, p); ok {
		a.addPartial(r, l, 1)
		p.CountedLink = int16(l)
	}
}

func (a *ectnAlg) OnHead(r *router.Router, p *router.Packet, port, vc int) {
	a.contentionHooks.OnHead(r, p, port, vc) // Base local counters
	// Local traffic at the head of an injection queue contributes to
	// the partial array (§III-D).
	t := r.Net().Topo
	if t.IsInjectionPort(port) && p.CountedLink < 0 {
		if l, ok := minGlobalLinkIndex(t, r, p); ok {
			a.addPartial(r, l, 1)
			p.CountedLink = int16(l)
		}
	}
}

func (a *ectnAlg) OnDequeue(r *router.Router, p *router.Packet, port, vc int) {
	a.contentionHooks.OnDequeue(r, p, port, vc)
	if p.CountedLink >= 0 {
		a.addPartial(r, int(p.CountedLink), -1)
		p.CountedLink = -1
	}
}

func (a *ectnAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	t := r.Net().Topo
	// Injection decision on the group's combined counters.
	if t.IsInjectionPort(port) && canGlobalMisroute(r, p) {
		combined := a.groupCombined(r.Group())
		if l, ok := minGlobalLinkIndex(t, r, p); ok && combined[l] > a.thCombined {
			pos := t.PosOf(r.ID)
			calm := func(out int) bool {
				return combined[t.GlobalLinkIndex(pos, t.GlobalOrdinal(out))] < a.thCombined
			}
			if out, ok := pickGlobal(r, r.MinimalOut(p), calm); ok {
				return request(r, p, out)
			}
		}
	}
	// Everywhere else: Base behavior on the local counters.
	return a.contentionRoute(r, p, a.thLocal)
}
