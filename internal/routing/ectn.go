package routing

import (
	"fmt"

	"cbar/internal/core"
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
// (core.GroupDirty) and the exchange visits only the flagged groups — a
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
	members    [][]*core.ECtN // per group, per member router: the partial arrays
	// combined is the combined array of each group, indexed by the
	// group's global-link index. It is written only at the BeginCycle
	// barrier and read only by the routers of its own group — of one
	// shard — in the route phase.
	combined [][]int32
	// dirty flags the groups whose partial arrays changed since their
	// last combine.
	dirty *core.GroupDirty
}

func newECtN(o Options) *ectnAlg {
	return &ectnAlg{thLocal: o.BaseTh, thCombined: o.CombinedTh, period: o.ECtNPeriod}
}

func (*ectnAlg) Name() string { return ECtN.String() }

func (a *ectnAlg) Attach(n *router.Network) {
	t := n.Topo
	links := t.GlobalLinks
	// Every router's state and partial array, and every group's member
	// list and combined array, is cut from one array per kind, so
	// attaching makes as many allocations at any fabric size. A group's
	// routers are consecutive ids, so its members are a window.
	var (
		states   = make([]core.ECtN, t.Routers)
		partials = make([]int32, t.Routers*links)
		members  = make([]*core.ECtN, t.Routers)
		combined = make([]int32, t.Groups*links)
	)
	a.members = make([][]*core.ECtN, t.Groups)
	a.combined = make([][]int32, t.Groups)
	// Under shard-parallel stepping the partial-counter hooks run on
	// each group's owning shard worker; a flag per group keeps the marks
	// lock-free and race-free (a group never spans shards) while
	// BeginCycle's Drain stays at the sequential barrier.
	a.dirty = core.NewGroupDirty(t.Groups)
	for id, r := range n.Routers {
		states[id] = core.ECtNOver(partials[id*links:(id+1)*links:(id+1)*links], a.dirty, r.Group())
		r.Ectn = &states[id]
		members[id] = r.Ectn
	}
	for g := range t.Groups {
		lo := t.RouterID(g, 0)
		a.members[g] = members[lo : lo+t.A : lo+t.A]
		a.combined[g] = combined[g*links : (g+1)*links : (g+1)*links]
	}
}

// BeginCycle runs the periodic group-wide combine of the dirty groups.
// An idle period — no partial changed anywhere — costs O(1).
//
// The combined arrays are the one piece of state Route reads that an
// event at the deciding router does not announce, so every recombined
// group is woken (router.Network.WakeGroup): a parked router's stored
// injection decisions are re-evaluated against the new sums.
func (a *ectnAlg) BeginCycle(n *router.Network) {
	if n.Now()%a.period != 0 {
		return
	}
	a.dirty.Drain(func(g int32) {
		core.CombineGroup(a.combined[g], a.members[g])
		n.WakeGroup(int(g))
	})
}

// CheckState audits the dirty-group bookkeeping (router.StateChecker):
// a group the combiner would skip (not marked dirty) must still hold
// combined sums equal to a fresh recombination of its current partials —
// a mismatch means a partial mutation missed its dirty mark.
func (a *ectnAlg) CheckState(n *router.Network) error {
	for g, members := range a.members {
		if a.dirty.Marked(int32(g)) {
			continue
		}
		if err := core.VerifyGroupFresh(a.combined[g], members); err != nil {
			return fmt.Errorf("routing: ECtN group %d: %w", g, err)
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
		r.Ectn.IncPartial(l)
		p.CountedLink = int16(l)
	}
}

func (a *ectnAlg) OnHead(r *router.Router, p *router.Packet, port, vc int) {
	countHead(r, p) // Base local counters
	// Local traffic at the head of an injection queue contributes to
	// the partial array (§III-D).
	t := r.Net().Topo
	if t.IsInjectionPort(port) && p.CountedLink < 0 {
		if l, ok := minGlobalLinkIndex(t, r, p); ok {
			r.Ectn.IncPartial(l)
			p.CountedLink = int16(l)
		}
	}
}

func (a *ectnAlg) OnDequeue(r *router.Router, p *router.Packet, port, vc int) {
	uncount(r, p)
	if p.CountedLink >= 0 {
		r.Ectn.DecPartial(int(p.CountedLink))
		p.CountedLink = -1
	}
}

func (a *ectnAlg) Route(r *router.Router, p *router.Packet, port, vc int) router.Request {
	t := r.Net().Topo
	// Injection decision on the group's combined counters.
	if t.IsInjectionPort(port) && canGlobalMisroute(r, p) {
		combined := a.combined[r.Group()]
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
	return contentionRoute(r, p, a.thLocal)
}
