package router

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cbar/internal/rng"
	"cbar/internal/spec"
	"cbar/internal/topology"
)

// Fault injection: a deterministic schedule of link and router failures
// (and repairs) applied to a running fabric.
//
// The plan is a list of FaultEvents sorted by cycle. Due events are
// applied at the sequential point of Step — after the handle barrier,
// before Alg.BeginCycle — so fault state is bit-identical at every
// worker count. Applying a down event does three things:
//
//   - Liveness flags. A failed link marks the outPort on *both* ends
//     dead (links are full duplex); a down router marks every one of its
//     non-injection ports and the matching peer ports dead. Routing
//     reads one bool per candidate (PickPort skips dead ports), so the
//     hot path pays a single flag check.
//   - Kills. Every packet committed to a dead direction is removed and
//     counted in NumDropped: staged output entries, pipeline
//     completions in flight, packets serializing on the wire, and (for
//     a down router) NIC backlogs, input queues and ejecting packets.
//     Each kill reverses exactly the accounting its location still
//     holds — grant reservations for staged/pipelined packets, the
//     downstream credit for wire packets, the upstream credit for
//     queued packets — so CheckInvariants stays clean through any
//     fault sequence.
//   - Reachability. A router-granularity component map is recomputed
//     (BFS over live links). Inject refuses sources on dead routers and
//     counts packets to unreachable destinations as NumUnroutable;
//     in-flight packets whose destination becomes unreachable are
//     detected at their next routing decision and killed at the next
//     sequential point, also counted NumUnroutable.
//
// Routing interacts with faults in two layers. The routing algorithms
// filter candidate ports on liveness themselves (package routing), so a
// healthy candidate set never changes — with no faults scheduled the RNG
// draw sequence, and therefore the whole simulation, is bit-identical to
// a build without this file. When an algorithm still requests a dead
// port (its minimal path died and the policy has no alternative), the
// router-side escape in faultAdjust redirects the packet through a
// random live transit port, counting a FaultDetour; a packet that
// accumulates maxFaultDetours of them is dropped as hopelessly wandering.
// Escapes can violate the ascending-VC deadlock discipline, so forward
// progress under faults is guaranteed by the detour cap (and optional
// retransmission), not by the VC ladder.
//
// Retransmission is the optional source-side reaction: with
// RetryLimit > 0 the traffic injector re-offers dropped packets with
// exponential backoff (package traffic consumes the OnDrop callback).
// The base mode is drop-and-count.

// FaultKind enumerates the fault-plan event types (re-exported, with its
// constants, by the public cbar package).
type FaultKind uint8

const (
	// LinkDown fails the bidirectional link attached to (Router, Port).
	LinkDown FaultKind = iota
	// LinkUp repairs a previously failed link.
	LinkUp
	// RouterDown fails a whole router: all its links, queues and NICs.
	RouterDown
	// RouterUp repairs a previously failed router.
	RouterUp
)

// String returns the kind's spec-clause name ("linkdown", "routerup",
// ...), as ParseFaultConfig accepts.
func (k FaultKind) String() string {
	if k <= RouterUp {
		return faultGrammar[k].name
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultEvent is one scheduled fault: at cycle Cycle, the given kind is
// applied to router Router (and, for link events, its output port
// Port). Events are applied at the sequential point of the cycle, so
// fault state — and every downstream effect — is bit-identical at every
// worker count.
type FaultEvent struct {
	// Kind selects what fails or recovers.
	Kind FaultKind
	// Router is the affected router id.
	Router int32
	// Port is the router-side output port of a link event (ignored for
	// router events). Ports order injection, then local, then global
	// channels; only local/global ports can fail individually.
	Port int16
	// Cycle is when the event applies (at the cycle's sequential point).
	Cycle int64
}

// FaultConfig is the deterministic fault plan (re-exported as
// cbar.Faults): scheduled link/router failures and repairs, an optional
// random link-failure expansion, and the source retransmission policy
// for killed packets. The zero value schedules nothing and is
// bit-inert: no state is allocated, no hot-path branch is taken beyond
// one nil check per cycle, and the simulation is identical to a build
// without the fault engine.
type FaultConfig struct {
	// Events is the explicit fault schedule, in any order: events are
	// applied in ascending cycle order (stable for equal cycles: listed
	// order).
	Events []FaultEvent

	// RandomPct, when positive, additionally fails that percentage of
	// the topology's physical global cables (at least one) at cycle
	// RandomAt, sampled without replacement from the deterministic
	// stream seeded by RandomSeed. The expansion happens at Build, so
	// the same (topology, pct, seed) triple always fails the same
	// cables.
	RandomPct float64
	// RandomAt is the cycle the random expansion applies at.
	RandomAt int64
	// RandomSeed seeds the random cable draw (0 is a valid seed).
	RandomSeed uint64

	// RetryLimit, when positive, makes the traffic injector re-offer a
	// dropped packet up to this many times, with exponential backoff
	// RetryBase<<attempt cycles after the drop. Zero (the default)
	// means drop-and-count.
	RetryLimit int

	// RetryBase is the backoff unit in cycles (default
	// LatencyLocal+LatencyGlobal, a worst-case one-way path).
	RetryBase int64
}

// Enabled reports whether the plan schedules any fault.
func (fc FaultConfig) Enabled() bool {
	return len(fc.Events) > 0 || fc.RandomPct > 0
}

// String renders the plan in ParseFaultConfig's canonical syntax ("off"
// for the zero value), which parses back to fc.
func (fc FaultConfig) String() string {
	var parts []string
	for _, e := range fc.Events {
		parts = append(parts, faultGrammar[min(e.Kind, RouterUp)].print(&fc, &e))
	}
	for _, c := range faultGrammar[RouterUp+1:] {
		if c.on(fc) {
			parts = append(parts, c.print(&fc, nil))
		}
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, "+")
}

// faultClause is one row of the fault-plan grammar, "name:ARGS". Its
// fields fill a new event (the rows indexed by FaultKind) or the plan's
// own fields (the others, once each): the first at are written before an
// '@', the first least are required, the others print only when nonzero.
type faultClause struct {
	name, usage string
	args        func(fc *FaultConfig, e *FaultEvent) []any
	at, least   int
	unit        string                           // follows the fields before the '@' ("5%"); optional in input
	on          func(fc FaultConfig) bool        // a plan row is present
	valid       func(fc FaultConfig, n int) bool // given the n fields written; else the clause is rejected: why
	why         string
}

func linkFields(_ *FaultConfig, e *FaultEvent) []any { return []any{&e.Router, &e.Port, &e.Cycle} }

func routerFields(_ *FaultConfig, e *FaultEvent) []any { return []any{&e.Router, &e.Cycle} }

var faultGrammar = []faultClause{
	LinkDown:   {name: "linkdown", usage: "linkdown:R,P@C", args: linkFields, at: 2, least: 3},
	LinkUp:     {name: "linkup", usage: "linkup:R,P@C", args: linkFields, at: 2, least: 3},
	RouterDown: {name: "routerdown", usage: "routerdown:R@C", args: routerFields, at: 1, least: 2},
	RouterUp:   {name: "routerup", usage: "routerup:R@C", args: routerFields, at: 1, least: 2},
	{name: "random", usage: "random:F%@C[,SEED]", at: 1, least: 2, unit: "%",
		args:  func(fc *FaultConfig, _ *FaultEvent) []any { return []any{&fc.RandomPct, &fc.RandomAt, &fc.RandomSeed} },
		on:    func(fc FaultConfig) bool { return fc.RandomPct > 0 },
		valid: func(fc FaultConfig, _ int) bool { return fc.RandomPct > 0 && fc.RandomPct <= 100 },
		why:   "percentage outside (0,100]"},
	{name: "retry", usage: "retry:N[,BASE]", least: 1,
		args:  func(fc *FaultConfig, _ *FaultEvent) []any { return []any{&fc.RetryLimit, &fc.RetryBase} },
		on:    func(fc FaultConfig) bool { return fc.RetryLimit > 0 },
		valid: func(fc FaultConfig, n int) bool { return fc.RetryLimit >= 1 && (n < 2 || fc.RetryBase >= 1) },
		why:   "limit and backoff base must be >= 1"},
}

// ParseFaultConfig resolves a case-insensitive fault-plan spec: "off" or
// clauses joined by '+' ("random:5%@1000+retry:3"). An id too wide for
// its field is an error, never a wrapped-around id.
func ParseFaultConfig(s string) (FaultConfig, error) {
	var fc FaultConfig
	if ls := strings.ToLower(strings.TrimSpace(s)); ls != "" && ls != "off" {
		for _, part := range strings.Split(ls, "+") {
			part = strings.TrimSpace(part)
			name, rest, ok := strings.Cut(part, ":")
			i := slices.IndexFunc(faultGrammar, func(c faultClause) bool { return c.name == name })
			switch {
			case !ok || i < 0:
				return FaultConfig{}, fmt.Errorf("router: fault spec %q in %q is not %s", part, s, FaultGrammar())
			case faultGrammar[i].on != nil && faultGrammar[i].on(fc):
				return FaultConfig{}, fmt.Errorf("router: duplicate %s spec in %q", name, s)
			}
			if err := faultGrammar[i].parse(&fc, FaultKind(i), rest); err != nil {
				return FaultConfig{}, fmt.Errorf("router: bad fault spec %q in %q: %v", part, s, err)
			}
		}
	}
	return fc, nil
}

// FaultGrammar lists the fault-plan clauses for help and error text.
func FaultGrammar() string {
	forms := []string{"off"}
	for _, c := range faultGrammar {
		forms = append(forms, c.usage)
	}
	return strings.Join(forms, " | ") + "; compose with '+'"
}

// parse reads one clause's arguments into fc, or into a new event of kind k.
func (c *faultClause) parse(fc *FaultConfig, k FaultKind, rest string) error {
	if c.at > 0 {
		head, tail, ok := strings.Cut(rest, "@")
		if !ok || strings.Count(head, ",") != c.at-1 {
			return fmt.Errorf("want %s", c.usage)
		}
		rest = strings.TrimSuffix(strings.TrimSpace(head), c.unit) + "," + tail
	}
	e := FaultEvent{Kind: k}
	n, err := spec.Args(rest, c.least, c.args(fc, &e))
	switch {
	case err != nil:
		return fmt.Errorf("want %s: %v", c.usage, err)
	case c.on == nil:
		fc.Events = append(fc.Events, e)
	case !c.valid(*fc, n):
		return errors.New(c.why)
	}
	return nil
}

// print spells the clause with fc's or e's values (e in its kind's name).
func (c *faultClause) print(fc *FaultConfig, e *FaultEvent) string {
	fields, s := c.args(fc, e), c.name+":"
	if e != nil {
		s = e.Kind.String() + ":"
	}
	if c.at > 0 {
		s += spec.FormatArgs(fields[:c.at], c.at) + c.unit + "@"
	}
	return s + spec.FormatArgs(fields[c.at:], c.least-c.at)
}

// Resolved returns the configuration with zero-valued knobs replaced by
// their defaults.
func (fc FaultConfig) Resolved(c Config) FaultConfig {
	if fc.RetryLimit > 0 && fc.RetryBase == 0 {
		fc.RetryBase = int64(c.LatencyLocal + c.LatencyGlobal)
	}
	return fc
}

// maxRetryLimit bounds the retransmission count so the exponential
// backoff shift cannot overflow.
const maxRetryLimit = 16

// validate checks a resolved configuration against the fabric it will
// run in.
func (fc FaultConfig) validate(c Config) error {
	t, err := topology.New(c.Topo)
	if err != nil {
		return err
	}
	for i, ev := range fc.Events {
		if ev.Kind > RouterUp {
			return fmt.Errorf("router: fault event %d has invalid kind %d", i, ev.Kind)
		}
		if ev.Router < 0 || int(ev.Router) >= t.Routers {
			return fmt.Errorf("router: fault event %d router %d outside [0,%d)", i, ev.Router, t.Routers)
		}
		if ev.Kind == LinkDown || ev.Kind == LinkUp {
			if int(ev.Port) < t.FirstLocalPort() || int(ev.Port) >= t.Radix() {
				return fmt.Errorf("router: fault event %d port %d is not a link port (want [%d,%d))",
					i, ev.Port, t.FirstLocalPort(), t.Radix())
			}
		}
		if ev.Cycle < 0 {
			return fmt.Errorf("router: fault event %d cycle %d < 0", i, ev.Cycle)
		}
	}
	if fc.RandomPct < 0 || fc.RandomPct > 100 {
		return fmt.Errorf("router: random fault fraction %g%% outside [0,100]", fc.RandomPct)
	}
	if fc.RandomPct > 0 && fc.RandomAt < 0 {
		return fmt.Errorf("router: random fault cycle %d < 0", fc.RandomAt)
	}
	if fc.RetryLimit < 0 || fc.RetryLimit > maxRetryLimit {
		return fmt.Errorf("router: retry limit %d outside [0,%d]", fc.RetryLimit, maxRetryLimit)
	}
	if fc.RetryLimit > 0 && fc.RetryBase < 1 {
		return fmt.Errorf("router: retry backoff base %d < 1", fc.RetryBase)
	}
	return nil
}

// plan expands the random-cable clause into explicit LinkDown events and
// returns the full schedule in ascending cycle order (stable, so
// same-cycle events keep their listed order, random failures last).
func (fc FaultConfig) plan(t *topology.Dragonfly) []FaultEvent {
	events := append([]FaultEvent(nil), fc.Events...)
	if fc.RandomPct > 0 {
		// Enumerate each physical cable once by its canonical endpoint
		// (the lower-numbered group), then partial-Fisher-Yates k of
		// them from the seeded stream.
		type endpoint struct {
			router int32
			port   int16
		}
		var cables []endpoint
		for g := 0; g < t.Groups; g++ {
			for l := 0; l < t.GlobalLinks; l++ {
				if !t.CanonicalGlobalLink(g, l) {
					continue
				}
				pos, k := t.GlobalLinkOwner(l)
				cables = append(cables, endpoint{
					router: int32(t.RouterID(g, pos)),
					port:   int16(t.GlobalPort(k)),
				})
			}
		}
		k := int(fc.RandomPct*float64(len(cables))/100 + 0.5)
		if k < 1 {
			k = 1
		}
		if k > len(cables) {
			k = len(cables)
		}
		r := rng.New(fc.RandomSeed, 0)
		for i := 0; i < k; i++ {
			j := i + r.Intn(len(cables)-i)
			cables[i], cables[j] = cables[j], cables[i]
			events = append(events, FaultEvent{
				Kind: LinkDown, Router: cables[i].router, Port: cables[i].port, Cycle: fc.RandomAt,
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	return events
}

// maxFaultDetours caps the escape redirections a single packet may
// accumulate before it is dropped as unable to make progress around the
// fault pattern.
const maxFaultDetours = 16

// pendingKill reasons.
const (
	killUnreachable uint8 = iota // destination partitioned: NumUnroutable
	killDetourCap                // detour cap exhausted: NumDropped
)

// pendingKill is a head packet flagged for removal by a routing decision
// (unreachable destination or exhausted detour budget). The flag is
// raised during the shard-parallel route phase and resolved at the next
// sequential point, after re-verifying that the packet is still the
// ungranted head (and, for unreachable kills, that no repair restored
// the path in between).
type pendingKill struct {
	router int32
	port   int16
	vc     int8
	reason uint8
	pkt    *Packet
}

// faultState is the network's fault-injection engine; nil when the plan
// is empty.
type faultState struct {
	cfg    FaultConfig
	events []FaultEvent // full expanded plan, ascending cycle
	next   int          // cursor: events[:next] have been applied

	// comp labels each live router's connected component over live
	// links; -1 for down routers. Labels are assigned in ascending
	// first-router order, so equal fault state yields equal labels at
	// any worker count.
	comp []int32

	// Kill machinery scratch, reused across applications: the victims of
	// the application in progress (each also marked Packet.killed).
	killed   []*Packet
	bfsQueue []int32
}

func newFaultState(fc FaultConfig, t *topology.Dragonfly) *faultState {
	return &faultState{
		cfg:    fc,
		events: fc.plan(t),
		comp:   make([]int32, t.Routers),
	}
}

// FaultsActive reports whether a fault plan is scheduled on this
// network. Routing algorithms use it to gate their (slightly more
// expensive) fault-aware candidate checks.
func (n *Network) FaultsActive() bool { return n.faults != nil }

// Reachable reports whether routers a and b are connected through live
// links and routers. Always true without a fault plan.
func (n *Network) Reachable(a, b int) bool { return n.reachableRouters(int32(a), int32(b)) }

// GlobalLinkAlive reports whether global link l of group g is up at its
// local endpoint: the owning router is alive and its global port is not
// dead. Always true without a fault plan. Source-routed mechanisms (PB)
// consult this the way their saturation flags model the piggybacked
// link-state broadcast: a dead channel is advertised group-wide exactly
// as a saturated one is.
func (n *Network) GlobalLinkAlive(g, l int) bool {
	if n.faults == nil {
		return true
	}
	t := n.Topo
	r := n.groups[g][l/t.H]
	return !r.down && !r.out[t.GlobalPort(l%t.H)].dead
}

// reachableRouters reports whether routers a and b are in the same live
// component. Always true without a fault plan.
func (n *Network) reachableRouters(a, b int32) bool {
	f := n.faults
	if f == nil {
		return true
	}
	ca := f.comp[a]
	return ca >= 0 && ca == f.comp[b]
}

// faultsPending reports whether the next sequential point has fault work
// to do: a due plan event or a pending routing-flagged kill. The
// parallel stepper's quiet path must not skip such a cycle.
func (n *Network) faultsPending() bool {
	f := n.faults
	if f == nil {
		return false
	}
	if f.next < len(f.events) && f.events[f.next].Cycle <= n.now {
		return true
	}
	for s := range n.shards {
		if len(n.shards[s].pendingKills) > 0 {
			return true
		}
	}
	return false
}

// applyFaults runs at the sequential point of Step (before BeginCycle):
// due plan events are applied in order, the component map refreshed, and
// the kills flagged by the previous cycle's routing decisions resolved.
// Shards are visited in ascending order, which is ascending router
// order — the order a sequential route scan flagged them in.
func (n *Network) applyFaults() {
	f := n.faults
	changed := false
	for f.next < len(f.events) && f.events[f.next].Cycle <= n.now {
		n.applyFaultEvent(f.events[f.next])
		f.next++
		changed = true
	}
	if changed {
		n.computeComponentsInto(f.comp)
		// A fault event moves liveness flags, reachability, credits,
		// occupancies and (through the kills' OnDequeue) contention
		// counters on routers far from the failed component: every
		// parked router gets a fresh visit.
		for g := range n.groups {
			n.WakeGroup(g)
		}
	}
	for s := range n.shards {
		sh := &n.shards[s]
		if len(sh.pendingKills) == 0 {
			continue
		}
		for i := range sh.pendingKills {
			n.resolvePendingKill(&sh.pendingKills[i])
			sh.pendingKills[i].pkt = nil
		}
		sh.pendingKills = sh.pendingKills[:0]
	}
}

// applyFaultEvent applies one plan event: flip liveness flags, kill every
// packet committed to a now-dead direction, reconcile the accounting,
// and count the victims.
func (n *Network) applyFaultEvent(ev FaultEvent) {
	kills := false
	switch ev.Kind {
	case LinkDown, LinkUp:
		failed := ev.Kind == LinkDown
		r := n.Routers[ev.Router]
		peer, peerPort := n.Topo.Neighbor(int(ev.Router), int(ev.Port))
		r.out[ev.Port].linkFailed = failed
		n.Routers[peer].out[peerPort].linkFailed = failed
		n.refreshPortDead(r, int(ev.Port))
		n.refreshPortDead(n.Routers[peer], peerPort)
		kills = failed

	case RouterDown:
		rt := n.Routers[ev.Router]
		if rt.down {
			return
		}
		rt.down = true
		n.killRouterContents(rt)
		n.refreshRouterLinks(rt)
		kills = true

	case RouterUp:
		rt := n.Routers[ev.Router]
		if !rt.down {
			return
		}
		rt.down = false
		n.refreshRouterLinks(rt)
	}
	if kills {
		n.sweepFaultVictims()
	}
	n.finalizeFaultVictims()
}

// refreshPortDead recomputes the effective liveness of one non-injection
// output port from its link flag and both endpoint routers, draining the
// port's staged output queue when it just died (the entries' grants are
// reversed; the packets join the victim set for the calendar sweep).
func (n *Network) refreshPortDead(r *Router, port int) {
	o := &r.out[port]
	if o.kind == Injection {
		return
	}
	dead := o.linkFailed || r.down || n.Routers[o.peerRouter].down
	if dead == o.dead {
		return
	}
	o.dead = dead
	if dead {
		n.killStagedQueue(r, port)
	}
}

// refreshRouterLinks refreshes the liveness of every link touching rt,
// on both ends.
func (n *Network) refreshRouterLinks(rt *Router) {
	for port := n.Topo.FirstLocalPort(); port < len(rt.out); port++ {
		n.refreshPortDead(rt, port)
		o := &rt.out[port]
		n.refreshPortDead(n.Routers[o.peerRouter], int(o.peerPort))
	}
}

// killRouterContents removes every packet resident in a freshly down
// router: NIC backlogs of its attached nodes, all input queues (with the
// upstream credits each queued packet still holds returned to the
// sender), and the staged ejection queues. Transit output queues are
// drained by refreshRouterLinks/refreshPortDead; pipeline and wire
// packets by the calendar sweep.
func (n *Network) killRouterContents(rt *Router) {
	f := n.faults
	t := n.Topo
	for c := 0; c < t.P; c++ {
		node := t.NodeID(rt.ID, c)
		q := &n.nics[node]
		for q.len() > 0 {
			f.noteVictim(rt.shard.newPacket(n, node, q.pop()))
		}
	}
	for slot := range rt.vqs {
		for !rt.vqs[slot].empty() {
			n.killQueued(rt, int(n.slotPort[slot]), int(n.slotVC[slot]))
		}
	}
	for port := 0; port < t.P; port++ {
		n.killStagedQueue(rt, port)
	}
}

// killStagedQueue drains the staged output queue of (r, port), reversing
// each entry's grant reservation (the credits and output space it holds)
// and removing any tail residue still in an input queue. A granted
// packet occupies exactly one of: the pipeline (evPipeDone pending), the
// staged queue, or the wire — so this reversal happens at most once per
// packet.
func (n *Network) killStagedQueue(r *Router, port int) {
	o := &r.out[port]
	for o.qLen() > 0 {
		e := o.qPop()
		r.unreserve(port, e.vc, true)
		n.faults.noteVictim(e.pkt)
		n.killGrantedResidue(r, e.pkt)
	}
	r.stagedPorts.drop(int32(port))
}

// killGrantedResidue removes a killed granted packet's tail from r's
// input queues, if it is still streaming out there (with Speedup 1 the
// serialization outlives the pipeline, so a packet can be staged — or
// even on the wire — while its tail still occupies the input buffer).
func (n *Network) killGrantedResidue(r *Router, p *Packet) {
	for slot, head := range r.heads {
		if head == p {
			n.killQueued(r, int(n.slotPort[slot]), int(n.slotVC[slot]))
			return
		}
	}
}

// killQueued removes the head of r's input VC (port, vc) as a fault
// victim: the same dequeue a tail departure performs, and the upstream
// credit the packet held returned at once, as resolvePendingKill does.
// During sweepFaultVictims the push may land in a bucket being scanned:
// the scan walks only the events a bucket held when it got there and
// ignores credits, and the filter keeps events in order, so each bucket
// ends with its surviving events followed by the kills' credits in kill
// order.
func (n *Network) killQueued(r *Router, port, vc int) {
	p := r.dequeue(port, vc)
	n.faults.noteVictim(p)
	n.returnCredit(nil, &r.in[port], int8(vc))
}

// sweepFaultVictims scans every pending calendar event for packets
// committed to a dead direction, then removes every event referencing a
// victim. Phase A (scan) does the location-specific accounting: a
// pipeline completion toward a dead port reverses its grant like a
// staged entry; a head arrival over a dead link returns the downstream
// credit the wire packet holds (its output space comes back through the
// still-pending packet-free evOutFree); an ejecting packet of a down
// router needs no reversal (delivery would not have returned ejection
// credits either). Phase B (filter) then drops every event carrying a
// victim pointer — including the tail-leave events whose queue pops
// killGrantedResidue already performed — while packet-free events
// (credits, output frees) always survive: their accounting must
// complete even across a dead link, which is exactly how credits owed
// across it are reconciled.
func (n *Network) sweepFaultVictims() {
	for s := range n.shards {
		sh := &n.shards[s]
		for b := range sh.cal {
			c := sh.cal[b].head
			for left := sh.cal[b].n; left > 0; left -= chunkEvents {
				for i := range min(left, chunkEvents) {
					n.faultScanEvent(&c.ev[i])
				}
				c = c.next
			}
		}
		for t := range sh.outbox {
			for i := range sh.outbox[t] {
				n.faultScanEvent(&sh.outbox[t][i].ev)
			}
		}
	}
	if len(n.faults.killed) == 0 {
		return
	}
	for s := range n.shards {
		sh := &n.shards[s]
		for b := range sh.cal {
			sh.filterBucket(int64(b))
		}
		for t := range sh.outbox {
			mb := sh.outbox[t]
			w := 0
			for i := range mb {
				if !mb[i].ev.isVictim() {
					mb[w] = mb[i]
					w++
				}
			}
			clear(mb[w:])
			sh.outbox[t] = mb[:w]
		}
	}
}

// isVictim reports whether ev carries a packet of the victim set.
func (ev *event) isVictim() bool { return ev.pkt != nil && ev.pkt.killed }

// faultScanEvent is sweepFaultVictims' phase A on one event.
func (n *Network) faultScanEvent(ev *event) {
	switch ev.kind {
	case evPipeDone:
		u := n.Routers[ev.router]
		if u.down || u.out[ev.port].dead {
			u.unreserve(int(ev.port), ev.vc, true)
			n.faults.noteVictim(ev.pkt)
			n.killGrantedResidue(u, ev.pkt)
		}
	case evHeadArrive:
		d := n.Routers[ev.router]
		ip := &d.in[ev.port]
		u := n.Routers[ip.upRouter]
		if u.out[ip.upPort].dead {
			u.unreserve(int(ip.upPort), ev.vc, false)
			n.faults.noteVictim(ev.pkt)
			n.killGrantedResidue(u, ev.pkt)
		}
	case evDeliver:
		u := n.Routers[ev.router]
		if u.down {
			n.faults.noteVictim(ev.pkt)
			n.killGrantedResidue(u, ev.pkt)
		}
	}
}

// noteVictim adds p to the victim set, once.
func (f *faultState) noteVictim(p *Packet) {
	if p.killed {
		return
	}
	p.killed = true
	f.killed = append(f.killed, p)
}

// finalizeFaultVictims counts and recycles the victims of one fault
// application, in ascending packet-ID order — discovery order differs
// across worker counts (calendar contents are sharded), the ID order does
// not, so the OnDrop callback sequence is bit-identical everywhere.
func (n *Network) finalizeFaultVictims() {
	f := n.faults
	if len(f.killed) == 0 {
		return
	}
	sort.Slice(f.killed, func(i, j int) bool { return f.killed[i].ID < f.killed[j].ID })
	for _, p := range f.killed {
		n.InFlight--
		n.NumDropped++
		if n.OnDrop != nil {
			n.OnDrop(p, n.now)
		}
		n.recycle(p)
	}
	f.killed = f.killed[:0]
}

// resolvePendingKill resolves one routing-flagged kill at the sequential
// point: the packet must still be the ungranted head it was flagged as
// (a same-batch router death may already have drained it), and an
// unreachable-destination kill is skipped if a repair restored the path.
func (n *Network) resolvePendingKill(pk *pendingKill) {
	r := n.Routers[pk.router]
	ip := &r.in[pk.port]
	p := r.HeadPacket(int(pk.port), int(pk.vc))
	if p != pk.pkt || r.HeadGranted(int(pk.port), int(pk.vc)) {
		return
	}
	if pk.reason == killUnreachable && n.reachableRouters(pk.router, p.DstRouter) {
		return
	}
	r.dequeue(int(pk.port), int(pk.vc))
	n.returnCredit(nil, ip, pk.vc)
	n.InFlight--
	if pk.reason == killUnreachable {
		n.NumUnroutable++
	} else {
		n.NumDropped++
		if n.OnDrop != nil {
			n.OnDrop(p, n.now)
		}
	}
	n.recycle(p)
}

// faultAdjust post-processes a routing decision when a fault plan is
// active. It runs inside the shard-parallel route phase but touches only
// the deciding router's state (its RNG, its shard's pendingKills list),
// preserving the parallel determinism contract. It also keeps the
// parking rule's side of the Route contract: the two outcomes that are
// not repeatable leave a trace routePhase sees (a flagged kill, a random
// draw), so the router stays in the route set; the pass-through reads
// only liveness and reachability, which change only with an applied
// fault event — and that wakes every parked router. Three outcomes:
//
//   - The destination is unreachable: flag the head for an Unroutable
//     kill at the next sequential point and request nothing.
//   - The requested port is dead but the destination reachable: redirect
//     through a uniformly random live transit port (every live port
//     leads into this router's own component, so any of them can make
//     progress), on the VC the ascending discipline assigns that hop
//     (LadderVC; escape paths are longer than the ladder was sized for,
//     so its cap is routinely reached). The grant will count a
//     FaultDetour; past maxFaultDetours the packet is flagged for a
//     Dropped kill instead.
//   - The requested port is alive: the decision passes through
//     untouched, and — because the RNG is only consumed on the dead-port
//     path — the router's random stream stays identical to a fault-free
//     run until a fault actually bites.
func (r *Router) faultAdjust(p *Packet, port, vc int, req Request) (_ Request, escape bool) {
	n := r.net
	if !n.reachableRouters(int32(r.ID), p.DstRouter) {
		return r.flagKill(p, port, vc, killUnreachable), false
	}
	if !req.OK || !r.out[req.Out].dead {
		return req, false
	}
	if p.FaultDetours >= maxFaultDetours {
		return r.flagKill(p, port, vc, killDetourCap), false
	}
	first := n.Topo.FirstLocalPort()
	pick, ok := r.PickPort(first, len(r.out)-first, -1, nil)
	if !ok {
		// No live link at all, yet the destination looked reachable:
		// only possible when the destination is this router itself —
		// but then the minimal request is the (never dead) ejection
		// channel and we would not be here. Treat as partitioned.
		return r.flagKill(p, port, vc, killUnreachable), false
	}
	return Request{Out: pick, VC: r.LadderVC(p, pick), OK: true}, true
}

// flagKill flags head packet p of input VC (port, vc) for removal at the
// next sequential point and requests nothing for it.
func (r *Router) flagKill(p *Packet, port, vc int, reason uint8) Request {
	r.shard.pendingKills = append(r.shard.pendingKills, pendingKill{
		router: int32(r.ID), port: int16(port), vc: int8(vc), reason: reason, pkt: p,
	})
	return Request{}
}

// computeComponentsInto labels the live routers' connected components
// over live links into dst (-1 for down routers), assigning labels in
// ascending first-router order.
func (n *Network) computeComponentsInto(dst []int32) {
	f := n.faults
	for i := range dst {
		dst[i] = -1
	}
	queue := f.bfsQueue[:0]
	label := int32(0)
	firstLink := n.Topo.FirstLocalPort()
	for start := range n.Routers {
		if dst[start] >= 0 || n.Routers[start].down {
			continue
		}
		dst[start] = label
		queue = append(queue, int32(start))
		for len(queue) > 0 {
			rid := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			r := n.Routers[rid]
			for port := firstLink; port < len(r.out); port++ {
				o := &r.out[port]
				if o.dead {
					continue
				}
				if pr := o.peerRouter; dst[pr] < 0 && !n.Routers[pr].down {
					dst[pr] = label
					queue = append(queue, pr)
				}
			}
		}
		label++
	}
	f.bfsQueue = queue[:0]
}

// checkFaultState audits the engine's incremental liveness state against
// a from-scratch replay of the applied plan prefix: per-port link flags,
// effective deadness, per-router down flags, and the component map.
// CheckInvariants calls it whenever a plan is active.
func (n *Network) checkFaultState() error {
	f := n.faults
	down := make([]bool, len(n.Routers))
	type linkKey struct {
		router int32
		port   int16
	}
	failed := make(map[linkKey]bool)
	for _, ev := range f.events[:f.next] {
		switch ev.Kind {
		case LinkDown, LinkUp:
			peer, peerPort := n.Topo.Neighbor(int(ev.Router), int(ev.Port))
			v := ev.Kind == LinkDown
			failed[linkKey{ev.Router, ev.Port}] = v
			failed[linkKey{int32(peer), int16(peerPort)}] = v
		case RouterDown:
			down[ev.Router] = true
		case RouterUp:
			down[ev.Router] = false
		}
	}
	firstLink := n.Topo.FirstLocalPort()
	for _, r := range n.Routers {
		if r.down != down[r.ID] {
			return fmt.Errorf("router %d: down flag %v but plan prefix says %v", r.ID, r.down, down[r.ID])
		}
		for port := range r.out {
			o := &r.out[port]
			if port < firstLink {
				if o.linkFailed || o.dead {
					return fmt.Errorf("router %d ejection %d: marked failed/dead", r.ID, port)
				}
				continue
			}
			wantFailed := failed[linkKey{int32(r.ID), int16(port)}]
			if o.linkFailed != wantFailed {
				return fmt.Errorf("router %d port %d: link-failed flag %v but plan prefix says %v",
					r.ID, port, o.linkFailed, wantFailed)
			}
			wantDead := wantFailed || down[r.ID] || down[o.peerRouter]
			if o.dead != wantDead {
				return fmt.Errorf("router %d port %d: dead flag %v but liveness recompute says %v",
					r.ID, port, o.dead, wantDead)
			}
		}
	}
	fresh := make([]int32, len(n.Routers))
	n.computeComponentsInto(fresh)
	for i := range fresh {
		if fresh[i] != f.comp[i] {
			return fmt.Errorf("router %d: component label %d but recompute says %d", i, f.comp[i], fresh[i])
		}
	}
	if len(f.killed) != 0 {
		return fmt.Errorf("router: fault engine holds %d killed packets between cycles", len(f.killed))
	}
	return nil
}
