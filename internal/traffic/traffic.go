// Package traffic generates the synthetic workloads of the paper's
// evaluation: uniform random (UN), adversarial (ADV+i, every node sends
// to a random node in the group i positions away), probabilistic mixes of
// the two (Figure 6) and time-switching schedules (Figures 7-9). Sources
// inject by a Bernoulli process with a configurable rate in
// phits/(node·cycle), as in §IV-B.
package traffic

import (
	"fmt"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/topology"
)

// Pattern chooses a destination for each generated packet.
type Pattern interface {
	Name() string
	// Dest returns a destination node for a packet sourced at node src,
	// drawing any randomness from r.
	Dest(src int, r *rng.PCG) int
}

// uniform sends to a random node other than the source (UN).
type uniform struct {
	t *topology.Dragonfly
}

// NewUniform returns the UN pattern over topology t. A topology with a
// single node is rejected: "any node but the source" would not exist and
// destination drawing could never terminate.
func NewUniform(t *topology.Dragonfly) (Pattern, error) {
	if err := validatePatternTopology(t, "uniform"); err != nil {
		return nil, err
	}
	return uniform{t}, nil
}

func (uniform) Name() string { return "UN" }

func (u uniform) Dest(src int, r *rng.PCG) int {
	for {
		d := r.Intn(u.t.Nodes)
		if d != src {
			return d
		}
	}
}

// adversarial sends to a random node in the group `offset` positions
// away (ADV+offset).
type adversarial struct {
	t      *topology.Dragonfly
	offset int
}

// NewAdversarial returns the ADV+offset pattern. Offset must not be a
// multiple of the group count (which would degenerate to intra-group
// traffic).
func NewAdversarial(t *topology.Dragonfly, offset int) (Pattern, error) {
	if offset%t.Groups == 0 {
		return nil, fmt.Errorf("traffic: ADV offset %d is a multiple of the %d groups", offset, t.Groups)
	}
	return adversarial{t, offset}, nil
}

func (a adversarial) Name() string { return fmt.Sprintf("ADV+%d", a.offset) }

func (a adversarial) Dest(src int, r *rng.PCG) int {
	g := a.t.GroupOfNode(src)
	dg := g + a.offset
	dg %= a.t.Groups
	if dg < 0 {
		dg += a.t.Groups
	}
	perGroup := a.t.A * a.t.P
	return dg*perGroup + r.Intn(perGroup)
}

// mix draws each packet from pattern A with probability fracA, else B
// (the Figure 6 workload: a UN/ADV+1 blend).
type mix struct {
	a, b  Pattern
	fracA float64
}

// NewMix returns a per-packet probabilistic mix: fracA of the traffic
// follows a, the rest follows b.
func NewMix(a, b Pattern, fracA float64) (Pattern, error) {
	if !(fracA >= 0 && fracA <= 1) { // negated, so NaN is rejected too
		return nil, fmt.Errorf("traffic: mix fraction %v outside [0,1]", fracA)
	}
	return mix{a, b, fracA}, nil
}

func (m mix) Name() string {
	return fmt.Sprintf("mix(%.0f%% %s, %.0f%% %s)", m.fracA*100, m.a.Name(), (1-m.fracA)*100, m.b.Name())
}

func (m mix) Dest(src int, r *rng.PCG) int {
	if r.Bernoulli(m.fracA) {
		return m.a.Dest(src, r)
	}
	return m.b.Dest(src, r)
}

// Phase is one segment of a time-switching schedule.
type Phase struct {
	// FromCycle is the first cycle this phase's pattern applies to.
	FromCycle int64
	Pattern   Pattern
}

// Schedule switches patterns at fixed cycles (the transient experiments
// of Figures 7-9: UN before the switch, ADV+1 after).
type Schedule struct {
	phases []Phase
}

// NewSchedule builds a schedule from phases ordered by FromCycle; the
// first phase must start at or before cycle 0.
func NewSchedule(phases ...Phase) (*Schedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("traffic: empty schedule")
	}
	if phases[0].FromCycle > 0 {
		return nil, fmt.Errorf("traffic: schedule must cover cycle 0 (first phase starts at %d)", phases[0].FromCycle)
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].FromCycle <= phases[i-1].FromCycle {
			return nil, fmt.Errorf("traffic: schedule phases out of order at %d", i)
		}
	}
	for i, p := range phases {
		if p.Pattern == nil {
			return nil, fmt.Errorf("traffic: nil pattern in phase %d", i)
		}
	}
	return &Schedule{phases: phases}, nil
}

// Constant wraps a single pattern as an all-time schedule.
func Constant(p Pattern) *Schedule {
	s, err := NewSchedule(Phase{FromCycle: 0, Pattern: p})
	if err != nil {
		panic(err) // unreachable: the single phase is always valid
	}
	return s
}

// At returns the pattern in force at the given cycle.
func (s *Schedule) At(cycle int64) Pattern {
	cur := s.phases[0].Pattern
	for _, ph := range s.phases[1:] {
		if cycle < ph.FromCycle {
			break
		}
		cur = ph.Pattern
	}
	return cur
}

// Injector drives a network with generated traffic toward destinations
// drawn from the schedule's current pattern. Two injection paths exist:
//
//   - The homogeneous Bernoulli fast path (NewInjector): each cycle,
//     each node generates a packet with probability load/packetSize
//     (load measured in phits/(node·cycle), §IV-B), skip-sampled so the
//     cost is O(packets generated). This path is kept bit-identical to
//     the original injector.
//   - The stateful calendar path (NewSourceInjector): per-node arrival
//     processes (bursty on-off sources, heterogeneous rates) keep their
//     next injection time on a calendar; each cycle pops only the nodes
//     that inject now, preserving the O(packets generated) cost.
type Injector struct {
	net   *router.Network
	sched *Schedule
	prob  float64
	gap   rng.Geom // prob's node-gap distribution on the fast path
	load  float64
	rng   *rng.PCG
	// Stateful path (nil src selects the homogeneous fast path).
	src Source
	cal calendar
	// th is the AIMD congestion throttle (nil unless the network's
	// congestion management is enabled — see throttle.go).
	th *throttle
	// rtx re-offers fault-dropped packets (nil unless the network's
	// fault plan enables retransmission — see retransmit.go).
	rtx *retransmitter

	// The Bernoulli fast path's look-ahead, which lets NextArrival
	// certify cycles empty for elision: next is the cycle whose first
	// Geometric draw comes next (every cycle before it drew empty), and
	// nextNode is the node that draw landed on once made, else -1.
	// Cycle and NextArrival both take a cycle's first draw through
	// firstDraw, so it is drawn once whichever asks first and the stream
	// stays bit-identical to stepping every cycle.
	next     int64
	nextNode int
}

// NewInjector builds a homogeneous Bernoulli injector at the given
// offered load in phits/(node·cycle). Loads above the injection
// bandwidth of 1 are rejected.
func NewInjector(net *router.Network, sched *Schedule, load float64, seed uint64) (*Injector, error) {
	if !(load >= 0 && load <= 1) { // NaN included
		return nil, fmt.Errorf("traffic: offered load %v outside [0,1] phits/(node*cycle)", load)
	}
	if sched == nil {
		return nil, fmt.Errorf("traffic: nil schedule")
	}
	prob := load / float64(net.Cfg.PacketSize)
	in := &Injector{
		net:   net,
		sched: sched,
		prob:  prob,
		gap:   rng.NewGeom(prob),
		load:  load,
		rng:   rng.New(seed, 0xC0FFEE),

		next:     net.Now(),
		nextNode: -1,
	}
	if net.Cfg.Congestion.Enabled {
		// Close the congestion loop: the fabric's notifications drive
		// this injector's per-node AIMD rates.
		in.th = newThrottle(net.Topo.Nodes, net.Cfg)
		net.OnNotify = in.th.onNotify
	}
	if fc := net.Cfg.Faults; fc.RetryLimit > 0 {
		// Close the fault-recovery loop: drop reports (fired at the fault
		// barrier) feed this injector's retransmit calendar.
		in.rtx = newRetransmitter(net, fc.RetryLimit, fc.RetryBase)
		net.OnDrop = in.rtx.onDrop
	}
	return in, nil
}

// NewSourceInjector builds a stateful injector whose per-node arrival
// processes follow spec at the given aggregate offered load in
// phits/(node·cycle). The network must be at cycle 0: source state
// (burst phases, next-injection times) is anchored to the simulation
// start. Construction is O(nodes) (every node's first injection seeds
// the calendar); each Cycle afterwards costs O(packets generated),
// like the Bernoulli fast path.
func NewSourceInjector(net *router.Network, sched *Schedule, load float64, seed uint64, spec SourceSpec) (*Injector, error) {
	in, err := NewInjector(net, sched, load, seed)
	if err != nil {
		return nil, err
	}
	if now := net.Now(); now != 0 {
		return nil, fmt.Errorf("traffic: stateful injector needs a fresh network, cycle is %d", now)
	}
	src, err := newSource(spec, net.Topo.Nodes, net.Cfg.PacketSize, in.prob, seed)
	if err != nil {
		return nil, err
	}
	in.src = src
	for node := 0; node < net.Topo.Nodes; node++ {
		if t, ok := src.First(node); ok {
			in.cal.push(calEntry{t: t, node: int32(node)})
		}
	}
	return in, nil
}

// Load returns the configured aggregate offered load in
// phits/(node·cycle).
func (in *Injector) Load() float64 { return in.load }

// Throttled returns the number of injection attempts the congestion
// throttle deferred or suppressed so far (zero when congestion
// management is disabled).
func (in *Injector) Throttled() uint64 {
	if in.th == nil {
		return 0
	}
	return in.th.throttled
}

// Retried returns the number of fault-dropped packets successfully
// re-injected so far (zero unless the fault plan enables retries).
func (in *Injector) Retried() uint64 {
	if in.rtx == nil {
		return 0
	}
	return in.rtx.retried
}

// PendingRetries returns the number of retries still waiting on the
// calendar; drain loops include it in their emptiness condition.
func (in *Injector) PendingRetries() int {
	if in.rtx == nil {
		return 0
	}
	return in.rtx.pending()
}

// RatePct returns node's current congestion-throttle rate in percent of
// line rate; 100 when unthrottled or when congestion management is
// disabled.
func (in *Injector) RatePct(node int) int {
	if in.th == nil {
		return 100
	}
	return int(in.th.ratePct(node))
}

// Cycle generates this cycle's traffic; call it once per cycle before
// Network.Step.
//
// Instead of a Bernoulli draw per node — O(nodes) every cycle no matter
// the load — the fast path skip-samples: geometric jumps land directly on
// the nodes that generate this cycle, so the cost is proportional to the
// number of packets generated. The node set produced is distributed
// identically to independent per-node draws (inversion sampling). At
// prob >= 1 every gap is 0 and consumes no uniform, so the same loop
// visits every node in order.
func (in *Injector) Cycle() {
	if in.rtx != nil {
		in.rtx.cycle(in.net.Now())
	}
	if in.src != nil {
		in.cycleCalendar()
		return
	}
	if in.prob <= 0 {
		return
	}
	now := in.net.Now()
	node, ok := in.firstDraw(now)
	if !ok {
		return
	}
	in.next, in.nextNode = now+1, -1
	pat := in.sched.At(now)
	nodes := in.net.Topo.Nodes
	// Every draw here is only asked whether it stays inside the node
	// range, so each is a DrawBelow of the nodes left.
	for ok {
		// A throttled attempt is suppressed (counted by the throttle)
		// and no destination is drawn: the process is memoryless, with no
		// calendar entry to defer, so the node sheds load at the source
		// rather than queueing it.
		if in.th == nil || in.th.admit(node, now) {
			in.net.Inject(node, pat.Dest(node, in.rng))
		}
		var skip int
		skip, ok = in.gap.DrawBelow(in.rng, int64(nodes-node-1))
		node += 1 + skip
	}
}

// NextArrival returns the earliest cycle c with Now() <= c <= limit at
// which this injector would do observable work — a due retransmission, a
// due (or throttle-deferred) calendar entry, or a Bernoulli draw landing
// on a node (throttled nodes count: suppressing the attempt mutates the
// throttle) — or limit+1 when every cycle through limit is certifiably
// empty. It is the injector half of the quiet-cycle elision contract
// (router.Network.ElideHorizon gives the network half): jumping the
// clock to min of the two skips only cycles on which Cycle is a no-op.
//
// On the Bernoulli fast path certification consumes the RNG: one
// Geometric draw per certified-empty cycle — exactly the draw Cycle
// would have made — and the first draw that lands held in the
// look-ahead for Cycle, so the stream stays bit-identical to stepping
// every cycle. Consequently the caller must not advance the network
// past the returned cycle: Cycle panics if a held arrival was jumped
// over.
func (in *Injector) NextArrival(limit int64) int64 {
	now := in.net.Now()
	if limit < now {
		limit = now
	}
	next := limit + 1
	if in.rtx != nil && in.rtx.pending() > 0 {
		at := in.rtx.nextDue()
		if at < now {
			at = now
		}
		if at < next {
			next = at
		}
	}
	if in.src != nil {
		// Calendar path: the heap top is the next injection attempt
		// (throttle-deferred entries were re-pushed at their next
		// allowed cycle, so they are covered).
		if top, ok := in.cal.peek(); ok {
			at := top.t
			if at < now {
				at = now
			}
			if at < next {
				next = at
			}
		}
		return next
	}
	if in.prob <= 0 {
		return next
	}
	// Certify cycles empty one first draw at a time, up to (not
	// including) the earliest other work.
	for c := max(now, in.next); c < next; c++ {
		if _, ok := in.firstDraw(c); ok {
			return c
		}
	}
	return next
}

// firstDraw returns the node cycle c's first Geometric draw lands on, or
// ok false when c generates nothing, moving the look-ahead to c and
// drawing only if c's draw is not made yet. A c the look-ahead has passed
// drew empty; a c beyond a landed draw means the clock skipped a cycle
// that generates.
func (in *Injector) firstDraw(c int64) (node int, ok bool) {
	if c < in.next {
		return 0, false
	}
	if c > in.next {
		if in.nextNode >= 0 {
			panic("traffic: elision jumped past a pending arrival; cap jumps at NextArrival")
		}
		in.next = c // cycles stepped without Cycle draw nothing
	}
	if in.nextNode < 0 {
		if in.nextNode, ok = in.gap.DrawBelow(in.rng, int64(in.net.Topo.Nodes)); !ok {
			in.next, in.nextNode = c+1, -1
			return 0, false
		}
	}
	return in.nextNode, true
}

// cycleCalendar pops every node whose next injection is due and
// reschedules it from its arrival process. Destinations draw from the
// injector's shared stream in pop order, which the calendar keeps
// deterministic (ascending node id within a cycle).
func (in *Injector) cycleCalendar() {
	now := in.net.Now()
	var pat Pattern
	for {
		top, ok := in.cal.peek()
		if !ok || top.t > now {
			return
		}
		in.cal.pop()
		node := int(top.node)
		if in.th != nil && !in.th.admit(node, now) {
			// Throttled: defer the entry to the node's next allowed
			// cycle without consuming the arrival (no Next call, no
			// destination draw) — the packet is delayed, not dropped.
			in.cal.push(calEntry{t: in.th.nextAllowed(node), node: top.node})
			continue
		}
		if pat == nil {
			pat = in.sched.At(now)
		}
		in.net.Inject(node, pat.Dest(node, in.rng))
		if next, ok := in.src.Next(node, now); ok {
			in.cal.push(calEntry{t: next, node: top.node})
		}
	}
}
