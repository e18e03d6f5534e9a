package traffic

// This file holds the stateful arrival-process layer of the workload
// engine. The paper's evaluation injects by a memoryless Bernoulli
// process, which the skip-sampling fast path in Injector.Cycle covers;
// bursty (on-off / Markov-modulated) sources and per-node heterogeneous
// loads need per-node state, which the memoryless sampler cannot
// express. A Source yields, per node, the absolute cycles at which that
// node injects; the injector keeps upcoming injections on a calendar (a
// min-heap ordered by cycle then node id, so pops are deterministic),
// making the per-cycle cost O(packets generated) with no O(nodes) term —
// idle nodes and OFF phases cost nothing. Unthrottled, with idle cores to
// spare, the calendar is filled a window at a time across them
// (lookahead).

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cbar/internal/rng"
)

// Source is a per-node stochastic arrival process. Implementations own
// all per-node state, including the RNG streams, and belong to exactly
// one injector. Calls for distinct nodes touch disjoint state, so they
// may run concurrently (the lookahead draws node chunks on several
// cores); calls for one node must stay in order.
type Source interface {
	// First returns the cycle (>= 0, relative to the injector's start)
	// of node's first injection; ok=false if the node never injects.
	First(node int) (cycle int64, ok bool)
	// Next returns the cycle of node's next injection after one at cycle
	// t (strictly greater than t); ok=false if the node never injects
	// again.
	Next(node int, t int64) (cycle int64, ok bool)
}

// SourceKind selects the arrival-process family of a SourceSpec.
type SourceKind int

// Arrival-process families.
const (
	// BernoulliArrivals is the paper's memoryless process: each cycle,
	// each node injects with probability load/packetSize. With no
	// weights this is exactly the homogeneous fast path.
	BernoulliArrivals SourceKind = iota
	// OnOffArrivals is a two-state Markov-modulated (bursty) process:
	// geometrically distributed ON phases injecting at a peak rate
	// alternate with silent OFF phases.
	OnOffArrivals
)

// SourceSpec declares an arrival process; NewSourceInjector resolves it
// against a network and offered load.
type SourceSpec struct {
	Kind SourceKind
	// OnMean and OffMean are the mean ON/OFF phase lengths in cycles
	// (OnOffArrivals). Phase lengths are geometric with these means, so
	// the process is a two-state Markov chain.
	OnMean, OffMean float64
	// PeakLoad, when nonzero, fixes the ON-phase offered load in
	// phits/(node·cycle); the OFF mean is then rescaled so the aggregate
	// load equals the injector's. When zero, the duty cycle
	// OnMean/(OnMean+OffMean) is kept and the ON-phase rate is derived
	// from the aggregate.
	PeakLoad float64
	// Weights scales per-node rates (heterogeneous load). Length must
	// equal the node count; nil means homogeneous. Weights are
	// normalized to mean 1, preserving the aggregate offered load.
	Weights []float64
}

// normalizedWeights validates and rescales weights to mean 1. nil stays
// nil (homogeneous).
func normalizedWeights(w []float64, nodes int) ([]float64, error) {
	if w == nil {
		return nil, nil
	}
	if len(w) != nodes {
		return nil, fmt.Errorf("traffic: %d weights for %d nodes", len(w), nodes)
	}
	sum := 0.0
	for i, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("traffic: weight[%d] = %v invalid", i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("traffic: all %d weights zero", nodes)
	}
	out := make([]float64, nodes)
	scale := float64(nodes) / sum
	for i, v := range w {
		out[i] = v * scale
	}
	return out, nil
}

// newSource resolves a spec at a per-node packet probability q
// (packets/(node·cycle)) into a concrete source for `nodes` nodes, with
// per-node RNG streams derived from seed. packetSize converts the
// spec's phit-based PeakLoad to a packet probability.
func newSource(spec SourceSpec, nodes, packetSize int, q float64, seed uint64) (Source, error) {
	weights, err := normalizedWeights(spec.Weights, nodes)
	if err != nil {
		return nil, err
	}
	switch spec.Kind {
	case BernoulliArrivals:
		return newBernoulliSource(nodes, q, weights, seed)
	case OnOffArrivals:
		return newOnOffSource(nodes, q, spec.PeakLoad/float64(packetSize), spec, weights, seed)
	}
	return nil, fmt.Errorf("traffic: unknown source kind %d", spec.Kind)
}

// prob returns node n's packet probability under optional weights,
// erroring out of range instead of silently clamping (a clamped rate
// would quietly offer less load than requested).
func nodeProb(q float64, weights []float64, n int) (float64, error) {
	p := q
	if weights != nil {
		p = q * weights[n]
	}
	if p > 1 {
		return 0, fmt.Errorf("traffic: node %d rate %.3f packets/cycle exceeds 1 (load too high for its weight)", n, p)
	}
	return p, nil
}

// bernoulliSource is the per-node-stream Bernoulli process: node n
// injects each cycle with the probability gap[n] was prepared for,
// sampled by geometric inversion on its own stream (one uniform per
// injection, not per cycle).
type bernoulliSource struct {
	gap  []rng.Geom
	rngs []rng.PCG
}

func newBernoulliSource(nodes int, q float64, weights []float64, seed uint64) (Source, error) {
	s := &bernoulliSource{gap: make([]rng.Geom, nodes), rngs: make([]rng.PCG, nodes)}
	for n := 0; n < nodes; n++ {
		p, err := nodeProb(q, weights, n)
		if err != nil {
			return nil, err
		}
		s.gap[n] = rng.NewGeom(p)
		s.rngs[n].Seed(seed, uint64(n))
	}
	return s, nil
}

func (s *bernoulliSource) First(n int) (int64, bool) {
	if s.gap[n].Never() {
		return 0, false
	}
	return int64(s.gap[n].Draw(&s.rngs[n])), true
}

func (s *bernoulliSource) Next(n int, t int64) (int64, bool) {
	if s.gap[n].Never() {
		return 0, false
	}
	return t + 1 + int64(s.gap[n].Draw(&s.rngs[n])), true
}

// onOffSource is a two-state Markov-modulated Bernoulli process: in an
// ON phase node n injects each cycle with the probability gapOn[n] was
// prepared for; OFF phases are silent. Phase lengths are geometric
// (>= 1 cycle) with the configured means (phases), so the
// per-cycle naive equivalent is a Markov chain:
// inject by the phase's rate, then stay/leave the phase by its mean.
// Sampling inverts both geometrics, so the cost per injection is O(1)
// plus the (state-advancing) phase transitions skipped over.
type onOffSource struct {
	gapOn  []rng.Geom
	phases rng.OnOff // phases end each cycle with probability 1/OnMean, 1/OffMean
	duty   float64   // stationary probability of the ON phase
	state  []onOffState
	rngs   []rng.PCG
}

type onOffState struct {
	on       bool
	phaseEnd int64 // first cycle beyond the current phase
	started  bool
}

// maxPhaseWalk bounds how many silent ON phases one Next call walks
// before it gives the node up as never injecting again. newOnOffSource
// refuses a rate that expects more than a sixteenth of it per packet, so
// a source that was built runs out with probability under e^-16 per
// packet.
const maxPhaseWalk = 1 << 20

func newOnOffSource(nodes int, q, peakProb float64, spec SourceSpec, weights []float64, seed uint64) (Source, error) {
	if !(spec.OnMean >= 1) || !(spec.OffMean >= 0) || math.IsInf(spec.OnMean+spec.OffMean, 1) {
		return nil, fmt.Errorf("traffic: on-off phase means on=%v off=%v (need finite on >= 1, off >= 0)", spec.OnMean, spec.OffMean)
	}
	if !(peakProb >= 0) {
		return nil, fmt.Errorf("traffic: on-off peak load %v (need >= 0; 0 keeps the duty cycle)", spec.PeakLoad)
	}
	if q <= 0 {
		// Zero aggregate load: a silent source, whatever the phases.
		return &bernoulliSource{gap: make([]rng.Geom, nodes), rngs: make([]rng.PCG, nodes)}, nil
	}
	onMean, offMean := spec.OnMean, spec.OffMean
	qOn := q * (onMean + offMean) / onMean
	if peakProb > 0 {
		// The peak fixes the ON-phase rate; the duty cycle (via the OFF
		// mean) adapts so ON-rate × duty equals the aggregate q.
		if peakProb < q {
			return nil, fmt.Errorf("traffic: on-off peak rate %.4f below aggregate %.4f packets/(node·cycle)", peakProb, q)
		}
		qOn = peakProb
		offMean = onMean * (qOn - q) / q
	}
	if offMean > 0 && offMean < 1 { // phases last >= 1 cycle: less load than asked
		return nil, fmt.Errorf("traffic: on-off phase means on=%v off=%v (peak %v): an OFF mean of %.3g cycles is under the one cycle a phase lasts (need off = 0 or off >= 1; a peak sets off = on*(peak-load)/load)",
			spec.OnMean, spec.OffMean, spec.PeakLoad, offMean)
	}
	if qOn > 1 {
		return nil, fmt.Errorf("traffic: on-off peak rate %.3f packets/(node·cycle) exceeds 1 (lengthen OnMean/OffMean or lower the load)", qOn)
	}
	s := &onOffSource{
		gapOn: make([]rng.Geom, nodes),
		state: make([]onOffState, nodes),
		rngs:  make([]rng.PCG, nodes),
	}
	for n := 0; n < nodes; n++ {
		p, err := nodeProb(qOn, weights, n)
		if err != nil {
			return nil, err
		}
		// An ON phase of the mean length is silent with probability
		// (1-p)^onMean. A node that never injects walks nothing, nor does
		// a source with no OFF phases.
		if silent := -1 / math.Expm1(onMean*math.Log1p(-p)); p > 0 && offMean > 0 && silent > maxPhaseWalk/16 {
			return nil, fmt.Errorf("traffic: node %d at %.3g packets/cycle in ON phases of mean %g cycles (OFF mean %g) expects %.3g silent phases per packet, more than the %d the source will walk (raise the load, lengthen OnMean or set a PeakLoad)",
				n, p, onMean, offMean, silent, maxPhaseWalk/16)
		}
		s.gapOn[n] = rng.NewGeom(p)
		s.rngs[n].Seed(seed, uint64(n))
	}
	// A zero OFF mean is always-on: exactly Bernoulli at the ON rate.
	if offMean == 0 {
		return &bernoulliSource{gap: s.gapOn, rngs: s.rngs}, nil
	}
	pOnEnd, pOffEnd := 1/onMean, 1/offMean
	s.phases = rng.NewOnOff(pOnEnd, pOffEnd)
	s.duty = pOffEnd / (pOnEnd + pOffEnd)
	return s, nil
}

func (s *onOffSource) First(n int) (int64, bool) {
	st := &s.state[n]
	r := &s.rngs[n]
	// Start in the stationary phase distribution; geometric phases are
	// memoryless, so a fresh full phase is the correct residual.
	st.on = r.Bernoulli(s.duty)
	st.phaseEnd = s.phases.Len(st.on, r)
	st.started = true
	return s.nextFrom(n, 0, maxPhaseWalk)
}

func (s *onOffSource) Next(n int, t int64) (int64, bool) {
	return s.nextFrom(n, t+1, maxPhaseWalk)
}

// nextFrom returns the first injection cycle >= from, advancing the
// node's phase state, or gives the node up after budget ON phases.
// Within an ON phase the time to the next injection is geometric; a draw
// past the phase end is discarded and redrawn in the next ON phase,
// which by memorylessness is exactly equivalent to the per-cycle
// Bernoulli chain. Only "past the phase end" is asked of such a draw, so
// it is a DrawBelow: at a low rate nearly every ON phase is silent, and
// a silent phase costs its uniform and a compare, never the inversion —
// the stream is Draw's either way. After a silent ON phase the rest is
// (OFF, ON, gap) triples, which rng.OnOff.Silent walks with the same
// draws, unless a phase always ends (OnMean or the OFF mean exactly 1)
// and so takes no uniform.
func (s *onOffSource) nextFrom(n int, from int64, budget int) (int64, bool) {
	st := &s.state[n]
	r := &s.rngs[n]
	gap := s.gapOn[n]
	if gap.Never() || !st.started {
		return 0, false
	}
	pos := from
	for walk := 0; walk < budget; walk++ {
		// Move to the ON phase that holds pos (an OFF phase is silent to
		// its end).
		for !st.on || pos >= st.phaseEnd {
			pos = max(pos, st.phaseEnd)
			st.on = !st.on
			st.phaseEnd += s.phases.Len(st.on, r)
		}
		if k, below := gap.DrawBelow(r, st.phaseEnd-pos); below {
			return pos + int64(k), true
		}
		pos = st.phaseEnd
		if s.phases.Drawn() {
			t, end, ok := s.phases.Silent(r, gap, pos, budget-walk-1)
			st.phaseEnd = end
			return t, ok
		}
	}
	return 0, false
}

// calEntry is one calendar entry: node injects at cycle t.
type calEntry struct {
	t    int64
	node int32
}

// calendar is a binary min-heap of per-node next-injection times,
// ordered by (cycle, node id) so same-cycle pops visit nodes in
// ascending id order — the same visit order as a full per-node scan,
// keeping calendar-driven runs deterministic.
type calendar struct {
	heap []calEntry
}

func calLess(a, b calEntry) bool {
	return a.t < b.t || (a.t == b.t && a.node < b.node)
}

func (c *calendar) push(e calEntry) {
	c.heap = append(c.heap, e)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !calLess(c.heap[i], c.heap[parent]) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

func (c *calendar) peek() (calEntry, bool) {
	if len(c.heap) == 0 {
		return calEntry{}, false
	}
	return c.heap[0], true
}

func (c *calendar) pop() calEntry {
	top := c.heap[0]
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(c.heap) && calLess(c.heap[l], c.heap[small]) {
			small = l
		}
		if r < len(c.heap) && calLess(c.heap[r], c.heap[small]) {
			small = r
		}
		if small == i {
			return top
		}
		c.heap[i], c.heap[small] = c.heap[small], c.heap[i]
		i = small
	}
}

// never is the arrival cycle of a node that injects no more.
const never = math.MaxInt64

// unstarted is the pending arrival of a node whose First is not drawn
// yet: due before any cycle, so the lookahead's first fill draws it.
const unstarted = -1

// lookaheadChunk is how many consecutive nodes one claim of a fill draws.
const lookaheadChunk = 64

// lookahead draws an unthrottled calendar's arrivals ahead, a window at a
// time. Without a throttle a node's arrival times depend on nothing but
// its own Source state, so they are a fixed sequence the fabric cannot
// change, and drawing them early changes no draw. The calendar holds
// every arrival before the end of the last fill's window; pending[n] is
// node n's first arrival at or past it (unstarted until the first fill
// draws its First) and min the earliest of those — the next arrival once
// the calendar runs dry, and the cycle at which the injector fills the
// next window. A window spans ⌈1/q⌉ cycles at the per-node packet
// probability q, so a fill draws about one arrival per node; a window
// that would cross the run's last cycle ends there, so a run that stops
// where it said draws what the inline path draws: each node's arrivals
// before the end and one past it.
//
// A fill splits the nodes into chunks of lookaheadChunk, claimed from an
// atomic counter by the caller and by the helper goroutines the fill
// starts, then waits for the helpers and pushes every chunk's arrivals
// onto the calendar, whose (cycle, node) order fixes the pop order
// whichever core drew an entry. Nothing outlives a fill.
type lookahead struct {
	src     Source
	span    int64     // window length in cycles
	stop    int64     // the run's end: no window crosses it from before
	pending []int64   // per node: first arrival at or past the window end
	min     int64     // earliest pending arrival
	chunks  []laChunk // per chunk: what its last fill drew
	helpers int       // goroutines a fill starts beside its caller

	// The fill in progress: its window end, the next unclaimed chunk and
	// the helpers still drawing.
	end    int64
	next   atomic.Int64
	wg     sync.WaitGroup
	helper func() // a helper's body, made once so starting one allocates nothing
}

// laChunk is one chunk's share of a fill.
type laChunk struct {
	out []calEntry // arrivals inside the window, node by node
	min int64      // earliest pending arrival after the fill
}

// newLookahead draws src's nodes, none started, ahead at per-node packet
// probability q, its fills drawn on helpers goroutines besides the
// caller's, its windows ending at stop (the cycle the run stops at, or
// never).
func newLookahead(src Source, nodes int, q float64, helpers int, stop int64) *lookahead {
	la := &lookahead{
		src:     src,
		span:    int64(min(math.Ceil(1/q), 1<<62)), // a silent source (q = 0) spans all time
		stop:    stop,
		pending: make([]int64, nodes),
		min:     unstarted,
		chunks:  make([]laChunk, (nodes+lookaheadChunk-1)/lookaheadChunk),
		helpers: min(helpers, (nodes-1)/lookaheadChunk),
	}
	for n := range la.pending {
		la.pending[n] = unstarted
	}
	la.helper = func() {
		defer la.wg.Done()
		la.claim()
	}
	return la
}

// advance fills the next window, the span from now or up to the run's
// end, whichever comes first, once an arrival at or before now is not on
// cal yet. Past the end (a caller that runs on) windows span in full.
func (la *lookahead) advance(cal *calendar, now int64) {
	if la.min > now {
		return
	}
	end := now + min(la.span, never-now)
	if now < la.stop {
		end = min(end, la.stop)
	}
	la.fill(cal, end)
}

// fill draws every arrival before end onto cal.
func (la *lookahead) fill(cal *calendar, end int64) {
	la.end = end
	la.next.Store(0)
	la.wg.Add(la.helpers)
	for range la.helpers {
		go la.helper()
	}
	la.claim()
	la.wg.Wait()
	la.min = never
	for i := range la.chunks {
		ch := &la.chunks[i]
		for _, e := range ch.out {
			cal.push(e)
		}
		la.min = min(la.min, ch.min)
	}
}

// claim draws chunks of the fill in progress until none is left
// unclaimed.
func (la *lookahead) claim() {
	for c := la.next.Add(1) - 1; c < int64(len(la.chunks)); c = la.next.Add(1) - 1 {
		la.draw(int(c))
	}
}

// draw fills chunk c: each of its nodes' arrivals before la.end, drawn
// in that node's own order, starting with its First if it has none yet.
func (la *lookahead) draw(c int) {
	ch := &la.chunks[c]
	ch.out, ch.min = ch.out[:0], never
	for n := c * lookaheadChunk; n < min((c+1)*lookaheadChunk, len(la.pending)); n++ {
		t, ok := la.pending[n], la.pending[n] != never
		if t == unstarted {
			t, ok = la.src.First(n)
		}
		for ok && t < la.end {
			ch.out = append(ch.out, calEntry{t: t, node: int32(n)})
			t, ok = la.src.Next(n, t)
		}
		if !ok {
			t = never
		}
		la.pending[n] = t
		ch.min = min(ch.min, t)
	}
}
