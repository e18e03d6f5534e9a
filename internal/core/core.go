// Package core implements the paper's primary contribution: contention
// counters as a misrouting trigger (Fuentes et al., IPDPS 2015, §III).
//
// A contention counter estimates the *demand* for an output port — how
// many packets currently at the head of input virtual-channel queues
// would proceed minimally through it — as opposed to the *occupancy* of
// the buffers behind it. The package provides:
//
//   - Counters: the per-output-port counter bank of the Base and Hybrid
//     mechanisms (§III-B, §III-C). A counter is incremented when a packet
//     header reaches the head of an input VC (its minimal output is known
//     then) and decremented when the packet's tail leaves that input
//     queue, even if the packet was actually forwarded through another
//     port. Every VC of every input port contributes concurrently.
//
//   - ECtN: the Explicit Contention Notification state of §III-D. Each
//     router keeps a partial array with one counter per global link of
//     its group, fed by packets entering the group (injection-queue heads
//     and global-input arrivals) and indexed by the global link the
//     packet would minimally leave the group through. Partial arrays are
//     periodically combined (CombineGroup: summed group-wide) into the
//     combined array used to trigger misrouting at injection. The
//     exchange is modeled as instantaneous, so the combined array is one
//     per group, held by its user (the routing layer), not a copy per
//     router.
//
// The package is deliberately free of router mechanics: the router layer
// calls Inc/Dec at the right micro-architectural instants and the routing
// layer reads the counters to take decisions, which mirrors the paper's
// claim that the counters sit beside, not inside, the critical path.
package core

import (
	"fmt"
	"slices"
)

// Counters is a bank of per-output-port contention counters (§III-B).
// It is owned by a single router and is not safe for concurrent use, as
// each simulated router is stepped by one goroutine at a time.
type Counters struct {
	c []int32
}

// CountersOver returns a bank of len(c) counters stored in c, which it
// zeroes: a fabric that builds every router's bank cuts their counters
// from one array.
func CountersOver(c []int32) Counters {
	clear(c)
	return Counters{c: c}
}

// Inc registers one more head-of-queue packet whose minimal output is
// port.
func (k *Counters) Inc(port int) { k.c[port]++ }

// Dec unregisters a packet whose tail left its input queue. It panics if
// the counter would go negative: that is always a bookkeeping bug in the
// caller (a Dec without a matching Inc), never a legal simulator state.
func (k *Counters) Dec(port int) {
	k.c[port]--
	if k.c[port] < 0 {
		panic(fmt.Sprintf("core: contention counter for port %d went negative", port))
	}
}

// Get returns the current contention estimate for port.
func (k *Counters) Get(port int) int32 { return k.c[port] }

// Exceeds reports whether the counter for port strictly exceeds th, the
// misrouting-trigger condition of §III-B.
func (k *Counters) Exceeds(port int, th int32) bool { return k.c[port] > th }

// Sum returns the total demand registered across all ports (used by
// tests and saturation diagnostics, cf. §VI-A).
func (k *Counters) Sum() int64 {
	var s int64
	for _, v := range k.c {
		s += int64(v)
	}
	return s
}

// DefaultSatCap is the saturation value of the 4-bit counter fields the
// paper sizes the ECtN broadcast with (§VI-B): transmitted partial values
// saturate at 15, enough to exceed the combined threshold of 10.
const DefaultSatCap = 15

// GroupDirty is a dirty flag per group: the periodic ECtN combiner visits
// only the groups marked since its last drain, and while no group is
// marked the next combine is a no-op the clock may jump over.
//
// Distinct groups are distinct bytes: goroutines owning disjoint groups
// may Mark concurrently without locks. Marked, Any and Drain are
// single-threaded (barrier-side) operations.
type GroupDirty struct {
	in []bool
}

// NewGroupDirty returns an all-clean set over `groups` groups.
func NewGroupDirty(groups int) *GroupDirty {
	return &GroupDirty{in: make([]bool, groups)}
}

// Mark flags group g. A flagged group is only read, so shard workers do
// not bounce the flags' cache line on every partial-counter update.
func (d *GroupDirty) Mark(g int32) {
	if !d.in[g] {
		d.in[g] = true
	}
}

// Marked reports whether group g is currently flagged.
func (d *GroupDirty) Marked(g int32) bool { return d.in[g] }

// Any reports whether any group is flagged.
func (d *GroupDirty) Any() bool { return slices.Contains(d.in, true) }

// Drain visits every flagged group in ascending order, clearing each
// flag before its visit. A visit may therefore Mark re-entrantly: a mark
// on the group being visited or on an earlier one is kept for the next
// drain, a mark on a later group is visited by this one.
func (d *GroupDirty) Drain(visit func(g int32)) {
	for g, m := range d.in {
		if m {
			d.in[g] = false
			visit(int32(g))
		}
	}
}

// ECtN holds one router's Explicit Contention Notification state (§III-D):
// the partial array it updates locally. Indices are group-wide
// global-link indices in [0, links).
type ECtN struct {
	partial []int32

	// Every partial mutation marks this router's group in the combiner's
	// dirty-set, so untouched groups can skip their periodic combine.
	dirty *GroupDirty
	group int32
}

// ECtNOver returns the ECtN state of a router of `group` over the
// caller's partial array, one counter per global link of the group (a*h
// in a canonical Dragonfly), which it zeroes; every IncPartial/DecPartial
// marks `group` in dirty. A fabric that attaches every router's state
// cuts their partial arrays from one array.
func ECtNOver(partial []int32, dirty *GroupDirty, group int) ECtN {
	clear(partial)
	return ECtN{partial: partial, dirty: dirty, group: int32(group)}
}

// Links returns the number of global links tracked.
func (e *ECtN) Links() int { return len(e.partial) }

// IncPartial registers a packet that entered this router wanting to leave
// the group through global link l.
func (e *ECtN) IncPartial(l int) {
	e.partial[l]++
	e.dirty.Mark(e.group)
}

// DecPartial unregisters such a packet once it left the input queue. It
// panics on underflow, which is always a caller bookkeeping bug.
func (e *ECtN) DecPartial(l int) {
	e.partial[l]--
	if e.partial[l] < 0 {
		panic(fmt.Sprintf("core: ECtN partial counter for link %d went negative", l))
	}
	e.dirty.Mark(e.group)
}

// Partial returns this router's own demand estimate for global link l.
func (e *ECtN) Partial(l int) int32 { return e.partial[l] }

// contribution returns the partial value as transmitted on the wire,
// saturated at the 4-bit field width (DefaultSatCap).
func (e *ECtN) contribution(l int) int32 {
	return min(e.partial[l], DefaultSatCap)
}

// CombineGroup models the periodic exchange of partial arrays within one
// group (§III-D): the group's combined array becomes the sum of all
// members' (saturated) partial arrays at this instant — the group-wide
// demand estimate for each global link until the next exchange. The
// paper's simulations, like ours, model the exchange as instantaneous
// and free; its cost is analyzed analytically in §VI-B.
//
// All members must track len(combined) links. It allocates nothing.
func CombineGroup(combined []int32, members []*ECtN) {
	clear(combined)
	for _, m := range members {
		if m.Links() != len(combined) {
			panic("core: CombineGroup with mismatched link counts")
		}
		for l := range combined {
			combined[l] += m.contribution(l)
		}
	}
}

// VerifyGroupFresh audits a combined array a dirty-group combiner
// considers current: no partial changed since the last combine, so the
// stored sums must equal a fresh recombination of the members' partials.
// A mismatch means a partial mutation missed its dirty mark.
func VerifyGroupFresh(combined []int32, members []*ECtN) error {
	for l, have := range combined {
		var sum int32
		for _, m := range members {
			sum += m.contribution(l)
		}
		if sum != have {
			return fmt.Errorf("core: combined[%d] = %d stale: fresh partial sum is %d", l, have, sum)
		}
	}
	return nil
}
