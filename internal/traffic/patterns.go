package traffic

// This file holds the workload-engine pattern families beyond the
// paper's UN/ADV set: hotspot concentration, fixed node permutations
// (shift, complement) and the group-tornado pattern. These model the
// regimes the related congestion-management literature evaluates
// adaptive routing under — hotspot traffic stresses notification
// mechanisms with a stationary focal point, permutations give every node
// exactly one destination (no statistical smoothing), and tornado aims
// all groups at the maximal group offset.

import (
	"fmt"
	"sort"

	"cbar/internal/rng"
	"cbar/internal/topology"
)

// validatePatternTopology rejects topologies on which destination
// selection degenerates (a single node can only send to itself).
func validatePatternTopology(t *topology.Dragonfly, pattern string) error {
	if t == nil {
		return fmt.Errorf("traffic: %s pattern needs a topology", pattern)
	}
	if t.Nodes < 2 {
		return fmt.Errorf("traffic: %s pattern needs >= 2 nodes, topology has %d", pattern, t.Nodes)
	}
	return nil
}

// hotspot sends a fraction of the traffic to a small set of hot nodes
// and the rest uniformly: the classic hotspot workload of the congestion
// management literature (a few over-subscribed endpoints — storage
// targets, parameter servers — under otherwise benign background load).
type hotspot struct {
	t    *topology.Dragonfly
	frac float64
	hot  []int32
}

// NewHotspot returns a pattern that aims `frac` of the traffic at `hot`
// hot nodes (spread evenly over the node id space, so they land in
// distinct groups when hot <= Groups) and the remaining 1-frac
// uniformly. Sources never pick themselves.
func NewHotspot(t *topology.Dragonfly, frac float64, hot int) (Pattern, error) {
	if err := validatePatternTopology(t, "hotspot"); err != nil {
		return nil, err
	}
	if !(frac >= 0 && frac <= 1) { // negated, so NaN is rejected too
		return nil, fmt.Errorf("traffic: hotspot fraction %v outside [0,1]", frac)
	}
	if hot < 1 || hot > t.Nodes {
		return nil, fmt.Errorf("traffic: hotspot node count %d outside [1,%d]", hot, t.Nodes)
	}
	h := hotspot{t: t, frac: frac, hot: make([]int32, hot)}
	for i := 0; i < hot; i++ {
		h.hot[i] = int32(i * t.Nodes / hot)
	}
	return h, nil
}

func (h hotspot) Dest(src int, r *rng.PCG) int {
	if r.Bernoulli(h.frac) {
		d := int(h.hot[r.Intn(len(h.hot))])
		if d != src {
			return d
		}
		// The source is itself hot: redraw among the other hot nodes,
		// or fall back to uniform when it is the only one.
		if len(h.hot) > 1 {
			for d == src {
				d = int(h.hot[r.Intn(len(h.hot))])
			}
			return d
		}
	}
	for {
		d := r.Intn(h.t.Nodes)
		if d != src {
			return d
		}
	}
}

// permutation is a fixed bijection over node ids: every node has exactly
// one destination, so there is no statistical smoothing across flows.
type permutation struct {
	dests []int32
}

// newPermutation materializes dest = f(src) for every node and verifies
// it is a true bijection (every destination in range, no two sources
// sharing one). Fixed points (f(src) == src) are allowed — the packet is
// delivered through the source router's ejection port — but the named
// constructors below choose parameterizations that avoid them where
// possible.
func newPermutation(t *topology.Dragonfly, name string, f func(src int) int) (Pattern, error) {
	if err := validatePatternTopology(t, name); err != nil {
		return nil, err
	}
	p := permutation{dests: make([]int32, t.Nodes)}
	seen := make([]bool, t.Nodes)
	for src := 0; src < t.Nodes; src++ {
		d := f(src)
		if d < 0 || d >= t.Nodes {
			return nil, fmt.Errorf("traffic: %s maps node %d to %d, outside [0,%d)", name, src, d, t.Nodes)
		}
		if seen[d] {
			return nil, fmt.Errorf("traffic: %s is not a bijection (destination %d repeated)", name, d)
		}
		seen[d] = true
		p.dests[src] = int32(d)
	}
	return p, nil
}

func (p permutation) Dest(src int, _ *rng.PCG) int { return int(p.dests[src]) }

// NewShift returns the node-shift permutation dest = (src + k) mod Nodes.
// k must not be a multiple of the node count (which would degenerate to
// self-traffic).
func NewShift(t *topology.Dragonfly, k int) (Pattern, error) {
	if err := validatePatternTopology(t, "shift"); err != nil {
		return nil, err
	}
	kk := k % t.Nodes
	if kk < 0 {
		kk += t.Nodes
	}
	if kk == 0 {
		return nil, fmt.Errorf("traffic: shift offset %d is a multiple of the %d nodes", k, t.Nodes)
	}
	return newPermutation(t, "shift", func(src int) int {
		return (src + kk) % t.Nodes
	})
}

// NewComplement returns the complement permutation dest = Nodes-1-src,
// the arbitrary-size analogue of bit-complement (on power-of-two node
// counts it is exactly src XOR (Nodes-1)). Every node pairs with its
// mirror at the far end of the id space; with an odd node count the
// middle node is a fixed point and its packets deliver locally.
func NewComplement(t *topology.Dragonfly) (Pattern, error) {
	if err := validatePatternTopology(t, "complement"); err != nil {
		return nil, err
	}
	return newPermutation(t, "complement", func(src int) int {
		return t.Nodes - 1 - src
	})
}

// NewTornado returns the group-tornado permutation: every node sends to
// the node at the same in-group position of the group floor(Groups/2)
// positions away, the maximal group offset. Like ADV+i it pressures one
// outgoing global link per group, but as a deterministic permutation
// rather than a random in-group spray.
func NewTornado(t *topology.Dragonfly) (Pattern, error) {
	if err := validatePatternTopology(t, "tornado"); err != nil {
		return nil, err
	}
	if t.Groups < 2 {
		return nil, fmt.Errorf("traffic: tornado needs >= 2 groups, topology has %d", t.Groups)
	}
	perGroup := t.A * t.P
	off := t.Groups / 2
	return newPermutation(t, "tornado", func(src int) int {
		g := src / perGroup
		return ((g+off)%t.Groups)*perGroup + src%perGroup
	})
}

// isHot reports whether node is one of a hotspot pattern's hot nodes
// (false for every node of non-hotspot patterns). Test helper: the
// distribution tests use it to split hot/background traffic shares.
func isHot(p Pattern, node int) bool {
	h, ok := p.(hotspot)
	if !ok {
		return false
	}
	i := sort.Search(len(h.hot), func(i int) bool { return int(h.hot[i]) >= node })
	return i < len(h.hot) && int(h.hot[i]) == node
}
