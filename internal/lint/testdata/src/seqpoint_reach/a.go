// Package seqpoint_reach exercises the sequentialpoint analyzer's
// reachability check: nothing in the sequential-point set (barrier-only
// functions and their sanctioned callers) may be reachable through the
// call graph from a parallel root — here Net.worker (registered by key)
// and any method named Route (registered by name).
package seqpoint_reach

type Net struct {
	events  []int
	applied int
}

// replay is registered barrier-only with sanctioned caller Net.Step.
func (n *Net) replay() {
	n.applied += len(n.events)
	n.events = n.events[:0]
}

// Step is a sanctioned caller, so this call passes the direct check —
// but Step is reachable from worker below, which taints the whole
// chain; the reachability check reports here too.
func (n *Net) Step() {
	n.replay() // want `reachable from a parallel root`
}

// worker is a registered parallel root.
func (n *Net) worker() {
	n.Step() // want `reachable from a parallel root`
	n.hop()
	n.relay()
}

// relay and far put two clean edges between the root and the barrier:
// worker -> relay -> far -> Step. Only the last edge crosses.
func (n *Net) relay() {
	n.far()
}

func (n *Net) far() {
	n.Step() // want `reachable from a parallel root through .*Net\.far`
}

// hop is an innocent-looking helper on the path root -> hop -> replay.
func (n *Net) hop() {
	n.replay() // want `sequential point`
}

type alg struct{ n *Net }

// Route is a parallel root by method name (the Algorithm hook surface).
func (a alg) Route(flit int) int {
	a.n.hop() // hop is already tainted via worker; edge itself is clean
	return flit
}

// quiet is NOT reachable from any root and calls nothing barrier-only.
func (n *Net) quiet() int {
	return n.applied
}
