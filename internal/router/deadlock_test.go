package router_test

import (
	"fmt"
	"strings"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/sim"
)

// The observed half of the deadlock argument: every grant a run makes is
// an edge of the channel dependency graph over (port class, VC) nodes,
// and the ascending-VC ladder holds exactly when that graph is acyclic.

// maxVCs bounds a class's VC count in the graph's node numbering.
const maxVCs = 8

// channel is a dependency-graph node: a VC of a port class.
type channel struct {
	kind router.PortKind
	vc   int
}

func (c channel) String() string { return fmt.Sprintf("%v VC%d", c.kind, c.vc) }

func node(c channel) int { return int(c.kind)*maxVCs + c.vc }

func channelOf(id int) channel { return channel{router.PortKind(id / maxVCs), id % maxVCs} }

// depRecorder forwards every call to the routing algorithm it wraps and
// adds an edge (input channel → output channel) for every grant between
// two fabric links: injection and ejection are no channel of the graph.
type depRecorder struct {
	router.Algorithm
	adj [3 * maxVCs]uint64 // adj[u] has bit v for an observed edge u → v
}

func (d *depRecorder) OnGrant(r *router.Router, p *router.Packet, port, vc, out, outVC int) {
	if in, o := r.Kind(port), r.Kind(out); in != router.Injection && o != router.Injection {
		d.adj[node(channel{in, vc})] |= 1 << node(channel{o, outVC})
	}
	d.Algorithm.OnGrant(r, p, port, vc, out, outVC)
}

// cyclicEdges returns every recorded edge that lies on a cycle, each with
// a witness cycle through it: the SCC pass is a transitive closure, and
// an edge u → v is on a cycle exactly when v reaches u (u and v share a
// strongly connected component).
func (d *depRecorder) cyclicEdges() (edges [][2]int, witness []string) {
	reach := d.adj
	for k := range reach {
		for i := range reach {
			if reach[i]&(1<<k) != 0 {
				reach[i] |= reach[k]
			}
		}
	}
	for u := range d.adj {
		for v := range d.adj {
			if d.adj[u]&(1<<v) != 0 && (u == v || reach[v]&(1<<u) != 0) {
				edges = append(edges, [2]int{u, v})
				witness = append(witness, d.path(u, v))
			}
		}
	}
	return edges, witness
}

// path spells the cycle u → v ⇝ u, along a shortest path back from v.
func (d *depRecorder) path(u, v int) string {
	prev := make([]int, len(d.adj))
	for i := range prev {
		prev[i] = -1
	}
	prev[v] = v
	for queue := []int{v}; len(queue) > 0; queue = queue[1:] {
		for y := range d.adj {
			if d.adj[queue[0]]&(1<<y) != 0 && prev[y] < 0 {
				prev[y] = queue[0]
				queue = append(queue, y)
			}
		}
	}
	hops := []string{channelOf(u).String(), channelOf(v).String()}
	var back []string // u and its predecessors, back to v's successor
	for x := u; x != v; x = prev[x] {
		back = append(back, channelOf(x).String())
	}
	for i := len(back) - 1; i >= 0; i-- {
		hops = append(hops, back[i])
	}
	return strings.Join(hops, " → ")
}

// ladderKey orders the channels as the ascending-VC ladder intends them
// to be taken: a local VC at the path stage LocalVCBase gives it (the
// global hops before it), a global VC after every local VC of its own
// stage and before the next stage's.
func ladderKey(c channel) int {
	if c.kind == router.Global {
		return c.vc*2*maxVCs + maxVCs // a global VC's index is its stage
	}
	stage := 0
	for stage < 2 && router.LocalVCBase(int8(stage+1)) <= c.vc {
		stage++
	}
	return stage*2*maxVCs + c.vc
}

// TestChannelDependencyAcyclic drives every mechanism on the tiny fabric
// under uniform and ADV+1 traffic past saturation, with faults off and
// on, and builds the channel dependency graph of the grants it makes.
// The graph is acyclic for MIN, VAL and PB with faults off. Every other
// cycle goes through a grant that descends the ladder, and the test pins
// the two ways one does:
//   - onto its class's top VC, where LadderVC caps the hop. With faults
//     off that is the destination-group hop of a two-global-hop path at
//     three local VCs; an intermediate-group local misroute takes the
//     same VC before its second global hop (local VC2 ⇄ global VC1).
//     With faults on, a fault escape or a detoured packet's later hops
//     reach the cap too.
//   - onto global VC 0 after a second source-group local hop: a fault
//     escape. A VAL or PB intermediate in the source group would take
//     the same hop with faults off (local VC1 ⇄ global VC0), which is
//     why randomInterNode draws none there.
//
// Neither the ladder nor the detour cap therefore guarantees progress
// (doc.go, "Fault model"); the cycles are logged as witnesses.
func TestChannelDependencyAcyclic(t *testing.T) {
	t.Parallel()
	const cycles = 3000
	plan := router.FaultConfig{
		Events:    []router.FaultEvent{{Kind: router.RouterDown, Router: 5, Cycle: 400}},
		RandomPct: 20, RandomAt: 200,
	}
	for _, algo := range routing.All() {
		for _, faults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/faults=%v", algo, faults), func(t *testing.T) {
				t.Parallel()
				rec := &depRecorder{}
				var top [3]int // each class's top VC
				for _, w := range []sim.Workload{sim.UN(), sim.ADV(1)} {
					rw := row{algo: algo, scale: sim.Tiny, w: w, load: 0.6}
					if faults {
						rw.faults = plan
					}
					net, inj := build(t, rw, arm{workers: 1})
					rec.Algorithm, net.Alg = net.Alg, rec
					for k := range top {
						top[k] = net.Cfg.VCsFor(router.PortKind(k)) - 1
					}
					for net.Now() < cycles {
						inj.Cycle()
						net.Step()
					}
					if net.NumDelivered == 0 {
						t.Fatalf("%v delivered nothing; the case proves nothing", w)
					}
				}
				for u := range rec.adj {
					for v := range rec.adj {
						from, to := channelOf(u), channelOf(v)
						if rec.adj[u]&(1<<v) == 0 || ladderKey(to) > ladderKey(from) ||
							to.vc == top[to.kind] || to == (channel{router.Global, 0}) {
							continue
						}
						t.Errorf("grant %v → %v descends the ladder below the top VC", from, to)
					}
				}
				edges, witness := rec.cyclicEdges()
				if !faults && len(edges) > 0 && (algo == routing.Min || algo == routing.Valiant || algo == routing.PB) {
					t.Errorf("%v's channel dependency graph has a cycle with faults off: %s", algo, witness[0])
				}
				for _, w := range witness {
					t.Logf("cycle: %s", w)
				}
			})
		}
	}
}

// raceBuild is set when the tests are built with the race detector.
var raceBuild bool

// TestValiantMakesProgress: VAL and PB route through an intermediate
// node, and one drawn in the source group would close the local VC1 ⇄
// global VC0 cycle, on which the tiny fabric wedges for good. Driven at
// tiny under uniform and ADV+1 traffic at loads 0.3 to 1.0 for 10 000
// cycles, each must deliver at least one packet in every 1 000-cycle
// span. The drive is sequential on one worker: a race build, which has
// nothing to find in it, skips it (race_test.go).
func TestValiantMakesProgress(t *testing.T) {
	if raceBuild {
		t.Skip("sequential single-worker drive: no data race to find")
	}
	t.Parallel()
	const cycles, span = 10000, 1000
	for _, algo := range []routing.Algo{routing.Valiant, routing.PB} {
		for _, w := range []sim.Workload{sim.UN(), sim.ADV(1)} {
			for tenths := 3; tenths <= 10; tenths++ {
				rw := row{algo: algo, scale: sim.Tiny, w: w, load: float64(tenths) / 10}
				t.Run(fmt.Sprintf("%v/%s/%.1f", algo, w.Name(), rw.load), func(t *testing.T) {
					t.Parallel()
					net, inj := build(t, rw, arm{workers: 1})
					for end := int64(span); end <= cycles; end += span {
						before := net.NumDelivered
						for net.Now() < end {
							inj.Cycle()
							net.Step()
						}
						if net.NumDelivered == before {
							t.Fatalf("no delivery in cycles [%d, %d), %d packets in flight", end-span, end, net.InFlight)
						}
					}
				})
			}
		}
	}
}
