package sim

import (
	"math"
	"testing"

	"cbar/internal/rng"
	"cbar/internal/routing"
)

// TestOfferedLoadOracle holds every traffic grammar row to what its spec
// says, at arrival level. Each (spec, load) is built by the constructor
// the measurements use, and its injector is driven over a long window
// with the clock jumped from arrival to arrival: there is no Step, so
// every arrival stays in its source's NIC queue and NICBacklog counts
// it. A spec the engine cannot honour must be rejected at construction;
// an accepted one must pass four checks:
//   - arrivals per node-cycle lie within 4 standard errors of
//     load/PacketSize, the error taken from the spread of the per-node
//     counts (nodes are independent sources) within each weight class;
//   - a skew's hot sources offer its declared share of the arrivals,
//     and a hotspot's hot nodes receive their share of the destinations
//     drawn for them, each within 4 standard errors;
//   - no destination is its source (UN and every pattern built on it);
//   - under ADV+k, every destination lies in group g+k.
func TestOfferedLoadOracle(t *testing.T) {
	const window = 20000
	used := make([]bool, len(trafficGrammar))
	for _, tc := range []struct {
		spec      string
		load      float64
		mayRefuse bool // the engine may reject it at construction
	}{
		{spec: "un", load: 0.4},
		{spec: "adv+1", load: 0.3},
		{spec: "adv-2", load: 0.3},
		{spec: "mix:0.4,1", load: 0.3},
		{spec: "hotspot:0.3,8", load: 0.3},
		{spec: "hotspot:1,1", load: 0.1},
		{spec: "perm:shift+5", load: 0.3},
		{spec: "perm:complement", load: 0.3},
		{spec: "tornado", load: 0.3},
		{spec: "burst:20,60", load: 0.2},
		{spec: "burst:5,20,0.8", load: 0.2},
		{spec: "burst:2,0.5", load: 0.4, mayRefuse: true},
		{spec: "un+skew:0.1,0.5", load: 0.3},
		{spec: "adv+1+burst:50,150+skew:0.2,0.6", load: 0.1},
		{spec: "hotspot:0.2,8+burst:10,30+skew:0.1,0.5", load: 0.2},
	} {
		w, err := ParseWorkload(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		for i := range trafficGrammar {
			used[i] = used[i] || trafficGrammar[i].in(w)
		}
		c := tinyCfg(routing.Min)
		c.Router.NICQueuePackets = 1 << 30 // no arrival is blocked
		p, err := newPoint(c, w, tc.load, 1, 2, window)
		if err != nil {
			if !tc.mayRefuse {
				t.Errorf("%s at %v: %v", tc.spec, tc.load, err)
			}
			continue
		}
		net, inj := p.net, p.inj
		for now := int64(0); now < window; {
			now = inj.NextArrival(window - 1)
			if now >= window {
				break
			}
			net.ElideTo(now)
			inj.Cycle()
			now++
			net.ElideTo(now)
		}
		nodes := net.Topo.Nodes
		q := tc.load / float64(c.Router.PacketSize)
		weight := make([]float64, nodes)
		for i := range weight {
			weight[i] = 1
		}
		if f := w.Source.SkewFrac; f != 0 {
			if weight, err = skewWeights(f, w.Source.SkewShare, nodes); err != nil {
				t.Fatal(err)
			}
		}
		count := make([]float64, nodes)
		var total float64
		for i := range count {
			count[i] = float64(net.NICBacklog(i))
			total += count[i]
		}
		if total != float64(net.NumGenerated) || net.NumBlocked+net.NumShed != 0 {
			t.Fatalf("%s: %v arrivals queued, %d generated, %d blocked or shed", tc.spec, total, net.NumGenerated, net.NumBlocked+net.NumShed)
		}
		// The aggregate rate and a skew's hot share, with variances
		// estimated within each weight class: a skew's chosen sources
		// (node 0 is always one) and the others.
		hot, hotVar, coldVar := 0.0, 0.0, 0.0
		for _, cls := range []bool{true, false} {
			var n, sum, sq float64
			for i, v := range weight {
				if (v == weight[0]) == cls {
					n, sum, sq = n+1, sum+count[i], sq+count[i]*count[i]
				}
			}
			if n == 0 {
				continue
			}
			classVar := n * (sq/n - (sum/n)*(sum/n)) * n / max(n-1, 1) // Var of the class sum
			if cls {
				hot, hotVar = sum, classVar
			} else {
				coldVar = classVar
			}
		}
		rate := total / float64(nodes) / window
		rateSE := math.Sqrt(hotVar+coldVar) / float64(nodes) / window
		if math.Abs(rate-q) > 4*rateSE {
			t.Errorf("%s at %v: %.5f arrivals per node-cycle, want %.5f ± %.5f (4 SE)", tc.spec, tc.load, rate, q, 4*rateSE)
		}
		if share := w.Source.SkewShare; w.Source.SkewFrac != 0 {
			got, cold := hot/total, total-hot
			se := math.Sqrt(cold*cold*hotVar+hot*hot*coldVar) / (total * total)
			if math.Abs(got-share) > 4*se {
				t.Errorf("%s: hot sources offer %.4f of the arrivals, want %v ± %.4f (4 SE)", tc.spec, got, share, 4*se)
			}
		}
		// Destinations for the arrivals, drawn as the injector draws them.
		pat, err := w.Pattern(net.Topo)
		if err != nil {
			t.Fatal(err)
		}
		hotNode := make([]bool, nodes)
		for i := 0; i < w.HotNodes; i++ {
			hotNode[i*nodes/w.HotNodes] = true
		}
		perGroup := nodes / net.Topo.Groups
		r := rng.New(3, 3)
		var hits, want, hitVar float64
		for src := range count {
			for range int(count[src]) {
				d := pat.Dest(src, r)
				if d == src && w.Kind != Shift && w.Kind != Complement && w.Kind != Tornado {
					t.Fatalf("%s: node %d targeted itself", tc.spec, src)
				}
				if g := ((src/perGroup+w.Offset)%net.Topo.Groups + net.Topo.Groups) % net.Topo.Groups; w.Kind == Adversarial && d/perGroup != g {
					t.Fatalf("%s: node %d of group %d sent to group %d", tc.spec, src, src/perGroup, d/perGroup)
				}
				if w.Kind != Hotspot {
					continue
				}
				// P(hot destination): the hot share, plus the uniform
				// remainder's chance of a hot node other than the source.
				others := float64(w.HotNodes)
				if hotNode[src] {
					others--
				}
				pHot := (1-w.HotFrac)*others/float64(nodes-1) + w.HotFrac
				if hotNode[src] && w.HotNodes == 1 {
					pHot = 0 // a lone hot source falls back to uniform over the others
				}
				want, hitVar = want+pHot, hitVar+pHot*(1-pHot)
				if hotNode[d] {
					hits++
				}
			}
		}
		if w.Kind == Hotspot && math.Abs(hits-want) > 4*math.Sqrt(hitVar) {
			t.Errorf("%s: %v of %v destinations hot, want %.0f ± %.0f (4 SE)", tc.spec, hits, total, want, 4*math.Sqrt(hitVar))
		}
	}
	for i, c := range trafficGrammar {
		if !used[i] {
			t.Errorf("grammar row %s has no oracle case", c.name)
		}
	}
}
