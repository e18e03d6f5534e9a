package traffic

import (
	"math"
	"testing"

	"cbar/internal/rng"
	"cbar/internal/topology"
)

// TestDegenerateTopologyRejected: destination selection cannot work on a
// 1-node system (uniform would spin forever redrawing the source), so
// every constructor must reject it at build time.
func TestDegenerateTopologyRejected(t *testing.T) {
	one := &topology.Dragonfly{Nodes: 1, Groups: 1}
	if _, err := NewUniform(one); err == nil {
		t.Error("uniform accepted 1-node topology")
	}
	if _, err := NewUniform(nil); err == nil {
		t.Error("uniform accepted nil topology")
	}
	if _, err := NewHotspot(one, 0.5, 1); err == nil {
		t.Error("hotspot accepted 1-node topology")
	}
	if _, err := NewShift(one, 1); err == nil {
		t.Error("shift accepted 1-node topology")
	}
	if _, err := NewComplement(one); err == nil {
		t.Error("complement accepted 1-node topology")
	}
	if _, err := NewTornado(one); err == nil {
		t.Error("tornado accepted 1-node topology")
	}
}

func TestHotspotValidation(t *testing.T) {
	tp := topo()
	for _, c := range []struct {
		frac float64
		hot  int
	}{{-0.1, 4}, {1.1, 4}, {math.NaN(), 4}, {0.5, 0}, {0.5, tp.Nodes + 1}} {
		if _, err := NewHotspot(tp, c.frac, c.hot); err == nil {
			t.Errorf("hotspot(%v,%d) accepted", c.frac, c.hot)
		}
	}
}

// TestHotspotShare: the hot set receives its configured traffic share
// plus the uniform spillover, and hot nodes are spread across groups.
func TestHotspotShare(t *testing.T) {
	tp := topo() // 144 nodes, 9 groups
	const frac, hot = 0.3, 8
	p, err := NewHotspot(tp, frac, hot)
	if err != nil {
		t.Fatal(err)
	}
	// The evenly-strided hot set must cover several groups.
	groups := map[int]bool{}
	hits := 0
	for n := 0; n < tp.Nodes; n++ {
		if isHot(p, n) {
			hits++
			groups[tp.GroupOfNode(n)] = true
		}
	}
	if hits != hot {
		t.Fatalf("IsHot marks %d nodes, want %d", hits, hot)
	}
	if len(groups) < 4 {
		t.Fatalf("hot nodes concentrated in %d groups", len(groups))
	}

	r := rng.New(8, 8)
	const draws = 60000
	hotHits := 0
	for i := 0; i < draws; i++ {
		src := i % tp.Nodes
		d := p.Dest(src, r)
		if d == src {
			t.Fatal("hotspot returned the source")
		}
		if d < 0 || d >= tp.Nodes {
			t.Fatalf("destination %d out of range", d)
		}
		if isHot(p, d) {
			hotHits++
		}
	}
	// frac direct + (1-frac) uniform spillover onto hot/Nodes of the
	// id space: 0.3 + 0.7*8/144 = 0.339.
	want := frac + (1-frac)*float64(hot)/float64(tp.Nodes)
	if got := float64(hotHits) / draws; math.Abs(got-want) > 0.02 {
		t.Fatalf("hot share %.3f, want ~%.3f", got, want)
	}
}

// TestHotspotSingleHotNodeSelf: a hot node sending its hotspot share
// cannot target itself; with a single hot node it must fall back to
// uniform rather than loop.
func TestHotspotSingleHotNodeSelf(t *testing.T) {
	tp := topo()
	p, err := NewHotspot(tp, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9, 9)
	src := 0 // node 0 is the strided hot set's first member
	if !isHot(p, src) {
		t.Fatal("node 0 not hot")
	}
	for i := 0; i < 2000; i++ {
		if d := p.Dest(src, r); d == src {
			t.Fatal("hot source targeted itself")
		}
	}
}

// checkBijection asserts a permutation pattern maps the node set onto
// itself exactly once, ignoring its RNG argument.
func checkBijection(t *testing.T, p Pattern, nodes int) {
	t.Helper()
	seen := make([]bool, nodes)
	r := rng.New(1, 1)
	for src := 0; src < nodes; src++ {
		d := p.Dest(src, r)
		if d < 0 || d >= nodes {
			t.Fatalf("node %d: dest %d out of range", src, d)
		}
		if seen[d] {
			t.Fatalf("node %d: dest %d repeated", src, d)
		}
		seen[d] = true
		if again := p.Dest(src, nil); again != d {
			t.Fatalf("node %d: nondeterministic permutation (%d then %d)", src, d, again)
		}
	}
}

func TestPermutationsAreBijections(t *testing.T) {
	for _, params := range []topology.Params{
		{P: 4, A: 4, H: 2},
		{P: 1, A: 1, H: 1}, // 2 nodes, the minimum
		{P: 3, A: 2, H: 1}, // odd per-group sizes
	} {
		tp := topology.MustNew(params)
		shift, err := NewShift(tp, 3%tp.Nodes+1)
		if err != nil {
			// 2-node topology with shift 4 % 2 == 0 is the degenerate
			// case; try shift 1.
			shift, err = NewShift(tp, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
		comp, err := NewComplement(tp)
		if err != nil {
			t.Fatal(err)
		}
		tor, err := NewTornado(tp)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Pattern{shift, comp, tor} {
			checkBijection(t, p, tp.Nodes)
		}
	}
}

func TestShiftValidation(t *testing.T) {
	tp := topo()
	for _, k := range []int{0, tp.Nodes, -tp.Nodes, 3 * tp.Nodes} {
		if _, err := NewShift(tp, k); err == nil {
			t.Errorf("shift %d accepted", k)
		}
	}
	// Negative offsets normalize.
	p, err := NewShift(tp, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Dest(0, nil); d != tp.Nodes-1 {
		t.Fatalf("shift-1 from 0 -> %d", d)
	}
}

// TestTornadoTargetsOppositeGroup: every node keeps its in-group
// position and lands floor(Groups/2) groups away.
func TestTornadoTargetsOppositeGroup(t *testing.T) {
	tp := topo()
	p, err := NewTornado(tp)
	if err != nil {
		t.Fatal(err)
	}
	per := tp.A * tp.P
	for src := 0; src < tp.Nodes; src++ {
		d := p.Dest(src, nil)
		wantG := (tp.GroupOfNode(src) + tp.Groups/2) % tp.Groups
		if tp.GroupOfNode(d) != wantG {
			t.Fatalf("node %d -> group %d, want %d", src, tp.GroupOfNode(d), wantG)
		}
		if d%per != src%per {
			t.Fatalf("node %d changed in-group position", src)
		}
	}
}

// TestComplementMirror: complement maps the ends of the id space onto
// each other.
func TestComplementMirror(t *testing.T) {
	tp := topo()
	p, err := NewComplement(tp)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Dest(0, nil); d != tp.Nodes-1 {
		t.Fatalf("complement(0) = %d", d)
	}
	if d := p.Dest(tp.Nodes-1, nil); d != 0 {
		t.Fatalf("complement(last) = %d", d)
	}
}
