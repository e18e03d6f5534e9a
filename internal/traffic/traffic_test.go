package traffic

import (
	"maps"
	"math"
	"slices"
	"testing"

	"cbar/internal/rng"
	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/topology"
)

func topo() *topology.Dragonfly { return topology.MustNew(topology.Params{P: 4, A: 4, H: 2}) }

// mustUniform builds the UN pattern, failing the test on error.
func mustUniform(t *testing.T, tp *topology.Dragonfly) Pattern {
	t.Helper()
	u, err := NewUniform(tp)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUniformNeverSelf(t *testing.T) {
	tp := topo()
	u := mustUniform(t, tp)
	r := rng.New(1, 1)
	counts := make([]int, tp.Nodes)
	for i := 0; i < 20000; i++ {
		src := i % tp.Nodes
		d := u.Dest(src, r)
		if d == src {
			t.Fatal("uniform returned self")
		}
		if d < 0 || d >= tp.Nodes {
			t.Fatalf("destination %d out of range", d)
		}
		counts[d]++
	}
	// Roughly uniform: every node should receive something.
	for n, c := range counts {
		if c == 0 {
			t.Fatalf("node %d never chosen", n)
		}
	}
}

func TestAdversarialTargetsRightGroup(t *testing.T) {
	tp := topo()
	for _, off := range []int{1, 2, tp.H, tp.Groups - 1} {
		a, err := NewAdversarial(tp, off)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(2, 2)
		for i := 0; i < 2000; i++ {
			src := i % tp.Nodes
			d := a.Dest(src, r)
			want := (tp.GroupOfNode(src) + off) % tp.Groups
			if tp.GroupOfNode(d) != want {
				t.Fatalf("ADV+%d: src group %d -> dst group %d, want %d",
					off, tp.GroupOfNode(src), tp.GroupOfNode(d), want)
			}
		}
	}
}

func TestAdversarialNegativeOffset(t *testing.T) {
	tp := topo()
	a, err := NewAdversarial(tp, -1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3, 3)
	src := 0 // group 0
	d := a.Dest(src, r)
	if tp.GroupOfNode(d) != tp.Groups-1 {
		t.Fatalf("ADV-1 from group 0 went to group %d", tp.GroupOfNode(d))
	}
}

func TestAdversarialRejectsDegenerate(t *testing.T) {
	tp := topo()
	for _, off := range []int{0, tp.Groups, 2 * tp.Groups} {
		if _, err := NewAdversarial(tp, off); err == nil {
			t.Fatalf("offset %d accepted", off)
		}
	}
}

func TestMixProportions(t *testing.T) {
	tp := topo()
	adv, _ := NewAdversarial(tp, 1)
	m, err := NewMix(mustUniform(t, tp), adv, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4, 4)
	src := 0
	adversarialHits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		d := m.Dest(src, r)
		if tp.GroupOfNode(d) == 1 {
			adversarialHits++
		}
	}
	// ~30% adversarial plus the uniform traffic that lands in group 1
	// by chance (~70% * 1/9). Expect ~0.30 + 0.078 = 0.378.
	got := float64(adversarialHits) / draws
	if math.Abs(got-0.378) > 0.02 {
		t.Fatalf("group-1 fraction %.3f, want ~0.378", got)
	}
}

func TestMixRejectsBadFraction(t *testing.T) {
	tp := topo()
	u := mustUniform(t, tp)
	for _, f := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewMix(u, u, f); err == nil {
			t.Fatalf("fraction %v accepted", f)
		}
	}
}

func TestScheduleSwitching(t *testing.T) {
	tp := topo()
	u := mustUniform(t, tp)
	a, _ := NewAdversarial(tp, 1)
	s, err := NewSchedule(Phase{0, u}, Phase{100, a}, Phase{200, u})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int64]Pattern{0: u, 99: u, 100: a, 199: a, 200: u, 5000: u}
	for _, cyc := range slices.Sorted(maps.Keys(cases)) {
		want := cases[cyc]
		if got := s.At(cyc); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", cyc, got, want)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	tp := topo()
	u := mustUniform(t, tp)
	if _, err := NewSchedule(); err == nil {
		t.Fatal("empty schedule accepted")
	}
	if _, err := NewSchedule(Phase{5, u}); err == nil {
		t.Fatal("schedule not covering cycle 0 accepted")
	}
	if _, err := NewSchedule(Phase{0, u}, Phase{0, u}); err == nil {
		t.Fatal("non-increasing phases accepted")
	}
	if _, err := NewSchedule(Phase{0, nil}); err == nil {
		t.Fatal("nil pattern accepted")
	}
}

func TestConstantSchedule(t *testing.T) {
	tp := topo()
	u := mustUniform(t, tp)
	s := Constant(u)
	if s.At(0) != u || s.At(1<<40) != u {
		t.Fatal("constant schedule wrong")
	}
}

func buildNet(t *testing.T) *router.Network {
	t.Helper()
	cfg := router.DefaultConfig(topology.Params{P: 4, A: 4, H: 2})
	n, err := router.Build(cfg, routing.MustNew(routing.Min, routing.DefaultOptions()), 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestInjectorRate(t *testing.T) {
	n := buildNet(t)
	load := 0.2 // phits/(node·cycle) -> 0.025 packets/(node·cycle)
	inj, err := NewInjector(n, Constant(mustUniform(t, n.Topo)), load, 7)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Load() != load {
		t.Fatalf("Load() = %v", inj.Load())
	}
	const cycles = 2000
	for i := 0; i < cycles; i++ {
		inj.Cycle()
		n.Step()
	}
	offered := float64(n.NumGenerated+n.NumBlocked) * float64(n.Cfg.PacketSize) /
		(float64(cycles) * float64(n.Topo.Nodes))
	if math.Abs(offered-load) > 0.02 {
		t.Fatalf("offered load %.4f, want %.2f", offered, load)
	}
	if !n.Drain(30000) {
		t.Fatal("did not drain")
	}
}

func TestInjectorValidation(t *testing.T) {
	n := buildNet(t)
	sched := Constant(mustUniform(t, n.Topo))
	if _, err := NewInjector(n, sched, -0.1, 1); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := NewInjector(n, sched, 1.5, 1); err == nil {
		t.Fatal("load > 1 accepted")
	}
	if _, err := NewInjector(n, sched, math.NaN(), 1); err == nil {
		t.Fatal("NaN load accepted") // a NaN arrival gap indexes a NIC with int(NaN)
	}
	if _, err := NewInjector(n, nil, 0.5, 1); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

func TestInjectorZeroLoad(t *testing.T) {
	n := buildNet(t)
	inj, err := NewInjector(n, Constant(mustUniform(t, n.Topo)), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		inj.Cycle()
		n.Step()
	}
	if n.NumGenerated != 0 {
		t.Fatalf("%d packets generated at zero load", n.NumGenerated)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() uint64 {
		n := buildNet(t)
		inj, _ := NewInjector(n, Constant(mustUniform(t, n.Topo)), 0.3, 99)
		for i := 0; i < 500; i++ {
			inj.Cycle()
			n.Step()
		}
		n.Drain(30000)
		return n.NumDelivered
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
