package cbar

import (
	"fmt"
	"math"
	"testing"

	"cbar/internal/sim"
)

// TestPinnedSpellings pins, for every spec spelling the documentation,
// CI, the benchmark, the examples, the golden commands and the fuzz
// seed corpora use, the value the parsers give it (nil: rejected). A
// parser rewrite must keep every line; a spelling moves to nil only
// when accepting it was a defect, and the change that moves it says
// why.
func TestPinnedSpellings(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want *sim.Workload
	}{
		// README, the flag defaults and the doc comments.
		{"un", &sim.Workload{Kind: sim.Uniform}},
		{"adv+1", &sim.Workload{Kind: sim.Adversarial, Offset: 1}},
		{"adv+3", &sim.Workload{Kind: sim.Adversarial, Offset: 3}},
		{"adv-1", &sim.Workload{Kind: sim.Adversarial, Offset: -1}},
		{"adv3", &sim.Workload{Kind: sim.Adversarial, Offset: 3}},
		{"mix:0.4,1", &sim.Workload{Kind: sim.Mix, Offset: 1, UniformFrac: 0.4}},
		{"hotspot:0.2,8", &sim.Workload{Kind: sim.Hotspot, HotFrac: 0.2, HotNodes: 8}},
		{"perm:shift+16", &sim.Workload{Kind: sim.Shift, Offset: 16}},
		{"perm:complement", &sim.Workload{Kind: sim.Complement}},
		{"tornado", &sim.Workload{Kind: sim.Tornado}},
		{"burst:50,200", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 200}}},
		{"burst:50,200,0.8", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 200, PeakLoad: 0.8}}},
		{"adv+1+burst:50,200", &sim.Workload{Kind: sim.Adversarial, Offset: 1, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 200}}},
		{"un+skew:0.1,0.5", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{SkewFrac: 0.1, SkewShare: 0.5}}},
		{"adv+1+burst:50,200,0.8", &sim.Workload{Kind: sim.Adversarial, Offset: 1, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 200, PeakLoad: 0.8}}},
		// CI.
		{"burst:20,80", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 20, OffMean: 80}}},
		{"perm:shift+5", &sim.Workload{Kind: sim.Shift, Offset: 5}},
		{"un+burst:50,200,0.9+skew:0.1,0.5", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 200, PeakLoad: 0.9, SkewFrac: 0.1, SkewShare: 0.5}}},
		{"hotspot:0.3,8", &sim.Workload{Kind: sim.Hotspot, HotFrac: 0.3, HotNodes: 8}},
		{"un+burst:50,150", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 150}}},
		{"burst:50,200,-1", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 200, PeakLoad: -1}}},
		{"burst:inf,200", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: math.Inf(1), OffMean: 200}}},
		{"burst:2,0.5", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 2, OffMean: 0.5}}},
		{"un+burst:20,80", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 20, OffMean: 80}}},
		// benchmark/workloads.go.
		{"adv+1+burst:50,150", &sim.Workload{Kind: sim.Adversarial, Offset: 1, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 150}}},
		// FuzzParseTraffic's seeds.
		{"adv+1+burst:50,200,0.8+skew:0.1,0.5", &sim.Workload{Kind: sim.Adversarial, Offset: 1, Source: sim.SourceSpec{Bursty: true, OnMean: 50, OffMean: 200, PeakLoad: 0.8, SkewFrac: 0.1, SkewShare: 0.5}}},
		{"", nil},
		{"off", nil},
		{"bogus", nil},
		{"mix:", nil},
		{"perm:shift+", nil},
		{"+burst:1,2", nil},
		{"mix:nan,1", &sim.Workload{Kind: sim.Mix, Offset: 1, UniformFrac: math.NaN()}},
		{"hotspot:nan,8", &sim.Workload{Kind: sim.Hotspot, HotFrac: math.NaN(), HotNodes: 8}},
		{"un+skew:nan,0.5", nil},
		// The unit tests and the verify notes.
		{"UNIFORM", &sim.Workload{Kind: sim.Uniform}},
		{"adv-2", &sim.Workload{Kind: sim.Adversarial, Offset: -2}},
		{"perm:shift-3", &sim.Workload{Kind: sim.Shift, Offset: -3}},
		{"perm:comp", &sim.Workload{Kind: sim.Complement}},
		{"hotspot:0.2,8+burst:30,90+skew:0.1,0.5", &sim.Workload{Kind: sim.Hotspot, HotFrac: 0.2, HotNodes: 8, Source: sim.SourceSpec{Bursty: true, OnMean: 30, OffMean: 90, SkewFrac: 0.1, SkewShare: 0.5}}},
		{"hotspot:0.3,4", &sim.Workload{Kind: sim.Hotspot, HotFrac: 0.3, HotNodes: 4}},
		{"perm:shift+7", &sim.Workload{Kind: sim.Shift, Offset: 7}},
		{"burst:20,60", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 20, OffMean: 60}}},
		{"un+burst:40,120", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 40, OffMean: 120}}},
		{"hotspot:0.2,16", &sim.Workload{Kind: sim.Hotspot, HotFrac: 0.2, HotNodes: 16}},
		{"advX", nil},
		{"mix:1", nil},
		{"mix:a,b", nil},
		{"hotspot", nil},
		{"hotspot:0.2", nil},
		{"hotspot:x,8", nil},
		{"perm:shiftX", nil},
		{"perm:rotate", nil},
		{"burst:50", nil},
		{"burst:a,b", nil},
		{"un+skew:0.1", nil},
		{"+burst:50,200", nil},
		// Rejected at parse: a zero skew fraction would run homogeneous
		// traffic (a NaN one, in the seeds above, would fail only at run
		// time), and a repeated modifier would run only its last copy.
		{"un+skew:0,0.5", nil},
		{"burst:50,200+burst:5,5", nil},
		{"un+skew:0.1,0.5+skew:0.3,0.9", nil},
		// Case, signs and spaces; the printed names.
		{"ADV+1", &sim.Workload{Kind: sim.Adversarial, Offset: 1}},
		{" adv++2 ", &sim.Workload{Kind: sim.Adversarial, Offset: 2}},
		{"perm:shift+-3", &sim.Workload{Kind: sim.Shift, Offset: -3}},
		{"mix: 0.4 , 1", &sim.Workload{Kind: sim.Mix, Offset: 1, UniformFrac: 0.4}},
		{"burst:+5,200", &sim.Workload{Kind: sim.Uniform, Source: sim.SourceSpec{Bursty: true, OnMean: 5, OffMean: 200}}},
		{"un +burst:1,2", nil},
		{"hotspot(20%->8)", nil},
		{"mix(40%UN,ADV+1)", nil},
		{"shift+5", nil},
		{"complement", nil},
	} {
		tr, err := ParseTraffic(tc.spec)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("ParseTraffic(%q) = %+v, want an error", tc.spec, tr.inner)
		case tc.want != nil && err != nil:
			t.Errorf("ParseTraffic(%q): %v", tc.spec, err)
		case tc.want != nil && !samePlan(tr.inner, *tc.want):
			t.Errorf("ParseTraffic(%q) = %+v, want %+v", tc.spec, tr.inner, *tc.want)
		}
	}
	ev := func(k FaultKind, r int32, p int16, c int64) FaultEvent {
		return FaultEvent{Kind: k, Router: r, Port: p, Cycle: c}
	}
	for _, tc := range []struct {
		spec string
		want *Faults
	}{
		// README, CI, the benchmark, the examples and the golden commands.
		{"off", &Faults{}},
		{"", &Faults{}},
		{"linkdown:12,5@1000", &Faults{Events: []FaultEvent{ev(LinkDown, 12, 5, 1000)}}},
		{"linkup:12,5@3000", &Faults{Events: []FaultEvent{ev(LinkUp, 12, 5, 3000)}}},
		{"routerdown:7@500", &Faults{Events: []FaultEvent{ev(RouterDown, 7, 0, 500)}}},
		{"routerup:7@2500", &Faults{Events: []FaultEvent{ev(RouterUp, 7, 0, 2500)}}},
		{"random:5%@1000", &Faults{RandomPct: 5, RandomAt: 1000}},
		{"random:5%@1000,42", &Faults{RandomPct: 5, RandomAt: 1000, RandomSeed: 42}},
		{"retry:3", &Faults{RetryLimit: 3}},
		{"retry:3,200", &Faults{RetryLimit: 3, RetryBase: 200}},
		{"random:5%@1000+retry:3", &Faults{RandomPct: 5, RandomAt: 1000, RetryLimit: 3}},
		{"linkdown:5,7@200+linkup:5,7@500+routerdown:12@300+routerup:12@600+retry:2", &Faults{Events: []FaultEvent{ev(LinkDown, 5, 7, 200), ev(LinkUp, 5, 7, 500), ev(RouterDown, 12, 0, 300), ev(RouterUp, 12, 0, 600)}, RetryLimit: 2}},
		{"random:5%@500,12345+routerdown:77@1600+routerup:77@2100+retry:3", &Faults{Events: []FaultEvent{ev(RouterDown, 77, 0, 1600), ev(RouterUp, 77, 0, 2100)}, RandomPct: 5, RandomAt: 500, RandomSeed: 12345, RetryLimit: 3}},
		{"random:5%@600", &Faults{RandomPct: 5, RandomAt: 600}},
		// FuzzParseFaults' seeds.
		{"linkdown:3,7@500", &Faults{Events: []FaultEvent{ev(LinkDown, 3, 7, 500)}}},
		{"linkup:3,7@2500", &Faults{Events: []FaultEvent{ev(LinkUp, 3, 7, 2500)}}},
		{"routerdown:7@500+routerup:7@2500", &Faults{Events: []FaultEvent{ev(RouterDown, 7, 0, 500), ev(RouterUp, 7, 0, 2500)}}},
		{"random:0.5%@1,18446744073709551615", &Faults{RandomPct: 0.5, RandomAt: 1, RandomSeed: 18446744073709551615}},
		{"linkdown:3,7@500+linkup:3,7@2500+retry:3,200", &Faults{Events: []FaultEvent{ev(LinkDown, 3, 7, 500), ev(LinkUp, 3, 7, 2500)}, RetryLimit: 3, RetryBase: 200}},
		{"retry:1", &Faults{RetryLimit: 1}},
		{"linkdown:", nil},
		{"random:nan%@5", nil},
		{"random:101%@5", nil},
		{"retry:0", nil},
		{"retry:3+retry:3", nil},
		{"linkdown:4294967299,65541@10", nil},
		{"linkdown:2147483647,32767@10", &Faults{Events: []FaultEvent{ev(LinkDown, 2147483647, 32767, 10)}}},
		// The unit tests; case and spaces.
		{"LinkUp: 12 , 5 @ 3000", &Faults{Events: []FaultEvent{ev(LinkUp, 12, 5, 3000)}}},
		{"random:0.5@1000,42", &Faults{RandomPct: 0.5, RandomAt: 1000, RandomSeed: 42}},
		{"random:5%@1000+retry:3,200", &Faults{RandomPct: 5, RandomAt: 1000, RetryLimit: 3, RetryBase: 200}},
		{"linkdown", nil},
		{"meltdown:3@5", nil},
		{"linkdown:3@5", nil},
		{"routerdown:3,4@5", nil},
		{"linkdown:3,7", nil},
		{"linkdown:3,7@x", nil},
		{"random:5%", nil},
		{"random:0%@5", nil},
		{"random:5%@1,2,3", nil},
		{"retry:3,0", nil},
		{"retry:3,200,1", nil},
		{"random:5%@1+random:5%@2", nil},
		{"linkdown:3,65541@10", nil},
		{"routerdown:4294967299@10", nil},
		{"OFF", &Faults{}},
		{"retry:2+routerdown:1@5 + linkdown:1,4@9", &Faults{Events: []FaultEvent{ev(RouterDown, 1, 0, 5), ev(LinkDown, 1, 4, 9)}, RetryLimit: 2}},
	} {
		f, err := ParseFaults(tc.spec)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("ParseFaults(%q) = %+v, want an error", tc.spec, f)
		case tc.want != nil && err != nil:
			t.Errorf("ParseFaults(%q): %v", tc.spec, err)
		case tc.want != nil && !samePlan(f, *tc.want):
			t.Errorf("ParseFaults(%q) = %+v, want %+v", tc.spec, f, *tc.want)
		}
	}
}

// samePlan compares two parsed specs field by field through their Go
// syntax, so that a NaN argument equals itself.
func samePlan(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }
