package sim

import (
	"fmt"
	"testing"
)

// TestTrafficGrammarRoundTrip drives every row of the traffic grammar at
// boundary arguments — negative offsets, non-integer fractions, a
// three-argument burst, modifiers in both orders, either argument
// delimiter — and holds each spec to its canonical name, to
// ParseWorkload(Name(w)) == w and to Name being a fixed point.
func TestTrafficGrammarRoundTrip(t *testing.T) {
	used := make([]bool, len(trafficGrammar))
	for _, tc := range []struct{ spec, name string }{
		{"un", "UN"},
		{"Uniform", "UN"},
		{"adv-3", "ADV-3"},
		{"adv7", "ADV+7"},
		{"adv+0", "ADV+0"},
		{"mix:0.25,-2", "mix(0.25,-2)"},
		{"mix( 0.5 , 1 )", "mix(0.5,1)"},
		{"hotspot:0.125,3", "hotspot(0.125,3)"},
		{"hotspot(0.3,8)", "hotspot(0.3,8)"},
		{"perm:shift-5", "perm:shift-5"},
		{"perm:shift+16", "perm:shift+16"},
		{"perm:comp", "perm:complement"},
		{"tornado", "tornado"},
		{"burst:50,200", "UN+burst(50,200)"},
		{"burst(2.5,7.25,0.8)", "UN+burst(2.5,7.25,0.8)"},
		{"burst:1,2,-1", "UN+burst(1,2,-1)"},
		{"burst:1,2,0", "UN+burst(1,2)"},
		{"burst:1e-7,1e21", "UN+burst(1e-07,1e+21)"},
		{"skew:0.1,0.5", "UN+skew(0.1,0.5)"},
		{"adv-2+burst:5,20,0.75+skew:0.05,1", "ADV-2+burst(5,20,0.75)+skew(0.05,1)"},
		{"adv-2+skew(0.05,1)+burst(5,20,0.75)", "ADV-2+burst(5,20,0.75)+skew(0.05,1)"},
		{"hotspot:0.125,3+burst:20,60+skew:0.1,0.5", "hotspot(0.125,3)+burst(20,60)+skew(0.1,0.5)"},
		{"mix:nan,1", "mix(NaN,1)"},
		{"burst:inf,200", "UN+burst(+Inf,200)"},
	} {
		w, err := ParseWorkload(tc.spec)
		if err != nil {
			t.Errorf("ParseWorkload(%q): %v", tc.spec, err)
			continue
		}
		if got := w.Name(); got != tc.name {
			t.Errorf("ParseWorkload(%q).Name() = %q, want %q", tc.spec, got, tc.name)
		}
		back, err := ParseWorkload(w.Name())
		if err != nil {
			t.Errorf("Name %q of %q does not parse back: %v", w.Name(), tc.spec, err)
			continue
		}
		if fmt.Sprintf("%#v", back) != fmt.Sprintf("%#v", w) { // %#v so that NaN equals itself
			t.Errorf("round trip of %q via %q: %+v, want %+v", tc.spec, w.Name(), back, w)
		}
		if back.Name() != w.Name() {
			t.Errorf("Name of %q not a fixed point: %q then %q", tc.spec, w.Name(), back.Name())
		}
		for i := range trafficGrammar {
			used[i] = used[i] || trafficGrammar[i].in(w)
		}
	}
	for i, c := range trafficGrammar {
		if !used[i] {
			t.Errorf("grammar row %s is not exercised", c.name)
		}
	}
}
