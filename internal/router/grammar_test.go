package router

import (
	"reflect"
	"testing"
)

// TestFaultGrammarRoundTrip drives every row of the fault-plan grammar
// at boundary arguments — the widest ids, negative and zero cycles, a
// non-integer percentage with and without its '%', clauses out of the
// canonical order — and holds each spec to its canonical String, to
// ParseFaultConfig(fc.String()) == fc and to String being a fixed
// point.
func TestFaultGrammarRoundTrip(t *testing.T) {
	used := make([]bool, len(faultGrammar))
	for _, tc := range []struct{ spec, canon string }{
		{"off", "off"},
		{"linkdown:2147483647,32767@9223372036854775807", "linkdown:2147483647,32767@9223372036854775807"},
		{"linkup: 3 , -7 @ -5", "linkup:3,-7@-5"},
		{"routerdown:0@0+routerup:0@2500", "routerdown:0@0+routerup:0@2500"},
		{"random:12.5@7,3", "random:12.5%@7,3"},
		{"random:0.001%@0,0", "random:0.001%@0"},
		{"random:100%@1,18446744073709551615", "random:100%@1,18446744073709551615"},
		{"retry:16,1", "retry:16,1"},
		{"retry:3+random:2.5%@9+linkdown:1,4@9", "linkdown:1,4@9+random:2.5%@9+retry:3"},
	} {
		fc, err := ParseFaultConfig(tc.spec)
		if err != nil {
			t.Errorf("ParseFaultConfig(%q): %v", tc.spec, err)
			continue
		}
		if got := fc.String(); got != tc.canon {
			t.Errorf("ParseFaultConfig(%q).String() = %q, want %q", tc.spec, got, tc.canon)
		}
		back, err := ParseFaultConfig(fc.String())
		if err != nil || !reflect.DeepEqual(back, fc) || back.String() != fc.String() {
			t.Errorf("round trip of %q via %q: %+v, %v; want %+v", tc.spec, fc.String(), back, err, fc)
		}
		for _, e := range fc.Events {
			used[e.Kind] = true
		}
		for i := int(RouterUp) + 1; i < len(faultGrammar); i++ {
			used[i] = used[i] || faultGrammar[i].on(fc)
		}
	}
	for i, c := range faultGrammar {
		if !used[i] {
			t.Errorf("grammar row %s is not exercised", c.name)
		}
	}
}
