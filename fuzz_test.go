package cbar

import (
	"reflect"
	"testing"
)

// The spec parsers are the package's untrusted-input surface: every CLI
// flag value flows through one of them. The fuzz targets pin two
// properties: no input panics, and an accepted spec is stable — parsing
// it twice yields the same value, and the canonical print parses back to
// it: ParseTraffic(t.Name()) reproduces t and ParseFaults(f.String())
// reproduces f, and printing again gives the same text. Seed corpora are
// the documented grammars from the workload catalog and the
// congestion/fault layers, and the canonical forms the printers write.

func FuzzParseTraffic(f *testing.F) {
	for _, s := range []string{
		"un", "adv+1", "adv-1", "adv3", "mix:0.4,1", "hotspot:0.2,8",
		"perm:shift+16", "perm:complement", "tornado",
		"burst:50,200", "burst:50,200,0.8",
		"adv+1+burst:50,200,0.8", "un+skew:0.1,0.5",
		"adv+1+burst:50,200,0.8+skew:0.1,0.5",
		"", "off", "bogus", "mix:", "perm:shift+", "+burst:1,2",
		"mix:nan,1", "hotspot:nan,8", "un+skew:nan,0.5",
		"UN", "ADV-2", "mix(0.4,1)", "hotspot(0.125,3)", "perm:shift-3", "perm:complement",
		"UN+burst(50,200,0.8)", "ADV+1+burst(50,150)+skew(0.1,0.5)", "UN+burst(1e-07,1e+21)",
		"un+skew:0,0.5", "burst:50,200+burst:5,5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseTraffic(s)
		if err != nil {
			return
		}
		canon := tr.Name()
		if canon == "" {
			t.Errorf("ParseTraffic(%q) accepted a spec with an empty name", s)
		}
		again, err := ParseTraffic(s)
		if err != nil {
			t.Fatalf("ParseTraffic(%q) accepted once, rejected twice: %v", s, err)
		}
		if !samePlan(again.inner, tr.inner) {
			t.Errorf("ParseTraffic(%q) unstable: %+v vs %+v", s, tr.inner, again.inner)
		}
		back, err := ParseTraffic(canon)
		if err != nil {
			t.Fatalf("ParseTraffic(%q) = %+v, but its Name %q does not re-parse: %v", s, tr.inner, canon, err)
		}
		if !samePlan(back.inner, tr.inner) {
			t.Errorf("round trip of %q via %q changed the workload: %+v vs %+v", s, canon, tr.inner, back.inner)
		}
		if again := back.Name(); again != canon {
			t.Errorf("Name of %q not a fixed point: %q vs %q", s, again, canon)
		}
	})
}

func FuzzParseCongestion(f *testing.F) {
	for _, s := range []string{
		"off", "on", "on:mark=80,shed=8",
		"on:mark=80,notify=32,shed=8,dec=50,rec=5,every=100,hold=32,min=10",
		"", "on:", "on:mark", "on:mark=", "on:bogus=1", "maybe",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCongestion(s)
		if err != nil {
			return
		}
		again, err := ParseCongestion(s)
		if err != nil {
			t.Fatalf("ParseCongestion(%q) accepted once, rejected twice: %v", s, err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Errorf("ParseCongestion(%q) unstable: %+v vs %+v", s, c, again)
		}
	})
}

func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{
		"off", "linkdown:3,7@500", "linkup:3,7@2500",
		"routerdown:7@500+routerup:7@2500",
		"random:5%@1000", "random:5%@1000,42", "random:0.5%@1,18446744073709551615",
		"linkdown:3,7@500+linkup:3,7@2500+retry:3,200",
		"random:5%@1000+retry:3", "retry:1",
		"", "linkdown:", "random:nan%@5", "random:101%@5", "retry:0", "retry:3+retry:3",
		"linkdown:4294967299,65541@10", "linkdown:2147483647,32767@10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fl, err := ParseFaults(s)
		if err != nil {
			return
		}
		canon := fl.String()
		back, err := ParseFaults(canon)
		if err != nil {
			t.Fatalf("ParseFaults(%q) = %+v, but its String %q does not re-parse: %v", s, fl, canon, err)
		}
		if !reflect.DeepEqual(back, fl) {
			t.Errorf("round trip of %q via %q changed the plan: %+v vs %+v", s, canon, fl, back)
		}
		if again := back.String(); again != canon {
			t.Errorf("String of %q not a fixed point: %q vs %q", s, again, canon)
		}
	})
}
