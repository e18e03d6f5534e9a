package cbar

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseFaults(t *testing.T) {
	cases := []struct {
		spec string
		want Faults
	}{
		{"off", Faults{}},
		{"", Faults{}},
		{"linkdown:12,5@1000", Faults{Events: []FaultEvent{{Kind: LinkDown, Router: 12, Port: 5, Cycle: 1000}}}},
		{"LinkUp: 12 , 5 @ 3000", Faults{Events: []FaultEvent{{Kind: LinkUp, Router: 12, Port: 5, Cycle: 3000}}}},
		{"routerdown:7@500+routerup:7@2500", Faults{Events: []FaultEvent{
			{Kind: RouterDown, Router: 7, Cycle: 500}, {Kind: RouterUp, Router: 7, Cycle: 2500}}}},
		// The widest ids the event fields hold still parse.
		{"linkdown:2147483647,32767@1", Faults{Events: []FaultEvent{{Kind: LinkDown, Router: 1<<31 - 1, Port: 1<<15 - 1, Cycle: 1}}}},
		{"random:5%@1000", Faults{RandomPct: 5, RandomAt: 1000}},
		{"random:0.5@1000,42", Faults{RandomPct: 0.5, RandomAt: 1000, RandomSeed: 42}},
		{"retry:3", Faults{RetryLimit: 3}},
		{"random:5%@1000+retry:3,200", Faults{RandomPct: 5, RandomAt: 1000, RetryLimit: 3, RetryBase: 200}},
	}
	for _, tc := range cases {
		got, err := ParseFaults(tc.spec)
		if err != nil {
			t.Errorf("ParseFaults(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFaults(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{
		"linkdown", "meltdown:3@5", "linkdown:3@5", "routerdown:3,4@5", "linkdown:3,7", "linkdown:3,7@x",
		"random:5%", "random:0%@5", "random:5%@1,2,3", "retry:0", "retry:3,0", "retry:3,200,1",
		"random:5%@1+random:5%@2", "retry:3+retry:3",
	} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
	// Ids wider than the event fields used to wrap: 4294967299 became
	// router 3 and 65541 port 5. They are grammar errors now.
	for _, wide := range []string{"linkdown:4294967299,65541@10", "linkdown:3,65541@10", "routerdown:4294967299@10"} {
		_, err := ParseFaults(wide)
		if err == nil || !strings.Contains(err.Error(), "bad fault spec") || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("ParseFaults(%q) = %v, want a bad-fault-spec out-of-range error", wide, err)
		}
	}
}
