package cbar

import (
	"strings"
	"testing"
)

func TestParseCongestion(t *testing.T) {
	cases := []struct {
		spec string
		want Congestion
	}{
		{"off", Congestion{}},
		{"", Congestion{}},
		{"on", Congestion{Enabled: true}},
		{"ON", Congestion{Enabled: true}},
		{"  Off ", Congestion{}},
		{" on\t", Congestion{Enabled: true}},
	}
	for _, tc := range cases {
		got, err := ParseCongestion(tc.spec)
		if err != nil {
			t.Errorf("ParseCongestion(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseCongestion(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{
		"maybe", "on:", "on:mark", "on:mark=x", "on:bogus=1", "off:mark=80",
		"on:mark=80", "on:mark=80,shed=8,min=20", "on:notify=50,dec=60,rec=10,every=200,hold=100",
	} {
		if _, err := ParseCongestion(bad); err == nil {
			t.Errorf("ParseCongestion(%q) accepted", bad)
		}
	}
}

// TestCongestionConfigValidated pins that the layer has no knobs left to
// set: a key=val spec, the grammar's old form, is rejected with the
// grammar it must follow in the message.
func TestCongestionConfigValidated(t *testing.T) {
	_, err := ParseCongestion("on:mark=80")
	if err == nil || !strings.Contains(err.Error(), "off | on") {
		t.Fatalf("on:mark=80 surfaced no grammar error, got %v", err)
	}
}

// TestCongestionSteadyCounters pins the public result plumbing: an
// enabled hotspot run reports nonzero congestion counters, a disabled
// one reports all zeros.
func TestCongestionSteadyCounters(t *testing.T) {
	cfg := NewConfig(Tiny, Base)
	opt := SteadyOptions{Warmup: 400, Measure: 400, Seeds: 1}
	off, err := RunSteady(cfg, Hotspot(0.3, 8), 0.7, opt)
	if err != nil {
		t.Fatal(err)
	}
	if off.Marked != 0 || off.Notified != 0 || off.Throttled != 0 || off.Shed != 0 {
		t.Fatalf("congestion-off counters nonzero: %+v", off)
	}
	cfg.Congestion = Congestion{Enabled: true}
	on, err := RunSteady(cfg, Hotspot(0.3, 8), 0.7, opt)
	if err != nil {
		t.Fatal(err)
	}
	if on.Marked == 0 || on.Notified == 0 || on.Throttled == 0 {
		t.Fatalf("congestion-on counters empty: marked=%d notified=%d throttled=%d",
			on.Marked, on.Notified, on.Throttled)
	}
}
