package cbar

import (
	"fmt"
	"strconv"
	"strings"

	"cbar/internal/router"
)

// Congestion configures the optional congestion-management layer:
// ECN-style marking at hot output ports (MarkPct), delayed
// notifications back to the traffic source (NotifyLatency), a
// per-source AIMD injection throttle (DecreasePct, RecoverPct,
// RecoverEvery, HoldCycles, MinRatePct) and NIC-side packet shedding
// under saturation (ShedCap). The zero value leaves the layer off, in
// which case the simulation is bit-identical to a build without it.
// With Enabled set, zero-valued knobs take their documented defaults.
//
// Congestion is an alias of the engine's own declaration;
// `go doc cbar/internal/router.CongestionConfig` documents every knob
// and its default.
type Congestion = router.CongestionConfig

// ParseCongestion resolves a congestion-management specification string:
//
//	"off"                        layer disabled (the default)
//	"on"                         enabled with all defaults
//	"on:mark=80,shed=8"          enabled with overrides
//
// Recognised keys: mark (MarkPct), notify (NotifyLatency), shed
// (ShedCap), dec (DecreasePct), rec (RecoverPct), every (RecoverEvery),
// hold (HoldCycles), min (MinRatePct). Values are validated against the
// simulated configuration when the network is built.
func ParseCongestion(s string) (Congestion, error) {
	ls := strings.ToLower(strings.TrimSpace(s))
	switch ls {
	case "", "off":
		return Congestion{}, nil
	case "on":
		return Congestion{Enabled: true}, nil
	}
	rest, ok := strings.CutPrefix(ls, "on:")
	if !ok {
		return Congestion{}, fmt.Errorf("cbar: congestion spec %q must be off | on | on:key=val,... (keys: mark notify shed dec rec every hold min)", s)
	}
	g := Congestion{Enabled: true}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Congestion{}, fmt.Errorf("cbar: congestion option %q in %q is not key=val", kv, s)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return Congestion{}, fmt.Errorf("cbar: bad congestion value in %q: %v", kv, err)
		}
		switch strings.TrimSpace(key) {
		case "mark":
			g.MarkPct = n
		case "notify":
			g.NotifyLatency = n
		case "shed":
			g.ShedCap = n
		case "dec":
			g.DecreasePct = n
		case "rec":
			g.RecoverPct = n
		case "every":
			g.RecoverEvery = int64(n)
		case "hold":
			g.HoldCycles = int64(n)
		case "min":
			g.MinRatePct = n
		default:
			return Congestion{}, fmt.Errorf("cbar: unknown congestion option %q in %q (mark notify shed dec rec every hold min)", key, s)
		}
	}
	return g, nil
}
