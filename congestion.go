package cbar

import (
	"fmt"
	"strings"

	"cbar/internal/router"
)

// Congestion switches the optional congestion-management layer:
// ECN-style marking at hot output ports (above 70 % of a port's
// occupancy cap), notifications back to the traffic source one
// LatencyLocal+LatencyGlobal later, a per-source AIMD injection
// throttle (halve the rate, floor 10 %, recover 5 points per
// notification round trip) and NIC-side packet shedding at a quarter of
// the NIC queue. The zero value leaves the layer off, in which case the
// simulation is bit-identical to a build without it.
//
// Congestion is an alias of the engine's own declaration;
// `go doc cbar/internal/router.CongestionConfig` documents it, and
// doc.go's "Congestion management" section says where each fixed value
// lives.
type Congestion = router.CongestionConfig

// ParseCongestion resolves a congestion-management specification string:
// "off" (or empty) disables the layer, the default, and "on" enables it.
// Case and surrounding space are ignored; anything else is an error.
func ParseCongestion(s string) (Congestion, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return Congestion{}, nil
	case "on":
		return Congestion{Enabled: true}, nil
	}
	return Congestion{}, fmt.Errorf("cbar: congestion spec %q must be off | on", s)
}
