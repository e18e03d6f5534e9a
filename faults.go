package cbar

import "cbar/internal/router"

// Faults is a deterministic fault plan: scheduled link/router failures
// and repairs (Events), an optional random link-failure expansion
// (RandomPct, RandomAt, RandomSeed), and the source retransmission
// policy for killed packets (RetryLimit, RetryBase). The zero value
// schedules nothing and is bit-inert — the simulation is identical to a
// build without the fault engine. Enabled reports whether the plan
// schedules any fault; String renders it in the canonical ParseFaults
// syntax, so ParseFaults(f.String()) reproduces f.
//
// Faults, FaultEvent and FaultKind are aliases of the engine's own
// declarations; `go doc cbar/internal/router.FaultConfig` documents
// every field.
type Faults = router.FaultConfig

// FaultEvent is one scheduled fault: at cycle Cycle, Kind is applied to
// router Router (and, for link events, its output port Port). Events
// are applied at the sequential point of the cycle, so fault state is
// bit-identical at every worker count.
type FaultEvent = router.FaultEvent

// FaultKind enumerates the fault-plan event types; its String is the
// spec-clause name ("linkdown", "routerup", ...) ParseFaults accepts.
type FaultKind = router.FaultKind

// Fault event kinds.
const (
	// LinkDown fails one directed cable pair: the link behind output
	// port Port of router Router and its reverse direction.
	LinkDown = router.LinkDown
	// LinkUp repairs a previously failed link.
	LinkUp = router.LinkUp
	// RouterDown fails a whole router: every attached link (including
	// its NICs' injection/ejection channels) goes dead and its queued
	// packets are killed.
	RouterDown = router.RouterDown
	// RouterUp repairs a previously failed router (links that were also
	// failed individually stay down until their own LinkUp).
	RouterUp = router.RouterUp
)

// ParseFaults resolves a fault-plan spec: "off", or clauses such as
// "linkdown:12,5@1000", "random:5%@1000,42" and "retry:3,200" joined by
// '+' (README.md tabulates them). Faults.String prints a plan back.
func ParseFaults(s string) (Faults, error) { return router.ParseFaultConfig(s) }
