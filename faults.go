package cbar

import (
	"fmt"
	"strconv"
	"strings"

	"cbar/internal/router"
)

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

// ParseFaults resolves a fault-plan specification string:
//
//	"off"                      no faults (the default)
//	"linkdown:12,5@1000"       fail router 12's output port 5 at cycle 1000
//	"linkup:12,5@3000"         repair it at cycle 3000
//	"routerdown:7@500"         fail router 7 (all its links) at cycle 500
//	"routerup:7@2500"          repair router 7 at cycle 2500
//	"random:5%@1000"           fail 5% of the global cables at cycle 1000
//	"random:5%@1000,42"        same, drawn from seed 42
//	"retry:3"                  sources retransmit killed packets up to 3
//	                           times with exponential backoff
//	"retry:3,200"              same, with a 200-cycle backoff base
//
// Specs compose with '+': "random:5%@1000+retry:3". Router/port bounds
// are validated against the simulated topology when the network is
// built.
func ParseFaults(s string) (Faults, error) {
	ls := strings.ToLower(strings.TrimSpace(s))
	if ls == "" || ls == "off" {
		return Faults{}, nil
	}
	var f Faults
	for _, part := range strings.Split(ls, "+") {
		part = strings.TrimSpace(part)
		name, rest, ok := strings.Cut(part, ":")
		if !ok {
			return Faults{}, fmt.Errorf("cbar: fault spec %q in %q is not kind:args (linkdown linkup routerdown routerup random retry)", part, s)
		}
		var err error
		switch name {
		case "random":
			if f.RandomPct > 0 {
				return Faults{}, fmt.Errorf("cbar: duplicate random spec in %q", s)
			}
			err = parseRandomFaults(&f, rest)
		case "retry":
			if f.RetryLimit > 0 {
				return Faults{}, fmt.Errorf("cbar: duplicate retry spec in %q", s)
			}
			err = parseRetry(&f, rest)
		default:
			kind := LinkDown
			for kind <= RouterUp && kind.String() != name {
				kind++
			}
			if kind > RouterUp {
				return Faults{}, fmt.Errorf("cbar: unknown fault kind %q in %q (linkdown linkup routerdown routerup random retry)", name, s)
			}
			var e FaultEvent
			if e, err = parseFaultEvent(kind, rest); err == nil {
				f.Events = append(f.Events, e)
			}
		}
		if err != nil {
			return Faults{}, fmt.Errorf("cbar: bad fault spec %q in %q: %v", part, s, err)
		}
	}
	return f, nil
}

// parseFaultEvent parses "R,P@C" (link kinds) or "R@C" (router kinds).
// Ids are parsed at the width of the fields that hold them, so an
// out-of-range router or port is an error, never a wrapped-around id.
func parseFaultEvent(kind FaultKind, rest string) (FaultEvent, error) {
	target, cycle, ok := strings.Cut(rest, "@")
	if !ok {
		return FaultEvent{}, fmt.Errorf("missing @CYCLE")
	}
	cyc, err := strconv.ParseInt(strings.TrimSpace(cycle), 10, 64)
	if err != nil {
		return FaultEvent{}, fmt.Errorf("bad cycle: %v", err)
	}
	n, form := 1, "ROUTER@CYCLE"
	if kind == LinkDown || kind == LinkUp {
		n, form = 2, "ROUTER,PORT@CYCLE"
	}
	ids, err := splitFields(target, n, n)
	var r, p int64
	if err == nil {
		r, err = strconv.ParseInt(ids[0], 10, 32)
	}
	if err == nil && n == 2 {
		p, err = strconv.ParseInt(ids[1], 10, 16)
	}
	if err != nil {
		return FaultEvent{}, fmt.Errorf("want %s: %v", form, err)
	}
	return FaultEvent{Kind: kind, Router: int32(r), Port: int16(p), Cycle: cyc}, nil
}

// parseRandomFaults parses "F%@C[,SEED]" into f's random clause.
func parseRandomFaults(f *Faults, rest string) error {
	pctStr, tail, ok := strings.Cut(rest, "@")
	if !ok {
		return fmt.Errorf("missing @CYCLE")
	}
	pct, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(pctStr), "%"), 64)
	if err != nil {
		return fmt.Errorf("bad percentage: %v", err)
	}
	// Negated comparison so NaN (which fails both directed checks) is
	// rejected too.
	if !(pct > 0 && pct <= 100) {
		return fmt.Errorf("percentage %v outside (0,100]", pct)
	}
	args, err := splitFields(tail, 1, 2)
	if err != nil {
		return err
	}
	at, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad cycle: %v", err)
	}
	var seed uint64
	if len(args) == 2 {
		if seed, err = strconv.ParseUint(args[1], 10, 64); err != nil {
			return fmt.Errorf("bad seed: %v", err)
		}
	}
	f.RandomPct, f.RandomAt, f.RandomSeed = pct, at, seed
	return nil
}

// parseRetry parses "N[,BASE]" into f's retransmission policy.
func parseRetry(f *Faults, rest string) error {
	args, err := splitFields(rest, 1, 2)
	if err != nil {
		return err
	}
	limit, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("bad limit: %v", err)
	}
	if limit < 1 {
		return fmt.Errorf("limit %d must be >= 1", limit)
	}
	var base int64
	if len(args) == 2 {
		if base, err = strconv.ParseInt(args[1], 10, 64); err != nil {
			return fmt.Errorf("bad backoff base: %v", err)
		}
		if base < 1 {
			return fmt.Errorf("backoff base %d must be >= 1", base)
		}
	}
	f.RetryLimit, f.RetryBase = limit, base
	return nil
}
