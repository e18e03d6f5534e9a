package router

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cbar/internal/rng"
	"cbar/internal/spec"
	"cbar/internal/topology"
)

// The fault plan: the events a run schedules, the spec grammar that
// spells them, and their expansion into the ascending-cycle schedule the
// engine (faults.go) applies.

// FaultKind enumerates the fault-plan event types (re-exported, with its
// constants, by the public cbar package).
type FaultKind uint8

const (
	// LinkDown fails the bidirectional link attached to (Router, Port).
	LinkDown FaultKind = iota
	// LinkUp repairs a previously failed link.
	LinkUp
	// RouterDown fails a whole router: all its links, queues and NICs.
	RouterDown
	// RouterUp repairs a previously failed router.
	RouterUp
)

// String returns the kind's spec-clause name ("linkdown", "routerup",
// ...), as ParseFaultConfig accepts.
func (k FaultKind) String() string {
	if k <= RouterUp {
		return faultGrammar[k].name
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultEvent is one scheduled fault: at cycle Cycle, the given kind is
// applied to router Router (and, for link events, its output port
// Port). Events are applied at the sequential point of the cycle, so
// fault state — and every downstream effect — is bit-identical at every
// worker count.
type FaultEvent struct {
	// Kind selects what fails or recovers.
	Kind FaultKind
	// Router is the affected router id.
	Router int32
	// Port is the router-side output port of a link event (ignored for
	// router events). Ports order injection, then local, then global
	// channels; only local/global ports can fail individually.
	Port int16
	// Cycle is when the event applies (at the cycle's sequential point).
	Cycle int64
}

// FaultConfig is the deterministic fault plan (re-exported as
// cbar.Faults): scheduled link/router failures and repairs, an optional
// random link-failure expansion, and the source retransmission policy
// for killed packets. The zero value schedules nothing and is
// bit-inert: no state is allocated, no hot-path branch is taken beyond
// one nil check per cycle, and the simulation is identical to a build
// without the fault engine.
type FaultConfig struct {
	// Events is the explicit fault schedule, in any order: events are
	// applied in ascending cycle order (stable for equal cycles: listed
	// order).
	Events []FaultEvent

	// RandomPct, when positive, additionally fails that percentage of
	// the topology's physical global cables (at least one) at cycle
	// RandomAt, sampled without replacement from the deterministic
	// stream seeded by RandomSeed. The expansion happens at Build, so
	// the same (topology, pct, seed) triple always fails the same
	// cables.
	RandomPct float64
	// RandomAt is the cycle the random expansion applies at.
	RandomAt int64
	// RandomSeed seeds the random cable draw (0 is a valid seed).
	RandomSeed uint64

	// RetryLimit, when positive, makes the traffic injector re-offer a
	// dropped packet up to this many times, with exponential backoff
	// RetryBase<<attempt cycles after the drop. Zero (the default)
	// means drop-and-count.
	RetryLimit int

	// RetryBase is the backoff unit in cycles (default
	// LatencyLocal+LatencyGlobal, a worst-case one-way path).
	RetryBase int64
}

// Enabled reports whether the plan schedules any fault.
func (fc FaultConfig) Enabled() bool {
	return len(fc.Events) > 0 || fc.RandomPct > 0
}

// String renders the plan in ParseFaultConfig's canonical syntax ("off"
// for the zero value), which parses back to fc.
func (fc FaultConfig) String() string {
	var parts []string
	for _, e := range fc.Events {
		parts = append(parts, faultGrammar[min(e.Kind, RouterUp)].print(&fc, &e))
	}
	for _, c := range faultGrammar[RouterUp+1:] {
		if c.on(fc) {
			parts = append(parts, c.print(&fc, nil))
		}
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, "+")
}

// faultClause is one row of the fault-plan grammar, "name:ARGS". Its
// fields fill a new event (the rows indexed by FaultKind) or the plan's
// own fields (the others, once each): the first at are written before an
// '@', the first least are required, the others print only when nonzero.
type faultClause struct {
	name, usage string
	args        func(fc *FaultConfig, e *FaultEvent) []any
	at, least   int
	unit        string                           // follows the fields before the '@' ("5%"); optional in input
	on          func(fc FaultConfig) bool        // a plan row is present
	valid       func(fc FaultConfig, n int) bool // given the n fields written; else the clause is rejected: why
	why         string
}

func linkFields(_ *FaultConfig, e *FaultEvent) []any { return []any{&e.Router, &e.Port, &e.Cycle} }

func routerFields(_ *FaultConfig, e *FaultEvent) []any { return []any{&e.Router, &e.Cycle} }

var faultGrammar = []faultClause{
	LinkDown:   {name: "linkdown", usage: "linkdown:R,P@C", args: linkFields, at: 2, least: 3},
	LinkUp:     {name: "linkup", usage: "linkup:R,P@C", args: linkFields, at: 2, least: 3},
	RouterDown: {name: "routerdown", usage: "routerdown:R@C", args: routerFields, at: 1, least: 2},
	RouterUp:   {name: "routerup", usage: "routerup:R@C", args: routerFields, at: 1, least: 2},
	{name: "random", usage: "random:F%@C[,SEED]", at: 1, least: 2, unit: "%",
		args:  func(fc *FaultConfig, _ *FaultEvent) []any { return []any{&fc.RandomPct, &fc.RandomAt, &fc.RandomSeed} },
		on:    func(fc FaultConfig) bool { return fc.RandomPct > 0 },
		valid: func(fc FaultConfig, _ int) bool { return fc.RandomPct > 0 && fc.RandomPct <= 100 },
		why:   "percentage outside (0,100]"},
	{name: "retry", usage: "retry:N[,BASE]", least: 1,
		args:  func(fc *FaultConfig, _ *FaultEvent) []any { return []any{&fc.RetryLimit, &fc.RetryBase} },
		on:    func(fc FaultConfig) bool { return fc.RetryLimit > 0 },
		valid: func(fc FaultConfig, n int) bool { return fc.RetryLimit >= 1 && (n < 2 || fc.RetryBase >= 1) },
		why:   "limit and backoff base must be >= 1"},
}

// ParseFaultConfig resolves a case-insensitive fault-plan spec: "off" or
// clauses joined by '+' ("random:5%@1000+retry:3"). An id too wide for
// its field is an error, never a wrapped-around id.
func ParseFaultConfig(s string) (FaultConfig, error) {
	var fc FaultConfig
	if ls := strings.ToLower(strings.TrimSpace(s)); ls != "" && ls != "off" {
		for _, part := range strings.Split(ls, "+") {
			part = strings.TrimSpace(part)
			name, rest, ok := strings.Cut(part, ":")
			i := slices.IndexFunc(faultGrammar, func(c faultClause) bool { return c.name == name })
			switch {
			case !ok || i < 0:
				return FaultConfig{}, fmt.Errorf("router: fault spec %q in %q is not %s", part, s, FaultGrammar())
			case faultGrammar[i].on != nil && faultGrammar[i].on(fc):
				return FaultConfig{}, fmt.Errorf("router: duplicate %s spec in %q", name, s)
			}
			if err := faultGrammar[i].parse(&fc, FaultKind(i), rest); err != nil {
				return FaultConfig{}, fmt.Errorf("router: bad fault spec %q in %q: %v", part, s, err)
			}
		}
	}
	return fc, nil
}

// FaultGrammar lists the fault-plan clauses for help and error text.
func FaultGrammar() string {
	forms := []string{"off"}
	for _, c := range faultGrammar {
		forms = append(forms, c.usage)
	}
	return strings.Join(forms, " | ") + "; compose with '+'"
}

// parse reads one clause's arguments into fc, or into a new event of kind k.
func (c *faultClause) parse(fc *FaultConfig, k FaultKind, rest string) error {
	if c.at > 0 {
		head, tail, ok := strings.Cut(rest, "@")
		if !ok || strings.Count(head, ",") != c.at-1 {
			return fmt.Errorf("want %s", c.usage)
		}
		rest = strings.TrimSuffix(strings.TrimSpace(head), c.unit) + "," + tail
	}
	e := FaultEvent{Kind: k}
	n, err := spec.Args(rest, c.least, c.args(fc, &e))
	switch {
	case err != nil:
		return fmt.Errorf("want %s: %v", c.usage, err)
	case c.on == nil:
		fc.Events = append(fc.Events, e)
	case !c.valid(*fc, n):
		return errors.New(c.why)
	}
	return nil
}

// print spells the clause with fc's or e's values (e in its kind's name).
func (c *faultClause) print(fc *FaultConfig, e *FaultEvent) string {
	fields, s := c.args(fc, e), c.name+":"
	if e != nil {
		s = e.Kind.String() + ":"
	}
	if c.at > 0 {
		s += spec.FormatArgs(fields[:c.at], c.at) + c.unit + "@"
	}
	return s + spec.FormatArgs(fields[c.at:], c.least-c.at)
}

// Resolved returns the configuration with zero-valued knobs replaced by
// their defaults.
func (fc FaultConfig) Resolved(c Config) FaultConfig {
	if fc.RetryLimit > 0 && fc.RetryBase == 0 {
		fc.RetryBase = int64(c.LatencyLocal + c.LatencyGlobal)
	}
	return fc
}

// maxRetryLimit bounds the retransmission count so the exponential
// backoff shift cannot overflow.
const maxRetryLimit = 16

// validate checks a resolved configuration against the fabric it will
// run in.
func (fc FaultConfig) validate(c Config) error {
	t, err := topology.New(c.Topo)
	if err != nil {
		return err
	}
	for i, ev := range fc.Events {
		if ev.Kind > RouterUp {
			return fmt.Errorf("router: fault event %d has invalid kind %d", i, ev.Kind)
		}
		if ev.Router < 0 || int(ev.Router) >= t.Routers {
			return fmt.Errorf("router: fault event %d router %d outside [0,%d)", i, ev.Router, t.Routers)
		}
		if ev.Kind == LinkDown || ev.Kind == LinkUp {
			if int(ev.Port) < t.FirstLocalPort() || int(ev.Port) >= t.Radix() {
				return fmt.Errorf("router: fault event %d port %d is not a link port (want [%d,%d))",
					i, ev.Port, t.FirstLocalPort(), t.Radix())
			}
		}
		if ev.Cycle < 0 {
			return fmt.Errorf("router: fault event %d cycle %d < 0", i, ev.Cycle)
		}
	}
	if fc.RandomPct < 0 || fc.RandomPct > 100 {
		return fmt.Errorf("router: random fault fraction %g%% outside [0,100]", fc.RandomPct)
	}
	if fc.RandomPct > 0 && fc.RandomAt < 0 {
		return fmt.Errorf("router: random fault cycle %d < 0", fc.RandomAt)
	}
	if fc.RetryLimit < 0 || fc.RetryLimit > maxRetryLimit {
		return fmt.Errorf("router: retry limit %d outside [0,%d]", fc.RetryLimit, maxRetryLimit)
	}
	if fc.RetryLimit > 0 && fc.RetryBase < 1 {
		return fmt.Errorf("router: retry backoff base %d < 1", fc.RetryBase)
	}
	return nil
}

// plan expands the random-cable clause into explicit LinkDown events and
// returns the full schedule in ascending cycle order (stable, so
// same-cycle events keep their listed order, random failures last).
func (fc FaultConfig) plan(t *topology.Dragonfly) []FaultEvent {
	events := append([]FaultEvent(nil), fc.Events...)
	if fc.RandomPct > 0 {
		// Enumerate each physical cable once by its canonical endpoint
		// (the lower-numbered group), then partial-Fisher-Yates k of
		// them from the seeded stream.
		type endpoint struct {
			router int32
			port   int16
		}
		var cables []endpoint
		for g := 0; g < t.Groups; g++ {
			for l := 0; l < t.GlobalLinks; l++ {
				if !t.CanonicalGlobalLink(g, l) {
					continue
				}
				pos, k := t.GlobalLinkOwner(l)
				cables = append(cables, endpoint{
					router: int32(t.RouterID(g, pos)),
					port:   int16(t.GlobalPort(k)),
				})
			}
		}
		k := int(fc.RandomPct*float64(len(cables))/100 + 0.5)
		if k < 1 {
			k = 1
		}
		if k > len(cables) {
			k = len(cables)
		}
		r := rng.New(fc.RandomSeed, 0)
		for i := 0; i < k; i++ {
			j := i + r.Intn(len(cables)-i)
			cables[i], cables[j] = cables[j], cables[i]
			events = append(events, FaultEvent{
				Kind: LinkDown, Router: cables[i].router, Port: cables[i].port, Cycle: fc.RandomAt,
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	return events
}
