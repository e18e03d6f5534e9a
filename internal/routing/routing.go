// Package routing implements the seven routing mechanisms evaluated in
// the paper on top of the router fabric:
//
//   - MIN and VAL (Valiant), the oblivious references;
//   - PB (PiggyBacking) and OLM (Opportunistic Local Misrouting), the
//     congestion-based adaptive baselines, triggered by credit/occupancy
//     estimates;
//   - Base, Hybrid and ECtN, the paper's contention-based mechanisms
//     (§III), triggered by contention counters kept here (contentionHooks).
//
// All mechanisms share the Dragonfly misrouting policy of the paper's
// §IV-A: nonminimal global hops may be taken in the source group (at
// injection or after the first local hop, PAR-style) toward a random
// global link of the current router; nonminimal local hops may be taken
// in the intermediate or destination group, at most once per visited
// group. The policy is one function (alternative, helpers.go); an
// in-transit mechanism is a trigger over it — contentionAlternative,
// creditAlternative, or both — as §III composes them. Deadlock avoidance uses the ascending-VC discipline: a hop's VC
// index equals the number of previous hops of the same class, capped at
// the port's VC count.
package routing

import (
	"fmt"
	"slices"
	"strings"

	"cbar/internal/router"
)

// Algo identifies a routing mechanism. The public package re-exports it
// as cbar.Algorithm and the constants as cbar.MIN ... cbar.BaseP, which
// carry the per-mechanism descriptions.
type Algo int

// The seven mechanisms of the paper's evaluation, in its presentation
// order, plus BaseProb, the §VI-C statistical-trigger extension the
// paper describes but leaves unexplored.
const (
	Min Algo = iota
	Valiant
	PB
	OLM
	Base
	Hybrid
	ECtN
	BaseProb
)

// All returns every mechanism, in the paper's presentation order
// (evaluated set first, then the §VI-C extension).
func All() []Algo { return []Algo{Min, Valiant, PB, OLM, Base, Hybrid, ECtN, BaseProb} }

// Evaluated returns the seven mechanisms of the paper's evaluation
// section (without the §VI-C extension).
func Evaluated() []Algo { return []Algo{Min, Valiant, PB, OLM, Base, Hybrid, ECtN} }

// algoNames holds each mechanism's canonical name, then the other
// spellings Parse accepts: String and Parse both read it.
var algoNames = [...][]string{
	Min:      {"MIN", "minimal"},
	Valiant:  {"VAL", "valiant"},
	PB:       {"PB", "piggyback", "piggybacking"},
	OLM:      {"OLM"},
	Base:     {"Base"},
	Hybrid:   {"Hybrid"},
	ECtN:     {"ECtN"},
	BaseProb: {"Base-P", "basep", "baseprob"},
}

// String returns the mechanism's canonical name ("MIN", "PB", "Base",
// ...), as Parse accepts and result CSVs print.
func (a Algo) String() string {
	if a >= 0 && int(a) < len(algoNames) {
		return algoNames[a][0]
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// Parse resolves a case-insensitive mechanism name ("min", "val", "pb",
// "olm", "base", "hybrid", "ectn", "base-p" and their long forms).
func Parse(s string) (Algo, error) {
	for a, names := range algoNames {
		if slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, strings.TrimSpace(s)) }) {
			return Algo(a), nil
		}
	}
	return 0, fmt.Errorf("routing: unknown algorithm %q; want %s", s, Grammar())
}

// Grammar lists every name Parse accepts, canonical name first and the
// other spellings in parentheses, for help and error text.
func Grammar() string {
	forms := make([]string, len(algoNames))
	for a, names := range algoNames {
		forms[a] = names[0]
		if len(names) > 1 {
			forms[a] += " (" + strings.Join(names[1:], ", ") + ")"
		}
	}
	return strings.Join(forms, " | ") + ", in any case"
}

// IsContentionBased reports whether the mechanism uses contention
// counters (the paper's contribution).
func (a Algo) IsContentionBased() bool {
	return a == Base || a == Hybrid || a == ECtN || a == BaseProb
}

// IsAdaptive reports whether the mechanism adapts to network state.
func (a Algo) IsAdaptive() bool { return a != Min && a != Valiant }

// RequiredLocalVCs returns the number of local (and injection) VCs the
// mechanism needs for deadlock freedom: VAL and PB route through an
// intermediate node (up to four local hops, Table I), the rest need
// three.
func RequiredLocalVCs(a Algo) int {
	if a == Valiant || a == PB {
		return 4
	}
	return 3
}

// Options carries the policy parameters an experiment varies, defaulted
// to Table I. The constants no caller ever set — PB's UGAL offset,
// BaseProb's ramp and cap — sit beside the mechanisms that use them.
type Options struct {
	// BaseTh is the contention threshold of Base, of BaseProb and of
	// ECtN's local counters (Table I: 6).
	BaseTh int32
	// HybridTh is Hybrid's contention threshold (Table I: 7).
	HybridTh int32
	// CombinedTh is ECtN's combined-counter threshold (Table I: 10).
	CombinedTh int32
	// ECtNPeriod is the partial-array exchange period in cycles
	// (Table I: 100).
	ECtNPeriod int64
	// OLMRelPct is OLM's relative congestion threshold: misroute when
	// the nonminimal occupancy is below this percentage of the minimal
	// occupancy (Table I: 50).
	OLMRelPct int32
	// HybridRelPct is the same threshold for Hybrid's credit component
	// (Table I: 35).
	HybridRelPct int32
	// PBSatPackets is PB's global-channel saturation threshold, in
	// packets of queued-estimate (Table I: T = 3).
	PBSatPackets int32
}

// DefaultOptions returns the Table I parameter set.
func DefaultOptions() Options {
	return Options{
		BaseTh:       6,
		HybridTh:     7,
		CombinedTh:   10,
		ECtNPeriod:   100,
		OLMRelPct:    50,
		HybridRelPct: 35,
		PBSatPackets: 3,
	}
}

// New builds the requested mechanism with the given options. A negative
// threshold or percentage is an error for every mechanism, and so is an
// ECtN exchange period below one cycle.
func New(a Algo, o Options) (router.Algorithm, error) {
	for _, v := range []struct {
		name string
		v    int32
	}{{"BaseTh", o.BaseTh}, {"HybridTh", o.HybridTh}, {"CombinedTh", o.CombinedTh},
		{"OLMRelPct", o.OLMRelPct}, {"HybridRelPct", o.HybridRelPct}, {"PBSatPackets", o.PBSatPackets}} {
		if v.v < 0 {
			return nil, fmt.Errorf("routing: %s = %d, need >= 0", v.name, v.v)
		}
	}
	if a == ECtN && o.ECtNPeriod < 1 {
		return nil, fmt.Errorf("routing: ECtNPeriod = %d cycles, need >= 1", o.ECtNPeriod)
	}
	switch a {
	case Min:
		return &minAlg{}, nil
	case Valiant:
		return &valiantAlg{}, nil
	case PB:
		return newPB(o), nil
	case OLM:
		return newOLM(o), nil
	case Base:
		return newBase(o.BaseTh), nil
	case Hybrid:
		return newHybrid(o), nil
	case ECtN:
		return newECtN(o), nil
	case BaseProb:
		return newBaseProb(o.BaseTh), nil
	}
	return nil, fmt.Errorf("routing: unknown algorithm %v", a)
}

// MustNew is New panicking on error, for tests and fixed setups.
func MustNew(a Algo, o Options) router.Algorithm {
	alg, err := New(a, o)
	if err != nil {
		panic(err)
	}
	return alg
}
