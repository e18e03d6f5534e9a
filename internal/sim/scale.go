package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/topology"
)

// Scale selects one of the canned network sizes (re-exported as
// cbar.Scale). The simulator code is identical at every scale; only
// topology parameters and the §VI-A-scaled thresholds change. A value
// outside the three constants is not a network: Params and
// DefaultBudget return zero values for it, which topology and budget
// validation reject.
type Scale int

// Canned scales.
const (
	// Tiny: p=4,a=4,h=2 — 9 groups, 36 routers, 144 nodes. Used by the
	// test suite and the quickstart example.
	Tiny Scale = iota
	// Small: p=4,a=8,h=4 — 33 groups, 264 routers, 1056 nodes, with the
	// paper's balanced proportions (a=2h, p=h). The default for
	// benchmarks and figure regeneration on a laptop.
	Small
	// Paper: p=8,a=16,h=8 — 129 groups, 2064 routers, 16512 nodes,
	// 31-port routers; the exact Table I system.
	Paper
)

// scaleNames holds each scale's name, as String prints and ParseScale reads it.
var scaleNames = [...]string{Tiny: "tiny", Small: "small", Paper: "paper"}

// String returns the scale's canonical name ("tiny", "small",
// "paper"), as ParseScale accepts.
func (s Scale) String() string {
	if s >= 0 && int(s) < len(scaleNames) {
		return scaleNames[s]
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale resolves a case-insensitive scale name.
func ParseScale(s string) (Scale, error) {
	if i := slices.Index(scaleNames[:], strings.ToLower(strings.TrimSpace(s))); i >= 0 {
		return Scale(i), nil
	}
	return 0, fmt.Errorf("sim: unknown scale %q (%s)", s, ScaleGrammar())
}

// ScaleGrammar lists the names ParseScale accepts, for help and error
// text.
func ScaleGrammar() string { return strings.Join(scaleNames[:], "|") }

// Params returns the topology parameters of a scale, or the zero Params
// (which topology.New rejects) for a value that is none of the three.
func (s Scale) Params() topology.Params {
	switch s {
	case Tiny:
		return topology.Params{P: 4, A: 4, H: 2}
	case Small:
		return topology.Params{P: 4, A: 8, H: 4}
	case Paper:
		return topology.Params{P: 8, A: 16, H: 8}
	}
	return topology.Params{}
}

// ScaledOptions returns Table I policy options with the contention
// thresholds rescaled to the topology following the paper's §VI-A
// analysis. Under saturated uniform traffic the mean contention counter
// approaches the mean VC count per input port, so the threshold must
// clear roughly twice that value to avoid false triggers (the paper's
// th=6 ≈ 2.2 × its 2.74 mean); below that, high-load uniform throughput
// collapses from spurious misrouting. The §VI-A injection-trigger bound
// (th ≤ p) cannot also hold on small-radix routers — the valid window
// is empty, as the paper notes when it observes that larger routers
// enlarge the range — so the uniform-safety bound wins and adversarial
// adaptation relies on queue backlog accumulating a few more heads.
// The ECtN combined threshold scales with the per-group injection width
// a·p (10 for the paper's 128).
func ScaledOptions(p topology.Params) routing.Options {
	o := routing.DefaultOptions()
	meanVCs := router.DefaultConfig(p).MeanVCsPerPort()
	th := int32(math.Round(2.2 * meanVCs))
	if th < 2 {
		th = 2
	}
	o.BaseTh = th
	o.HybridTh = th + 1
	comb := int32(math.Round(float64(p.A*p.P) * 10.0 / 128.0))
	if comb < 3 {
		comb = 3
	}
	o.CombinedTh = comb
	return o
}
