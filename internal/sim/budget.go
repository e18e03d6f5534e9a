package sim

import (
	"context"
	"fmt"

	"cbar/internal/router"
	"cbar/internal/routing"
)

// Budget sizes an experiment run: simulation windows, repeats and the
// offered-load grid. The paper's evaluation (Table I scale) uses long
// windows and 10 repeats; scaled-down runs use proportionally smaller
// budgets so the full figure set regenerates in minutes on a laptop.
//
// With Adaptive set, the fixed steady-state windows become bounds of a
// statistically driven run instead: Warmup caps an MSER-detected warmup
// truncation, and measurement proceeds in bucket-sized chunks until the
// batch-means 95% confidence interval on mean latency and throughput is
// within 5% of the mean (or 4x Measure cycles are spent, or the
// saturation detector short-circuits the point; see adaptive.go).
// Adaptive == false is the default and reproduces the fixed-window
// results bit-identically.
type Budget struct {
	// Steady-state windows (cycles) and repeats.
	Warmup, Measure int64
	Seeds           int
	// Transient windows: warmup before the switch, trace extent before
	// (Pre) and after (Post / PostLong for the oscillation figures)
	// the switch, and the averaging bucket width, all in cycles.
	TransientWarmup int64
	Pre, Post       int64
	PostLong        int64
	Bucket          int64
	// Loads is the offered-load grid of the steady-state sweeps.
	Loads []float64
	// Workers is the per-run shard worker count threaded into every
	// simulation of the experiment (router.Config.Workers, through
	// config, like Congestion and Faults). 0 lets each entry point split
	// GOMAXPROCS between its grid and intra-run sharding automatically;
	// results are identical either way.
	Workers int
	// Congestion is threaded into every simulation of the experiment
	// (router.Config.Congestion). The zero value leaves congestion
	// management off, reproducing pre-congestion results bit-identically.
	Congestion router.CongestionConfig
	// Faults is threaded into every simulation of the experiment
	// (router.Config.Faults). The zero value leaves fault injection off,
	// reproducing pre-fault results bit-identically.
	Faults router.FaultConfig
	// Ctx, when non-nil, cancels a running experiment cooperatively: the
	// cycle loops check it every measurement bucket and the task pools
	// between tasks, so a cancelled sweep stops mid-run instead of
	// finishing its current point. Nil means never cancelled.
	Ctx context.Context

	// Adaptive switches steady-state measurement from the fixed
	// Warmup+Measure windows to the adaptive engine (MSER warmup
	// truncation, batch-means CI stopping rule, saturation
	// short-circuit). Transient experiments always use fixed windows.
	Adaptive bool
}

// DefaultBudget returns a budget tuned to the scale: the paper's windows
// at Paper scale, laptop-friendly ones below it, and the zero Budget
// (which validation rejects) for a value that is no canned scale.
func DefaultBudget(s Scale) Budget {
	switch s {
	case Tiny:
		return Budget{
			Warmup: 1200, Measure: 1200, Seeds: 3,
			TransientWarmup: 1200, Pre: 100, Post: 600, PostLong: 1600, Bucket: 20,
			Loads: []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		}
	case Small:
		return Budget{
			Warmup: 2500, Measure: 2500, Seeds: 3,
			TransientWarmup: 2000, Pre: 100, Post: 800, PostLong: 1600, Bucket: 20,
			Loads: []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		}
	case Paper: // §IV-B windows (warmup + 15k measured cycles, 10 repeats)
		return Budget{
			Warmup: 15000, Measure: 15000, Seeds: 10,
			TransientWarmup: 10000, Pre: 100, Post: 800, PostLong: 1600, Bucket: 10,
			Loads: []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		}
	}
	return Budget{}
}

// config returns the Table I configuration for (scale, mechanism) with
// the budget's Workers, Congestion and Faults threaded in. Every
// experiment builds its configs here, so none can drop a budget field.
func (b Budget) config(s Scale, algo routing.Algo) Config {
	c := NewConfig(s.Params(), algo)
	c.Router.Workers = b.Workers
	c.Router.Congestion = b.Congestion
	c.Router.Faults = b.Faults
	return c
}

// validateSteady rejects steady-state windows that would silently
// produce empty or skewed measurements: negative warmup, an empty
// measurement window and a non-positive repeat count.
func (b Budget) validateSteady() error {
	if b.Warmup < 0 {
		return fmt.Errorf("sim: warmup %d must be >= 0", b.Warmup)
	}
	if b.Measure < 1 {
		return fmt.Errorf("sim: measurement window %d must be >= 1 cycle", b.Measure)
	}
	if b.Seeds < 1 {
		return fmt.Errorf("sim: seeds %d must be >= 1", b.Seeds)
	}
	return nil
}

// validateTransient rejects transient windows that would silently
// produce empty or skewed traces: a bucket wider than the post-switch
// trace, a warmup shorter than the pre-switch trace (the trace would
// start before cycle 0), a non-positive bucket width or repeat count,
// and a negative pre-switch extent.
func (b Budget) validateTransient() error {
	if b.Seeds < 1 {
		return fmt.Errorf("sim: seeds %d must be >= 1", b.Seeds)
	}
	if b.Bucket < 1 {
		return fmt.Errorf("sim: trace bucket width %d must be >= 1 cycle", b.Bucket)
	}
	if b.Pre < 0 {
		return fmt.Errorf("sim: pre-switch trace extent %d must be >= 0", b.Pre)
	}
	if b.Post < b.Bucket {
		return fmt.Errorf("sim: bucket width %d exceeds post-switch trace extent %d", b.Bucket, b.Post)
	}
	if b.TransientWarmup < b.Pre {
		return fmt.Errorf("sim: transient warmup %d is shorter than the pre-switch trace extent %d", b.TransientWarmup, b.Pre)
	}
	if b.PostLong != 0 && b.PostLong < b.Bucket {
		return fmt.Errorf("sim: bucket width %d exceeds long post-switch trace extent %d", b.Bucket, b.PostLong)
	}
	return nil
}
