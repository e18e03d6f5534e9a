package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"cbar/internal/stats"
)

// The grid pool: every repeated measurement — load sweeps, the figure
// grids, the ablations, the transient's seeds — is a flat (point × seed)
// task grid run on one bounded worker pool, never a pool per point, so
// nested parallelism cannot multiply into more than GOMAXPROCS
// concurrently-simulated networks. A grid at least GOMAXPROCS wide runs
// every simulation sequentially (grid parallelism already saturates the
// machine); a narrower one — the common paper-scale case: few loads,
// few seeds — hands the idle cores to each run as shard workers
// (router.Config.Workers; results are cycle-for-cycle identical at any
// worker count).
//
// Tasks are started in descending offered load, not in index order. A
// latency–load sweep runs to saturation and a point's cost grows with
// its load (more packets in flight per simulated cycle, and past
// saturation the blocked heads besides), so index order — loads
// ascending — ends every sweep with its dearest point alone on one core;
// started first, it runs beside the cheap ones. Load is the key because
// it is the one cost driver known before a point has run and the one
// every grid has; it needs no cost model. Only the start order changes:
// task k still writes result slot k, so results come back in grid order.
// What pays for holding the heaviest networks at the same time is in
// router/network.go (nicRec).

// gridPoint is one operating point of a measurement grid.
type gridPoint struct {
	c    Config
	w    Workload
	load float64
}

// runGrid measures every point of a grid, b.Seeds repeats each, under
// the budget's measurement mode — the fixed-window steadySeed or the
// adaptive engine — and reduces each point's seeds to one result; the
// returned slice is ordered like pts, whatever order the pool started
// the points in (forEachRun: heaviest load first).
func runGrid(pts []gridPoint, b Budget) ([]SteadyResult, error) {
	if err := b.validateSteady(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("sim: empty load grid")
	}
	results := make([]SteadyResult, len(pts)*b.Seeds)
	hists := make([]*stats.Histogram, len(results))
	err := forEachRun(pts, b, func(k int, c Config) error {
		pt, seed := pts[k/b.Seeds], seedFor(k%b.Seeds)
		var err error
		if b.Adaptive {
			results[k], hists[k], err = adaptiveSeed(c, pt.w, pt.load, b, seed)
		} else {
			results[k], hists[k], err = steadySeed(b.Ctx, c, pt.w, pt.load, b.Warmup, b.Measure, seed)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]SteadyResult, len(pts))
	for i := range pts {
		out[i] = reduceSteady(results[i*b.Seeds:(i+1)*b.Seeds], hists[i*b.Seeds:(i+1)*b.Seeds])
	}
	return out, nil
}

// forEachRun calls f once per (point, seed) of a non-empty grid — task k
// is repeat k%b.Seeds of point k/b.Seeds — handing f the point's config
// with the planned shard-worker count, and polls b.Ctx between tasks.
// Tasks start in descending load, ties in index order, so a point's
// seeds stay adjacent and ascending; k names the result slot, not the
// start position. An explicit worker request in a point's config is
// respected instead of the automatic split, a negative one is an error;
// auto mode keeps the whole grid sequential if any point is not
// router.Config.Shardable (an explicit Workers > 1 request still
// surfaces Build's error: the caller asked for the impossible).
func forEachRun(pts []gridPoint, b Budget, f func(k int, c Config) error) error {
	requested := 0
	for _, pt := range pts {
		w := pt.c.Router.Workers
		if w < 0 {
			return fmt.Errorf("sim: workers %d must be >= 0 (0 = auto)", w)
		}
		if w == 0 && !pt.c.Router.Shardable() {
			w = 1
		}
		requested = max(requested, w)
	}
	tasks := len(pts) * b.Seeds
	order := make([]int, tasks)
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(j, k int) int {
		return cmp.Compare(pts[k/b.Seeds].load, pts[j/b.Seeds].load)
	})
	perRun, taskWorkers, cores := planWorkers(requested, tasks)
	return forEachTaskN(tasks, taskWorkers, func(i int) error {
		if err := ctxErr(b.Ctx); err != nil {
			return err
		}
		k := order[i]
		c := pts[k/b.Seeds].c
		c.Router.Workers, c.cores = perRun, cores
		return f(k, c)
	})
}

// planWorkers splits GOMAXPROCS between grid tasks and intra-run shard
// workers. An explicit requested count (> 0) is honored up to
// GOMAXPROCS — the pool never oversubscribes the machine, so a -workers
// request beyond the core count is clamped (unlike a direct
// BuildNetwork, which takes the config verbatim); the task pool is then
// sized so tasks × per-run workers never exceeds GOMAXPROCS. cores is
// each run's share of the machine: GOMAXPROCS over the runs that execute
// at once, at least perRun. A run may use the cores beyond its shard
// workers — and those, idle between Steps — for drawing its arrivals
// ahead (traffic.Injector.DrawAhead); a grid as wide as the machine
// leaves each run one core, and so draws inline.
func planWorkers(requested, tasks int) (perRun, taskWorkers, cores int) {
	maxProcs := runtime.GOMAXPROCS(0)
	perRun = requested
	if perRun <= 0 {
		perRun = max(1, maxProcs/tasks)
	}
	perRun = min(perRun, maxProcs)
	taskWorkers = maxProcs / perRun
	return perRun, taskWorkers, maxProcs / min(tasks, taskWorkers)
}

// forEachTaskN runs f(0..n-1) on up to `workers` goroutines and returns
// the first error. A panicking task is recovered in its worker and
// converted to an error carrying the panic value and stack, which —
// like any task error — cancels the tasks not yet started and is
// returned to the caller; sibling workers finish their current task and
// exit rather than wedging mid-sweep.
func forEachTaskN(n, workers int, f func(i int) error) error {
	workers = max(1, min(workers, n))
	run := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("sim: task %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		return f(i)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		ferr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				bad := ferr != nil
				mu.Unlock()
				if bad || i >= n {
					return
				}
				if err := run(i); err != nil {
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return ferr
}
