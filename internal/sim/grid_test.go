package sim

import (
	"runtime"
	"slices"
	"testing"

	"cbar/internal/routing"
)

// TestGridDispatchHeaviestFirst pins the pool's start order and that it
// is not the result order. With one pool worker the tasks of a grid
// start in descending load, equal loads in grid order, a point's seeds
// adjacent and ascending; runGrid returns its results in grid order all
// the same.
func TestGridDispatchHeaviestFirst(t *testing.T) {
	loads := []float64{0.1, 0.5, 0.3, 0.5, 0.2}
	c := tinyCfg(routing.Min)
	// Asking every run for all the cores leaves the pool one worker.
	c.Router.Workers = runtime.GOMAXPROCS(0)
	pts := make([]gridPoint, len(loads))
	for i, l := range loads {
		pts[i] = gridPoint{c, UN(), l}
	}
	b := Budget{Warmup: 100, Measure: 100, Seeds: 3}
	var started []int
	err := forEachRun(pts, b, func(k int, c Config) error {
		started = append(started, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 4, 5, 9, 10, 11, 6, 7, 8, 12, 13, 14, 0, 1, 2}
	if !slices.Equal(started, want) {
		t.Fatalf("tasks started in order %v, want %v", started, want)
	}

	for i := range pts {
		pts[i].c.Router.Workers = 0
	}
	rs, err := runGrid(pts, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.Load != loads[i] || r.Seeds != b.Seeds {
			t.Fatalf("result %d is load %g over %d seeds, want load %g over %d", i, r.Load, r.Seeds, loads[i], b.Seeds)
		}
	}
	if rs[1] != rs[3] || rs[0].Accepted >= rs[4].Accepted {
		t.Fatalf("results are not their points': %+v", rs)
	}
}

// TestPlanWorkersCoreShare pins the cores a run may draw arrivals ahead
// on: its share of GOMAXPROCS among the runs that execute at once, so a
// grid as wide as the machine leaves every run one core (inline draws)
// and a lone run gets them all, whatever shard workers it asked for.
func TestPlanWorkersCoreShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs, requested, tasks    int
		perRun, taskWorkers, cores int
	}{
		{procs: 1, requested: 1, tasks: 1, perRun: 1, taskWorkers: 1, cores: 1},
		{procs: 2, requested: 1, tasks: 1, perRun: 1, taskWorkers: 2, cores: 2},
		{procs: 2, requested: 1, tasks: 2, perRun: 1, taskWorkers: 2, cores: 1},
		{procs: 2, requested: 0, tasks: 6, perRun: 1, taskWorkers: 2, cores: 1},
		{procs: 2, requested: 0, tasks: 1, perRun: 2, taskWorkers: 1, cores: 2},
		{procs: 4, requested: 1, tasks: 3, perRun: 1, taskWorkers: 4, cores: 1},
		{procs: 4, requested: 2, tasks: 1, perRun: 2, taskWorkers: 2, cores: 4},
		{procs: 4, requested: 3, tasks: 2, perRun: 3, taskWorkers: 1, cores: 4},
	} {
		runtime.GOMAXPROCS(tc.procs)
		perRun, taskWorkers, cores := planWorkers(tc.requested, tc.tasks)
		if perRun != tc.perRun || taskWorkers != tc.taskWorkers || cores != tc.cores {
			t.Errorf("GOMAXPROCS %d, %d workers asked, %d tasks: plan (%d, %d, %d), want (%d, %d, %d)",
				tc.procs, tc.requested, tc.tasks, perRun, taskWorkers, cores, tc.perRun, tc.taskWorkers, tc.cores)
		}
	}
}
