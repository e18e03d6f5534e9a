package router_test

import (
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
	"cbar/internal/topology"
)

// TestBuildAllocsDoNotGrowWithFabric: Build makes each per-router array
// kind once for the whole network (buildRouters), and so does every
// mechanism's Attach (ECtN's partial and combined arrays), so the Small
// fabric's 264 routers cost as many allocations as tiny's 36. A
// per-router or per-group make creeping back multiplies the count by the
// router or group count.
func TestBuildAllocsDoNotGrowWithFabric(t *testing.T) {
	for _, p := range []topology.Params{{P: 4, A: 4, H: 2}, {P: 4, A: 8, H: 4}} {
		cfg := router.DefaultConfig(p)
		for _, a := range routing.All() {
			c := cfg
			c.VCsLocal = max(c.VCsLocal, routing.RequiredLocalVCs(a))
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := router.Build(c, routing.MustNew(a, routing.DefaultOptions()), 1); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%+v %v: %d routers, %v allocations", p, a, topology.MustNew(p).Routers, allocs)
			if allocs >= 64 {
				t.Errorf("%+v %v: Build makes %v allocations, want under 64", p, a, allocs)
			}
		}
	}
}
