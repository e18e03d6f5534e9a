// Package rngpurity exercises the rngpurity analyzer: banned imports,
// wall-clock calls, and seeding whose arguments are not derived from
// (seed, entity id).
package rngpurity

import (
	"math/rand" // want `import of math/rand`
	"time"

	"cbar/internal/rng"
)

func badGlobalRand() int {
	return rand.Int()
}

func badWallClock() int64 {
	return time.Now().Unix() // want `call to time.Now`
}

func badElapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `call to time.Since`
}

func badSeed(x uint64) *rng.PCG {
	return rng.New(x, 1) // want `seed argument`
}

func goodSeedParam(seed, id uint64) *rng.PCG {
	return rng.New(seed, id)
}

func goodSeedArith(seed, id uint64) *rng.PCG {
	return rng.New(seed^0x9E3779B9, id+1)
}

type cfg struct {
	RandomSeed uint64
	nodes      uint64
}

func goodSeedField(c cfg) *rng.PCG {
	return rng.New(c.RandomSeed, c.nodes)
}

func goodSeedConst() *rng.PCG {
	return rng.New(12345, 0)
}

func goodStreamDerived(p *rng.PCG, id uint64) *rng.PCG {
	return rng.New(p.Uint64(), id)
}

func badStreamCall(seed uint64, pick func() uint64) *rng.PCG {
	return rng.New(seed, pick()) // want `stream argument`
}

// Seeding inside a map range is maprange's finding (the range itself);
// a loop over ordered ids seeds like any other code.
func goodSeedInOrderedLoop(seed uint64, live []int) []*rng.PCG {
	var out []*rng.PCG
	for _, id := range live {
		out = append(out, rng.New(seed, uint64(id)))
	}
	return out
}

func goodReseed(p *rng.PCG, seed, id uint64) {
	p.Seed(seed, id)
}

func badReseed(p *rng.PCG, x, id uint64) {
	p.Seed(x, id) // want `seed argument`
}

// Cut down from a defect seeded in sim's adaptive engine that no other
// check fails on: a measurement phase that also stops after ten
// wall-clock minutes, which no test run is long enough to reach.
func runPhase(capCycles int64, now func() int64, bucket func()) {
	start, wall := now(), time.Now() // want `call to time.Now`
	for now()-start < capCycles {
		bucket()
		if time.Since(wall) > 10*time.Minute { // want `call to time.Since`
			return
		}
	}
}
