package traffic

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// arrivalHash draws every node's arrivals from a fresh source, node by
// node through First and Next, up to and including the first one at or
// past horizon, and hashes them with the arrival count (FNV-1a over
// little-endian (node, cycle) words; a node that falls silent hashes a
// -1 in place of its next arrival).
func arrivalHash(t *testing.T, spec SourceSpec, nodes int, q float64, horizon int64, seed uint64) (sum uint64, arrivals int) {
	t.Helper()
	src, err := newSource(spec, nodes, 8, q, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [16]byte
	put := func(n int, c int64) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(n))
		binary.LittleEndian.PutUint64(buf[8:], uint64(c))
		h.Write(buf[:])
	}
	for n := 0; n < nodes; n++ {
		c, ok := src.First(n)
		for ok && c < horizon {
			put(n, c)
			arrivals++
			c, ok = src.Next(n, c)
		}
		if !ok {
			c = -1
		}
		put(n, c)
	}
	return h.Sum64(), arrivals
}

// TestOnOffArrivalStreamPinned pins the on-off source's arrivals across
// commits: any change to how a node walks its phases must leave every
// arrival, and so every draw, where it was. The hashes were recorded
// before the silent-walk kernel existed, from the per-draw walk alone.
// The cases are the repo benchmark's idle point over all of Small's
// nodes (some 4 000 silent phase pairs per packet), each phase
// distribution saturated (OnMean 1, OFF mean 1: lengths drawn with no
// uniform), an OFF mean derived from a peak rate, and per-node weights
// with silent nodes among them.
func TestOnOffArrivalStreamPinned(t *testing.T) {
	weights := make([]float64, 64)
	for i := range weights {
		weights[i] = float64(i % 4) // every fourth node never injects
	}
	for _, tc := range []struct {
		name     string
		spec     SourceSpec
		nodes    int
		q        float64 // packets per node-cycle
		horizon  int64
		seed     uint64
		sum      uint64
		arrivals int
	}{
		{"small idle", SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, 1056, 1e-5 / 8, 2_000_000, 1, 0xcced87a9bf326dad, 2483},
		{"on mean 1", SourceSpec{Kind: OnOffArrivals, OnMean: 1, OffMean: 20}, 64, 0.01, 200_000, 3, 0x6efe268e70c6218b, 127645},
		{"off mean 1", SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 1}, 64, 0.001, 200_000, 5, 0x66f27b9a994ac3c0, 12917},
		{"peak-derived off", SourceSpec{Kind: OnOffArrivals, OnMean: 20, PeakLoad: 0.4}, 64, 0.001, 400_000, 7, 0xfd327452c0a2f126, 25693},
		{"weights with zeros", SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150, Weights: weights}, 64, 1e-4, 2_000_000, 9, 0x176c8962efb691fc, 12744},
	} {
		sum, arrivals := arrivalHash(t, tc.spec, tc.nodes, tc.q, tc.horizon, tc.seed)
		if sum != tc.sum || arrivals != tc.arrivals {
			t.Errorf("%s: %d arrivals hashing to %#016x, recorded %d and %#016x", tc.name, arrivals, sum, tc.arrivals, tc.sum)
		}
	}
}

// drawWalkFrom is nextFrom as it was before the silent-walk kernel:
// every phase length and gap drawn one at a time, up to budget ON
// phases.
func drawWalkFrom(s *onOffSource, n int, from int64, budget int) (t int64, ok bool) {
	st := &s.state[n]
	r := &s.rngs[n]
	gap := s.gapOn[n]
	if gap.Never() || !st.started {
		return 0, false
	}
	pos := from
	for walked := 0; walked < budget; walked++ {
		for !st.on || pos >= st.phaseEnd {
			pos = max(pos, st.phaseEnd)
			st.on = !st.on
			st.phaseEnd += s.phases.Len(st.on, r)
		}
		if k, below := gap.DrawBelow(r, st.phaseEnd-pos); below {
			return pos + int64(k), true
		}
		pos = st.phaseEnd
	}
	return 0, false
}

// TestSilentWalkMatchesDrawWalk: nextFrom, which hands silent stretches
// to rng.OnOff.Silent, against the per-draw walk on a twin source, call
// by call — the arrival, the node's phase state and its generator must
// match after each. At the benchmark's idle load and at 1e-3, and with
// budgets so small that most calls give up, which the next call resumes
// from the end of the last ON phase walked.
func TestSilentWalkMatchesDrawWalk(t *testing.T) {
	const nodes, calls = 16, 24
	for _, tc := range []struct {
		spec   SourceSpec
		load   float64
		budget int
	}{
		{SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, 1e-5, maxPhaseWalk},
		{SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, 1e-3, maxPhaseWalk},
		{SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, 1e-5, 40},
		{SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 150}, 1e-3, 2},
		{SourceSpec{Kind: OnOffArrivals, OnMean: 50, OffMean: 1}, 1e-3, 5},
	} {
		build := func() *onOffSource {
			src, err := newSource(tc.spec, nodes, 8, tc.load/8, 3)
			if err != nil {
				t.Fatal(err)
			}
			return src.(*onOffSource)
		}
		kernel, ref := build(), build()
		for n := 0; n < nodes; n++ {
			from := int64(0)
			for call := range calls {
				var got, want int64
				var gotOK, wantOK bool
				if call == 0 {
					got, gotOK = kernel.First(n)
					st, r := &ref.state[n], &ref.rngs[n] // First's prologue
					st.on, st.started = r.Bernoulli(ref.duty), true
					st.phaseEnd = ref.phases.Len(st.on, r)
					want, wantOK = drawWalkFrom(ref, n, 0, maxPhaseWalk)
				} else {
					got, gotOK = kernel.nextFrom(n, from, tc.budget)
					want, wantOK = drawWalkFrom(ref, n, from, tc.budget)
				}
				if got != want || gotOK != wantOK || kernel.state[n] != ref.state[n] || kernel.rngs[n] != ref.rngs[n] {
					t.Fatalf("%+v load %g budget %d node %d call %d from %d: (%d, %v) state %+v, per-draw walk (%d, %v) state %+v (generators equal: %v)",
						tc.spec, tc.load, tc.budget, n, call, from, got, gotOK, kernel.state[n], want, wantOK, ref.state[n], kernel.rngs[n] == ref.rngs[n])
				}
				if from = got + 1; !gotOK {
					from = kernel.state[n].phaseEnd
				}
			}
		}
	}
}
