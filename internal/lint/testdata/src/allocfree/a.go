// Package allocfree exercises the allocfree analyzer: functions
// reachable from a hot-path root must not heap-allocate in steady state.
// The fixture config (allocfree_test.go) registers Engine.step as the
// hot root, Route as a hot root method, Engine.audit as the reviewed
// cold boundary and Engine.ring as a pooled backing slice.
package allocfree

import "fmt"

// Pkt is a freelist-managed packet.
type Pkt struct {
	id   int
	next *Pkt
}

// Engine is the mini hot loop.
type Engine struct {
	ring  []*Pkt
	seen  []int
	free  *Pkt
	name  string
	count int
}

// step is the hot-path root.
func (e *Engine) step(now int) {
	if now < 0 {
		panic(fmt.Sprintf("negative cycle %d", now)) // ok: panic arguments are exempt
	}
	p := e.pop()
	*p = Pkt{id: now}                // ok: value overwrite through a freelist pointer
	e.ring = append(e.ring, p)       // ok: registered pooled slice
	tmp := e.seen[:0]                // compaction reslice: tmp reuses seen's capacity
	tmp = append(tmp, now)           // ok: compacted local
	e.seen = append(e.seen[:0], now) // ok: direct append onto a compaction reslice
	_ = tmp
	buf := make([]int, 4) // want `make allocates`
	_ = buf
	e.grow(now)
	e.audit() // the cold boundary: audit's body is exempt
}

// pop is hot via step; its warm-up miss is a reviewed escape hatch.
func (e *Engine) pop() *Pkt {
	p := e.free
	if p == nil {
		//lint:alloc freelist miss happens only during warm-up
		return new(Pkt) // ok: annotated with a reason
	}
	e.free = p.next
	return p
}

// grow is reachable from step, so every construct below is hot.
func (e *Engine) grow(now int) {
	e.count = e.count + 1 // ok: arithmetic, not allocation
	s := []int{now}       // want `slice literal allocates`
	m := map[int]int{}    // want `map literal allocates`
	q := new(Pkt)         // want `new allocates`
	q.id = s[0] + m[now]
	e.free = &Pkt{id: now}         // want `escaping composite literal`
	e.seen = append(e.seen, now)   // want `append onto a non-pooled slice`
	f := func() int { return now } // want `function literal allocates`
	_ = f
	e.describe("cycle", now)
}

// describe formats and boxes on the hot path.
func (e *Engine) describe(what string, v int) {
	e.name = what + "!" // want `string concatenation allocates`
	e.name += "."       // want `string concatenation allocates`
	e.sink(what, v)     // want `interface conversion boxes a non-pointer value`
	fmt.Println(e.name) // want `fmt\.Println allocates`
	// want+1 `//lint:alloc annotation without a reason`
	//lint:alloc
	e.seen = append(e.seen, v) // want `append onto a non-pooled slice`
}

// sink accepts anything; pointer-shaped arguments do not box.
func (e *Engine) sink(what string, v any) {
	if v == nil {
		e.name = what
	}
}

// audit is the registered cold path: invariant sweeps may allocate.
func (e *Engine) audit() {
	all := make(map[int]bool)
	for _, id := range e.seen {
		all[id] = true
	}
}

// idle is not hot; its annotation suppresses nothing and is stale.
func (e *Engine) idle() {
	// want+1 `stale //lint:alloc annotation`
	//lint:alloc believed to allocate, but does not
	e.count++
}

// alg's Route is a hot root by method name (HotPathMethods).
type alg struct{ scratch []int }

func (a *alg) Route(e *Engine, p *Pkt) int {
	a.scratch = append(a.scratch[:0], p.id) // ok: compaction reslice
	hops := []int{p.id}                     // want `slice literal allocates`
	return hops[0]
}

// valiant's Route is a hot root by method name too. Cut down from a
// defect seeded in routing's VAL that no other check fails on: a scratch
// slice per injection decision, in a mechanism no gated benchmark row
// runs.
type valiant struct{}

func (valiant) Route(e *Engine, p *Pkt) int {
	tried := make([]int, 0, p.id) // want `make allocates`
	_ = tried
	return p.id
}
