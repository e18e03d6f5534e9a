// Package allocfree exercises the allocfree analyzer: functions
// reachable from the hot-path root must not heap-allocate in steady
// state. The fixture config (allocfree_test.go) registers Engine.step as
// the hot root, Engine.audit as the reviewed cold boundary and
// Engine.ring as a pooled backing slice. A call through Algorithm
// reaches the method on every type whose method set has all of
// Algorithm's names.
package allocfree

import "fmt"

// Pkt is a freelist-managed packet.
type Pkt struct {
	id   int
	next *Pkt
}

// Algorithm is the hook surface the engine calls per packet.
type Algorithm interface {
	Route(e *Engine, p *Pkt) int
	OnHead(p *Pkt)
}

// Engine is the mini hot loop.
type Engine struct {
	ring  []*Pkt
	seen  []int
	free  *Pkt
	name  string
	count int
	alg   Algorithm
	keep  func(id int) bool
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
	e.audit()             // the cold boundary: audit's body is exempt
	_ = e.alg.Route(e, p) // reaches alg.Route and valiant.Route, not probe.Route
	e.alg.OnHead(p)       // reaches nopHooks.OnHead (promoted into alg) and valiant.OnHead
	_ = e.pickBelow(now)
	_ = e.pickAbove(now)
	e.keepBelow(now)
	e.spawnBelow(now)
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

// nopHooks is embedded for its no-op-looking OnHead.
type nopHooks struct{}

func (nopHooks) OnHead(p *Pkt) {
	_ = []int{p.id} // want `slice literal allocates`
}

// alg's Route is reached through the interface call in step.
type alg struct {
	nopHooks
	scratch []int
}

func (a *alg) Route(e *Engine, p *Pkt) int {
	a.scratch = append(a.scratch[:0], p.id) // ok: compaction reslice
	hops := []int{p.id}                     // want `slice literal allocates`
	return hops[0]
}

// valiant's Route is reached only through the interface call too. Cut
// down from a defect seeded in routing's VAL that no other check fails
// on: a scratch slice per injection decision, in a mechanism no gated
// benchmark row runs.
type valiant struct{}

func (valiant) Route(e *Engine, p *Pkt) int {
	tried := make([]int, 0, p.id) // want `make allocates`
	_ = tried
	return p.id
}

func (valiant) OnHead(p *Pkt) {}

// probe has a Route but no OnHead, so no Algorithm call reaches it.
type probe struct{}

func (probe) Route(e *Engine, p *Pkt) int {
	return len(make([]int, p.id)) // ok: not hot
}

// pickBelow passes its predicate down two calls that only call it, so
// the literal stays on the stack.
func (e *Engine) pickBelow(lim int) int {
	return e.pick(func(id int) bool { return id < lim }) // ok: does not escape
}

// pickAbove does the same through a local.
func (e *Engine) pickAbove(lim int) int {
	above := func(id int) bool { return id > lim } // ok: every use is a call or a non-escaping argument
	if above(lim + 1) {
		return e.pick(above)
	}
	return -1
}

func (e *Engine) pick(ok func(id int) bool) int { return first(e.seen, ok) }

func first(ids []int, ok func(id int) bool) int {
	for _, id := range ids {
		if ok == nil || ok(id) {
			return id
		}
	}
	return -1
}

// keepBelow hands its predicate to a callee that stores it: the literal
// escapes to the heap.
func (e *Engine) keepBelow(lim int) {
	e.store(func(id int) bool { return id < lim }) // want `function literal allocates`
}

func (e *Engine) store(ok func(id int) bool) { e.keep = ok }

// spawnBelow hands its predicate to a goroutine, which may outlive the
// frame even though first only calls it.
func (e *Engine) spawnBelow(lim int) {
	go first(e.seen, func(id int) bool { return id < lim }) // want `function literal allocates`
}
