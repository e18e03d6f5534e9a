package sim

import (
	"cmp"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cbar/internal/router"
	"cbar/internal/routing"
)

// The zero-allocation audit. Steady-state stepping allocates nothing:
// that is what lets a Paper-scale sweep run, and it is checked here by
// running the driver, not by reading the code. Every allocation made
// while point.advance runs a measurement window is recorded with
// runtime.MemProfile at MemProfileRate 1, attributed to the first frame
// of this module on its stack (the allocating statement) and must be one
// of allowedAllocs. A run covers the driver, the window's callbacks, the
// standard-library calls and fault events; calls through interfaces and
// func-typed fields are followed because they are executed.

// allocSite is an allocating statement: the function it is in, as
// runtime.Frame names it, and its source text, trimmed. A site is never
// named by line number, so code moving within a file leaves it valid.
type allocSite struct{ fn, stmt string }

// allowedAllocs are the statements that may allocate in steady state.
// All but the last two are pooled growth: a buffer, freelist, chunk of
// fresh packets or batch of queue chunks (the one chunkPool statement
// serves NIC queues, calendar buckets and notices) that allocates only
// while its run's peak still rises and is reused, never reallocated,
// once the peak is reached, and a shard's batch of output stage rings,
// cut once per router, at its first output push. The last two are a
// forked cycle's fixed cost at workers > 1: a channel and the workers'
// goroutines. Every entry must allocate somewhere in the audit, so a
// stale one fails.
var allowedAllocs = []allocSite{
	{"cbar/internal/router.(*Network).handle", "sh.delivered = append(sh.delivered, ev.pkt)"},
	{"cbar/internal/router.(*Router).flagKill", "r.shard.pendingKills = append(r.shard.pendingKills, pendingKill{"},
	{"cbar/internal/router.(*Network).stepShard", "sh.allocList = append(sh.allocList, r)"},
	{"cbar/internal/router.(*Network).recycle", "sh.freePkts = append(sh.freePkts, p)"},
	{"cbar/internal/router.(*faultState).noteVictim", "f.killed = append(f.killed, p)"},
	{"cbar/internal/traffic.(*retransmitter).push", "rt.heap = append(rt.heap, e)"},
	{"cbar/internal/router.(*netShard).newPacket", "sh.pktChunk = make([]Packet, packetChunk)"},
	{"cbar/internal/router.(*Router).cutStages", "sh.stages = make([]outEntry, min(stageBatch, sh.uncut)*len(r.out)*k)"},
	{"cbar/internal/router.(*chunkPool[...]).grow", "hdrs, ents := make([]chunk[T], chunkBatch), make([]T, chunkBatch*int(p.size))"},
	{"cbar/internal/router.(*Network).forkShards", "f.resume = make(chan struct{})"},
	{"cbar/internal/router.(*Network).forkShards", "go func(sh *netShard, resume <-chan struct{}) {"},
}

// runtimeOwn are the runtime functions that allocate for the runtime's
// own bookkeeping, whatever the program does: a type-assertion or
// type-switch cache refill (Go refreshes one at random, about once in
// 1 024 calls; ElideHorizon's n.Alg.(CycleHorizon) is one), a sudog for
// a goroutine parked in sync.WaitGroup.Wait or a channel receive, and a
// goroutine descriptor, with its slot in the list of all goroutines,
// when the scheduler's free list is empty. An allocation with one of
// them on its stack is skipped.
var runtimeOwn = []string{
	"runtime.typeAssert",
	"runtime.interfaceSwitch",
	"runtime.acquireSudog",
	"runtime.malg",
	"runtime.allgadd",
}

// auditRow is one system the audit drives: warmup cycles unmeasured,
// then a window over the next measure cycles, whose allocations are
// audited.
type auditRow struct {
	name            string
	c               Config
	w               Workload
	load            float64
	warmup, measure int64
}

// auditFaults is a plan whose link and router failures and repairs fall
// inside the measured span of a tiny row, with retransmission, so fault
// events, kills and retries all run there.
const auditFaults = "linkdown:5,7@1200+routerdown:12@1300+linkup:5,7@1500+routerup:12@1700+retry:2"

// auditRows returns every mechanism under uniform, adversarial and
// bursty traffic, plain, with congestion management and with
// auditFaults, at workers 1 and, for uniform traffic, at workers 2, and
// under near-idle bursty traffic, where the driver elides quiet spans;
// every other destination pattern and arrival process of the traffic
// grammar once with Base; and the saturated Small MIN/ADV+1 point that
// TestParkingCutsRouteCalls runs. Runs draw bursty arrivals ahead on
// two cores, as the grid pool does.
func auditRows(t *testing.T) []auditRow {
	faults, err := router.ParseFaultConfig(auditFaults)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(spec string) Workload {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	traffic := []struct {
		w    Workload
		load float64
	}{{UN(), 0.3}, {ADV(1), 0.5}, {parse("un+burst:20,80"), 0.05}}
	var rows []auditRow
	for _, algo := range routing.All() {
		for i, tr := range traffic {
			for _, variant := range []string{"plain", "congestion", "faults"} {
				for _, workers := range []int{1, 2} {
					if workers == 2 && i != 0 {
						continue
					}
					c := NewConfig(Tiny.Params(), algo)
					c.Router.Workers, c.cores = workers, 2
					c.Router.Congestion.Enabled = variant == "congestion"
					if variant == "faults" {
						c.Router.Faults = faults
					}
					rows = append(rows, auditRow{
						name: fmt.Sprintf("%v/%s/%s/w%d", algo, tr.w.Name(), variant, workers),
						c:    c, w: tr.w, load: tr.load, warmup: 1000, measure: 1000,
					})
				}
			}
		}
	}
	idle := parse("un+burst:20,80")
	for _, algo := range routing.All() {
		c := NewConfig(Tiny.Params(), algo)
		c.Router.Workers, c.cores = 1, 2
		rows = append(rows, auditRow{name: fmt.Sprintf("%v/%s/idle", algo, idle.Name()), c: c, w: idle, load: 0.0005, warmup: 1000, measure: 3000})
	}
	for _, spec := range []string{"mix:0.5,1", "hotspot:0.2,8", "perm:shift+5", "perm:complement", "tornado", "un+skew:0.1,0.5"} {
		c := NewConfig(Tiny.Params(), routing.Base)
		c.Router.Workers, c.cores = 1, 2
		w := parse(spec)
		rows = append(rows, auditRow{name: "Base/" + w.Name(), c: c, w: w, load: 0.2, warmup: 1000, measure: 1000})
	}
	small := NewConfig(Small.Params(), routing.Min)
	small.Router.Workers = 1
	rows = append(rows, auditRow{name: "small/MIN/ADV+1", c: small, w: ADV(1), load: 0.4, warmup: 2000, measure: 1000})
	return rows
}

// TestSteadyStateAllocations drives every audit row's measurement
// window through point.advance and fails on any allocation there that
// is not an allowedAllocs statement, naming the function and statement
// that made it. It is exact, where testing.AllocsPerRun divides the
// count by the runs and reads 0 below one allocation per run.
func TestSteadyStateAllocations(t *testing.T) {
	allowed := make(map[allocSite]int64, len(allowedAllocs))
	for _, s := range allowedAllocs {
		allowed[s] = 0
	}
	src := sourceLines{}
	for _, r := range auditRows(t) {
		p, err := newPoint(r.c, r.w, r.load, 1, 2, r.warmup+r.measure)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if err := p.advance(nil, r.warmup); err != nil {
			t.Fatal(err)
		}
		win := p.open()
		sites := allocsDuring(t, src, func() {
			if err := p.advance(nil, r.warmup+r.measure); err != nil {
				t.Fatal(err)
			}
		})
		if win.count == 0 {
			t.Errorf("%s: nothing delivered in the measured span", r.name)
		}
		for _, s := range slices.SortedFunc(maps.Keys(sites), compareSites) {
			if _, ok := allowed[s]; ok {
				allowed[s] += sites[s].n
				continue
			}
			t.Errorf("%s: %d allocations in %s: %s (called from %s)", r.name, sites[s].n, s.fn, s.stmt, sites[s].via)
		}
	}
	for _, s := range allowedAllocs {
		if allowed[s] == 0 {
			t.Errorf("allowed site %s: %q allocated in no row: a stale entry", s.fn, s.stmt)
		}
	}
}

// allocs counts a site's allocations, with the module's functions that
// called it on one of their stacks, innermost first, up to the driver.
type allocs struct {
	n   int64
	via string
}

// allocsDuring runs span with every allocation profiled and returns the
// program's allocations during it, counted per site. Both snapshots are
// taken right after a full collection, which publishes every
// allocation made before it; the buffers are made before the first, so
// the span is all that lies between them. The profile keeps one record
// per stack and object size, so the counts are summed per stack.
func allocsDuring(t *testing.T, src sourceLines, span func()) map[allocSite]allocs {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var before, after []runtime.MemProfileRecord
	for n, ok := 1024, false; !ok; {
		before, after = make([]runtime.MemProfileRecord, 2*n), make([]runtime.MemProfileRecord, 2*n+1024)
		runtime.GC()
		n, ok = runtime.MemProfile(before, true)
		before = before[:min(n, len(before))]
	}
	span()
	runtime.GC()
	n, ok := runtime.MemProfile(after, true)
	if !ok {
		t.Fatalf("memory profile has %d records, the buffer %d", n, len(after))
	}
	prior := make(map[[32]uintptr]int64, len(before))
	for _, r := range before {
		prior[r.Stack0] += r.AllocObjects
	}
	total := make(map[[32]uintptr]int64, n)
	for _, r := range after[:n] {
		total[r.Stack0] += r.AllocObjects
	}
	sites := make(map[allocSite]allocs)
	for _, r := range after[:n] {
		if d := total[r.Stack0] - prior[r.Stack0]; d > 0 {
			prior[r.Stack0] = total[r.Stack0] // each stack counts once
			if s, via, ok := src.programSite(r.Stack()); ok {
				sites[s] = allocs{n: sites[s].n + d, via: cmp.Or(sites[s].via, via)}
			}
		}
	}
	return sites
}

// compareSites orders sites by function, then statement.
func compareSites(a, b allocSite) int {
	return cmp.Or(strings.Compare(a.fn, b.fn), strings.Compare(a.stmt, b.stmt))
}

// sourceLines caches the source files of attributed frames, by path.
type sourceLines map[string][]string

// programSite attributes an allocation's stack to its first frame in
// this module, and names the module's functions that called it up to the
// driver (point.advance) or a forked worker's start. ok is false for an
// allocation the runtime makes for itself (runtimeOwn), one on a stack
// with no frame of the module (the runtime's or the test framework's
// goroutines) and one made by a test file (the audit's own bookkeeping).
func (src sourceLines) programSite(stk []uintptr) (site allocSite, via string, ok bool) {
	var callers []string
	frames := runtime.CallersFrames(stk)
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		switch {
		case strings.HasSuffix(f.File, "_test.go") || f.Function == "cbar/internal/sim.(*point).advance":
			more = false
		case site.fn != "":
			if strings.HasPrefix(f.Function, "cbar/") {
				callers = append(callers, strings.TrimPrefix(f.Function, "cbar/internal/"))
			}
		case strings.HasPrefix(f.Function, "cbar/"):
			site = allocSite{fn: f.Function, stmt: src.line(f.File, f.Line)}
		case slices.Contains(runtimeOwn, f.Function):
			return allocSite{}, "", false
		}
	}
	return site, cmp.Or(strings.Join(callers, " < "), "the driver"), site.fn != ""
}

// line returns line n of a source file, trimmed, or the position when
// the file cannot be read.
func (src sourceLines) line(path string, n int) string {
	lines, ok := src[path]
	if !ok {
		if data, err := os.ReadFile(path); err == nil {
			lines = strings.Split(string(data), "\n")
		}
		src[path] = lines
	}
	if n < 1 || n > len(lines) {
		return fmt.Sprintf("%s:%d", path, n)
	}
	return strings.TrimSpace(lines[n-1])
}
