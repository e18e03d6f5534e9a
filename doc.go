// Package cbar is a cycle-level Dragonfly network simulator implementing
// Contention-Based Nonminimal Adaptive Routing, a reproduction of
// Fuentes, Vallejo, García, Beivide, Rodríguez, Minkenberg and Valero,
// "Contention-based Nonminimal Adaptive Routing in High-radix Networks",
// IEEE IPDPS 2015 (DOI 10.1109/IPDPS.2015.78).
//
// The library simulates canonical Dragonfly networks (palmtree global
// arrangement) with input/output-buffered virtual-cut-through routers,
// credit-based flow control, virtual channels and a separable batch
// allocator, and provides the seven routing mechanisms of the paper's
// evaluation: the oblivious MIN and VAL, the congestion-based adaptive
// baselines PB (PiggyBacking) and OLM (Opportunistic Local Misrouting),
// and the paper's three contention-based mechanisms Base, Hybrid and
// ECtN (Explicit Contention Notification).
//
// # Quick start
//
//	cfg := cbar.NewConfig(cbar.Tiny, cbar.Base)
//	res, err := cbar.RunSteady(cfg, cbar.Uniform(), 0.2, cbar.SteadyOptions{})
//	if err != nil { ... }
//	fmt.Printf("latency %.1f cycles, throughput %.3f phits/node/cycle\n",
//		res.AvgLatency, res.Accepted)
//
// Three experiment shapes cover the paper's evaluation: [RunSteady]
// (latency/throughput at one offered load), [Sweep] (a load grid in
// parallel) and [RunTransient] (traced response to a traffic-pattern
// switch). [RunExperiment] regenerates any of the paper's tables and
// figures by ID ([ExperimentIDs] enumerates them; `cbar figures` is the
// CLI front end). README.md collects the CLI surface and the
// workload/congestion/fault spec grammars in one place.
//
// All simulations are deterministic for a fixed configuration and seed;
// repeated seeds run on all available cores. A sweep flattens its whole
// load×seed grid through one bounded worker pool, and multi-seed
// percentiles come from merged latency histograms (exact cross-seed
// order statistics, with SteadyResult.OverflowFrac flagging saturated
// tails).
//
// # Public types
//
// Every concept has one declaration. The engine's own types are the
// public ones: [SteadyResult] and [TransientResult] alias
// internal/sim's result rows, [Congestion], [Faults], [FaultEvent] and
// [FaultKind] alias internal/router's configuration structs,
// [Algorithm] aliases internal/routing's mechanism enum and [Scale]
// internal/sim's, each with its constants re-exported under the public
// names (MIN ... BaseP, Tiny/Small/Paper, LinkDown ... RouterUp). An
// alias has no declaration of its own to print, so field-by-field
// documentation lives with the struct — `go doc
// cbar/internal/sim.SteadyResult`, `go doc
// cbar/internal/router.FaultConfig`, `go doc
// cbar/internal/router.CongestionConfig` — and cmd/docscheck holds
// those fields to the same every-exported-field-is-documented rule as
// the structs declared here. Only [Config] (Table I as flat fields over
// the engine's nested configuration) and the opaque [Traffic] are
// facade types with a translation behind them.
//
// # Measurement methodology
//
// Every measurement is one act, written once in internal/sim: one
// constructor builds the point (fabric, pattern schedule, injector),
// one driver (point.advance) moves it to the boundary its caller names,
// and one measurement window — a delivery accumulator plus a snapshot
// of the link-busy, congestion and fault counters taken when it opens —
// turns the span up to the cycle it closes into a [SteadyResult]. Fixed
// mode opens the window at Warmup, adaptive mode at its MSER boundary;
// a transient trace attaches a time-bucketing delivery observer in the
// window's place. Repeats and grids (sweeps, figure grids, ablations, a
// transient's seeds) run as one flat point×seed grid on one bounded
// worker pool.
//
// Steady-state measurement has two modes. The default fixed mode is
// the paper's §IV methodology: simulate [SteadyOptions].Warmup cycles
// unmeasured, record deliveries for Measure cycles, repeat over Seeds
// seeds (15000-cycle windows and 10 seeds at Paper scale). It is
// deterministic and bit-identical across releases — the golden CSVs
// under testdata/golden pin it — but it spends the same cycle budget
// whether a point converged in a fifth of the window or will never
// converge at all.
//
// Adaptive mode ([SteadyOptions].Adaptive, `cbar sweep` and `cbar figures`
// -adaptive) spends cycles only where the statistics demand them:
//
//   - Warmup truncation: the run streams per-bucket mean delivery
//     latency and ends warmup when the MSER rule (minimize the squared
//     standard error of the remaining batch means) places the
//     truncation point well inside the collected series. The fixed
//     Warmup acts as a cap, so adaptive warmup never exceeds it.
//   - CI-driven stopping: measurement proceeds in bucket-sized chunks,
//     maintaining batch-means 95% confidence intervals (fixed batch
//     count, growing batch size, so autocorrelation is absorbed as
//     batches widen) on mean latency and throughput; the run stops
//     when both relative half-widths drop below 5% or 4x Measure cycles
//     are spent (raised to the stopping rule's minimum series length,
//     1000 cycles). Both are fixed (internal/sim/adaptive.go): in
//     adaptive mode Measure does nothing but size that cap.
//   - Saturation short-circuit: a point past its saturation load never
//     converges — the in-flight population grows until the bounded NIC
//     queues fill, after which sources throttle. The detector watches
//     the backlog trend and the blocked-injection fraction over a
//     trailing window and bails out early, flagging the result.
//
// [SteadyResult] reports what was spent and decided: CIHalfLatency and
// CIHalfAccepted (95% half-widths), MeasuredCycles (total measured
// cycles across seeds), WarmupCycles (mean truncated warmup),
// Saturated and Converged. `cbar sweep -adaptive` appends them as CSV
// columns (ci_half_latency, measured_cycles, warmup_cycles, saturated,
// converged); fixed-mode CSV output is unchanged. Adaptive results are
// statistically equivalent but not bit-identical to fixed mode; use
// fixed windows when reproducing the paper's exact figures and
// adaptive mode when sweeping large grids for shape.
//
// # Workload catalog
//
// A [Traffic] value combines a destination pattern with an arrival
// process. The paper's §IV-B patterns:
//
//   - [Uniform] (UN): every packet targets a uniformly random other node.
//   - [Adversarial](i) (ADV+i): every node targets a random node in the
//     group i positions away, saturating one global link per group.
//   - [Mixed](f, i): per-packet blend of UN and ADV+i (Figure 6).
//
// The workload-engine patterns, modeling the regimes the congestion
// management literature evaluates adaptive routing under (hotspot and
// bursty congestion in Rocher-Gonzalez et al.; permutation/tornado
// workloads in Versaci's OutFlank routing):
//
//   - Hotspot(f, h): fraction f of all traffic aims at h hot nodes
//     spread evenly over the id space, the rest uniform — persistent
//     endpoint contention (storage targets, parameter servers).
//   - ShiftPermutation(k): fixed bijection dest = (src+k) mod N; single
//     persistent flows with no statistical smoothing.
//   - ComplementPermutation: fixed bijection dest = N-1-src, the
//     arbitrary-size analogue of bit-complement.
//   - Tornado: every node targets its own in-group position
//     floor(Groups/2) groups away — ADV-like global-link pressure as a
//     deterministic permutation.
//
// Arrival-process modifiers compose onto any pattern:
//
//   - WithBurst(on, off, peak): two-state Markov-modulated (on-off)
//     sources; geometric ON phases (mean `on` cycles) injecting at the
//     peak rate alternate with silent OFF phases (mean `off`). peak > 0
//     pins the ON-phase load and adapts the duty cycle; peak == 0 keeps
//     the duty cycle and derives the ON rate from the aggregate load.
//   - WithSkew(frac, share): heterogeneous per-node loads; frac of the
//     nodes carry share of the aggregate traffic.
//
// [ParseTraffic] reads the catalog as strings ("hotspot:0.2,8+burst:50,200")
// and [Traffic.Name] prints it in the canonical form ParseTraffic reads
// back. One table per spec kind drives both directions: trafficGrammar in
// internal/sim and, for [ParseFaults], faultGrammar in internal/router.
//
// Stateful sources keep their upcoming injection times on a calendar (a
// min-heap ordered by cycle, then node), so the per-cycle injection cost
// stays proportional to packets generated, not node count — the
// homogeneous Bernoulli case bypasses the calendar entirely on the
// original skip-sampling fast path, bit-identically. Each node draws its
// arrivals from its own stream; unthrottled, on a run given idle cores,
// the calendar is filled a window of arrivals ahead (see Performance
// architecture), otherwise it holds each node's next injection, drawn
// when the current one is injected.
//
// # Congestion management
//
// [Config].Congestion (cmd/cbar -congestion off|on, every subcommand;
// parsed by [ParseCongestion]) switches on a closed-loop
// congestion-control layer modeled on the ECN-style notification
// schemes of the congestion-management literature (Rocher-Gonzalez et
// al.). It is a switch, not a tuning surface: every parameter below is
// fixed, derived from the fabric configuration where it is latency- or
// capacity-relative. Four mechanisms compose:
//
//   - Marking: marking is a compare at grant. A packet granted through
//     an output port whose O(1) occupancy (the packet's own reservation
//     counted) exceeds 70% of its port class's occupancy cap carries a
//     congestion mark to delivery, like an ECN bit piggybacked on the
//     payload; ejection ports never mark (the threshold is set per
//     class in internal/router's newPortClass).
//   - Notification: a marked delivery queues a notification back to
//     the source, due LatencyLocal+LatencyGlobal cycles later
//     (router.Config.NotifyDelay, a worst-case one-way path) — the
//     signal travels at realistic link latency, it does not teleport.
//   - AIMD throttling: each notification halves the source NIC's
//     injection rate, floored at 10% of line rate, with a hold-off of
//     one notification delay absorbing the in-flight notification wave
//     of a single event; the rate recovers additively, 5 points per two
//     notification delays. The constants live beside their one user in
//     internal/traffic/throttle.go. A throttled node's injection
//     attempts are paced — calendar sources are deferred, not dropped;
//     Bernoulli attempts are suppressed at the source.
//   - Graceful degradation: a NIC backlog of NICQueuePackets/4 packets
//     (at least one, computed once by router.Build) sheds new packets
//     (counted in SteadyResult.Shed) instead of queueing them, so
//     source queues stay bounded under sustained overload.
//
// SteadyResult reports the loop's activity (Marked, Notified,
// Throttled, Shed); `cbar sweep` appends them as CSV columns behind
// -congestion. The layer preserves both determinism contracts: with
// congestion off every simulation is bit-identical to previous
// releases (the golden CSVs pin it), and with it on, results are
// bit-identical at every worker count — notifications are replayed at
// the cycle's sequential point in the order their packets were
// delivered, which no worker count changes (the OnNotify sequence is
// pinned by TestParallelCongestionEquivalence).
//
// # Fault model
//
// [Config].Faults (cmd/cbar -faults, every subcommand; specs parsed by
// [ParseFaults]) schedules a deterministic plan of fabric
// faults: explicit LinkDown/LinkUp and RouterDown/RouterUp events at
// fixed cycles, plus a random clause failing a percentage of the global
// cables at one cycle (expanded from its own seed at build time, so the
// same triple always fails the same cables). Events apply at the
// sequential point of Step — after the event barrier, before the
// routing algorithm's BeginCycle — so fault state, and everything
// downstream of it, is bit-identical at every worker count
// (TestParallelFaultEquivalence pins traces, drop order and counters at
// workers 1-4).
//
// A fault does three things. Liveness: the affected output ports on
// both ends of each failed link go dead, and routing filters every
// candidate set on one per-port flag — adaptive mechanisms treat a dead
// link exactly like an unattractive one and misroute around it, PB
// advertises a dead minimal channel as saturated, and a mechanism with
// no live policy-compliant choice falls back to a router-level escape
// that redirects through a random live transit port (a packet
// exhausting its escape budget is dropped). Kills: packets already
// committed to a failed link — staged, in the pipeline, serializing on
// the wire, or queued on a dead router — are removed and counted in
// SteadyResult.Dropped, with each kill reversing exactly the credit and
// grant accounting its location held, so CheckInvariants stays clean
// through any fault sequence. Reachability: a live-component map is
// recomputed per event; packets to a partitioned destination are
// counted Unroutable at injection (and in-flight ones at their next
// routing decision) instead of wandering a fabric with no path.
//
// Under faults, neither the ascending-VC ladder nor the escape budget
// guarantees progress. An escape, and the policy hops of a packet it
// detoured, take the ladder's VC, which caps at the class's top VC, so
// the channel dependency graph has cycles; a head blocked in such a
// cycle wins no grant, so it spends no escape and is never dropped. The
// ladder has cycles with faults off too (TestChannelDependencyAcyclic
// logs them): at three local VCs the destination-group hop after two
// global hops is capped to the VC an intermediate-group local misroute
// takes before its second global hop, and a VAL or PB path whose
// intermediate lies in the source group takes a second source-group hop
// on the first VC after a global hop. A progress watchdog is the planned
// backstop (ROADMAP 3(c)); a ladder and an escape that are acyclic by
// construction are the planned fix (ROADMAP 9(b)), which changes the
// golden streams and so waits for a statistical-equivalence gate
// (ROADMAP 8(a)).
//
// Faults.RetryLimit enables the optional source-side reaction:
// dropped packets are re-offered by the NIC up to the limit with
// exponential backoff (SteadyResult.Retried); the default mode is
// drop-and-count. With no plan scheduled the layer is bit-inert — the
// golden CSVs and TestFaultsOffIsInert pin that a zero Faults value,
// and even an armed plan before its first event, simulate every cycle
// bit-identically to a build without the layer.
//
// # Performance architecture
//
// The per-cycle cost of the simulator scales with traffic, not topology
// size. Network.Step services three active sets — NICs with backlog,
// routers with unrouted head packets and routers with staged output
// work — whose membership is updated at the mutation points (injection,
// event handling, allocation grants), so an idle component costs
// nothing. Delivered packets are recycled through per-shard freelists
// (below) and traffic generation skip-samples the next injecting node
// geometrically, so a steady-state cycle allocates no memory at all. The
// geometric draws go through rng.Geom, a distribution prepared once per
// probability (the injector's, each node's, the ON and OFF phase ends of
// a bursty source): the draw is the same inversion on the same operands
// as rng.PCG.Geometric, stream for stream, without a logarithm of the
// loop-invariant probability per draw — which a near-idle bursty run,
// walking silent phases, used to spend a fifth of its time on.
//
// Arrivals drawn ahead. An on-off source at near-idle load spends its
// time walking silent phases (some 4 000 ON/OFF pairs per packet at
// 1e-5), and that is the whole cost of a near-idle bursty run. Each node
// draws from its own stream, so without a congestion throttle its
// arrival times are a fixed sequence the fabric cannot change, and they
// can be drawn early without changing a draw. The grid pool gives each
// run its share of GOMAXPROCS (planWorkers: the cores over the runs that
// execute at once); when that share is two or more cores, the run's
// unthrottled calendar injector (Injector.DrawAhead) holds every arrival
// before a frontier, and when Cycle or NextArrival reaches the earliest
// arrival not on the calendar yet it draws the next window, ⌈1/q⌉ cycles
// at per-node packet probability q (about one arrival per node), calling
// the same Source.Next on each node's own state. Construction draws
// nothing, so the first window also draws every node's Source.First. The
// window's 64-node chunks are claimed from an atomic counter by the
// caller and by helper goroutines the fill starts, one per extra core,
// and the fill waits for them; the run's shard workers are idle then, as
// Cycle runs between Steps. Other runs keep drawing inline: every First
// at the first Cycle or NextArrival, then one arrival per pop. A
// throttled node's next arrival depends on the cycle the fabric admits
// the current one, so congestion-on runs cannot draw ahead. The caller
// hands over the cycle the run stops at where it knows one (the fixed
// windows' warmup + measure, the adaptive engine's cap, the transient's
// length), and a window that would cross it ends there, so a run drawn
// ahead makes exactly the inline path's draws: each node's arrivals
// before the end and one past it. On a single core (one core alone, or a
// grid as wide as the machine) drawing ahead saves nothing.
//
// Certified inversion. A sample is defined by one expression,
// Floor(Log(u)/log1p(-prob)), and rng.Geom evaluates it only when it
// must: the draw certifies what the expression would return and falls
// back to it when the certificate cannot decide, so the fast path never
// decides a value and every stream is the expression's, draw for draw,
// by construction. The certificate is an error bound. A table-driven
// logarithm (256 reciprocal/logarithm pairs and a four-term series, good
// to 2e-14) puts the quotient within a known distance of the exact one —
// that error over |log1p(-prob)| plus a few ulps of the quotient — and
// when no integer lies that close, both have the same floor; otherwise
// (a share of the draws twice that distance: 1e-10 for a phase length of
// mean 150, 2e-7 for a gap at probability 5e-6) the libm logarithm runs.
// A caller that only compares the sample with a
// bound asks Geom.DrawBelow, which consumes the same uniform and needs no
// logarithm at all to say "not below": for u = 1-f, -log(u) >= f, so
// f >= -log1p(-prob)*limit settles it. That is the on-off source's gap
// draw (an arrival every ~200 000 cycles against the ~50 left of the ON
// phase: 99.97 % of them at 1e-5 load), the Bernoulli injector's
// per-cycle certification in NextArrival and the draw that ends its
// node loop in Cycle. The fast logarithm need not be reproducible across
// platforms; the outcome is, because it is the exact expression's.
//
// Silent walk. Once one of an on-off node's ON phases comes up silent,
// what follows until its next arrival is a run of triples — an OFF
// phase's length, the next ON phase's length, and the gap draw against
// it — each three uniforms, six steps of the node's PCG. rng.OnOff.Silent
// walks them without the six-deep chain of multiplies: the LCG's
// jump-ahead identity says that j steps take a state s to
// A_j*s + inc*G_j (mod 2^64), with A_j = a^j and G_j the sum of a^t for
// t < j (Brown 1994), so all six outputs of a triple come from one state
// by independent multiplies. Both lengths are certified as above, with
// the division replaced by a multiply by the reciprocal of the phase's
// log1p(-prob), prepared once per source (Geom stays one float64), and
// one epsilon for quotients below 2^12: fastLog's error over
// |log1p(-prob)| plus 2^12 times the quotient's relative slack. What it
// cannot decide goes to the defining expression. The gap is screened on
// its high output word alone, which bounds the uniform from below, so
// the screen passing is DrawBelow's screen passing; the low word is
// permuted only for the rare gap that might land inside the ON phase.
// Every triple takes the draws the per-draw walk takes, in its order, so
// each node's stream, and every arrival, is the per-draw walk's by
// construction (TestSilentWalkMatchesDrawWalk, FuzzSilentWalk and
// arrival hashes recorded before the kernel existed pin it). A silent
// pair costs less than half what it did one draw at a time. A source
// whose OnMean or OFF mean is exactly 1 has a phase that always ends,
// drawn with no uniform, so it keeps the per-draw loop.
//
// On amd64 the walk takes eight triples per step while eight remain in
// its budget: an AVX-512 kernel (rng/silent_amd64.s) puts triple j of
// the next eight in lane j of a vector register, from the state 6j
// steps on, and computes each lane's six PCG outputs, both lengths'
// table logarithms (the 256-entry table read by gathers), their floors
// and certificates, and the gap's high-word screen, with the scalar
// loop's IEEE operations in its order and no fused multiply-add, so
// each lane's verdict is the scalar loop's bit for bit. It returns how
// many leading lanes passed all three and the cycles they cover; the
// scalar loop takes the triple that stopped it (a certificate that
// declined, or a gap that may land inside its ON phase) exactly as it
// always did, and the kernel resumes after it. A one-time CPUID and
// XGETBV check selects the kernel only where the CPU has AVX-512 F, DQ
// and VL and the OS saves the opmask and ZMM registers; on any other
// host or architecture (rng/silent_other.go) the scalar loop walks
// alone. Both paths make the same draws, which the tests hold by running
// each against the other (TestSilentKernelMatchesScalar, FuzzSilentWalk)
// and the kernel's lane verdicts against the scalar pieces at chosen
// certificate and screen boundaries. On a 2-core AVX-512 Xeon a silent
// pair costs 6–8 ns in the kernel against 22–35 ns in the scalar loop.
//
// The active sets. A set is one bit per id of its shard's range plus a
// population count (router/activeset.go). A phase scans the words in
// order and peels the set bits of each lowest first, which is the
// ascending-id order of the full scan — the order every equivalence
// test pins — with no list to keep sorted. A scan reads each word once,
// so the phase may drop the id it is visiting (a drained NIC, a router
// whose heads were all granted, a router that parks), and an add is
// never lost. (The sets used to be id lists sorted before each scan and
// compacted after it, with a rule that nothing be added between the
// two; the rule went with the lists.) The count includes entries that
// are stale until the next scan prunes them, and a non-zero count makes
// a cycle busy: the quiet-cycle test is unchanged.
//
// The same bitset is the router's own port-set type: the output ports
// with staged packets, the input ports with grantable requests this
// cycle and the output ports with candidates this allocation iteration
// are sets over [0, radix), and an output's nominating inputs are a row
// of a flat per-router bit matrix (ceil(radix/64) words per output, so
// no radix limit appears). The output arbiter's round-robin choice is a pure
// function of that row and the pointer — the lowest candidate above the
// pointer, else the lowest — and outputs are granted in ascending order;
// grants on distinct outputs of one router touch distinct inputs and
// ports, so the order among them changes no result.
//
// Head slots. What the route phase and the allocator need to know of an
// input VC — is there a head, has it been granted, what did it last
// request — is kept where the router looks, not behind port → VC →
// queue → *Packet. Every input (port, VC) pair has a slot, numbered
// port-major (inPort.slot0 + vc; 41 slots at Small, 85 at Paper; the way
// back is two small maps the Network keeps once, every router being laid
// out alike). The VC queues themselves sit in slot order (Router.vqs: a
// FIFO linked through its packets each, whose count against its slot's
// capacity is its free space — every packet is the same size), and each
// router holds four more things per slot: the head's packet ref
// (Router.heads, which is the queue's head: the queue keeps only its
// tail and count), the stored request (Router.req: output port,
// downstream VC, valid, fault-escape), a bit in the unroutedHeads
// set, which is the same bitset type again — set exactly while the VC
// has a head that awaits a grant — and a bit in the grantable set, set
// by the route phase when the request it just stored passes CanAccept
// (both sets' words are cut from one array). The three places a head
// changes keep them in step, eagerly: enqueue into an empty VC, dequeue
// (the next packet becomes head, its request empty, not grantable) and
// grant (bits dropped, request spent). The route phase peels the unrouted bits
// ascending, which is the port-major, VC-minor order of a walk over every
// port and VC — so head hooks fire, Route is called and the router's
// random stream is drawn from in that walk's exact sequence — and touches
// a packet only to route it: an empty VC or a granted head costs nothing.
// The allocator's input stage walks grantable bits, reads requests and
// CanAccept and never dereferences a packet; a valid request is by
// construction that of a present, ungranted head, which is why the grant
// and the dequeue must clear it (TestStaleRequestNeverNominated). There
// is one copy of each fact: the packet carries no request and no granted
// flag, the ports and the router no unrouted counters (the set's count is
// that number, and it has no stale members). The tests' oracle cycle,
// StepFullScan, visits every router but reads the same table.
// CheckInvariants audits the table against the queues, slot by slot — a
// grantable slot holds an unrouted head with a valid request and its
// port is in reqPorts, and every unrouted head whose request CanAccept
// admits is grantable — and replays parked heads against the stored
// requests. The group ids a decision compares are asked once, too:
// Router.Group at construction, the destination's group memoised on the
// packet (Router.DstGroup). The table costs about 700 bytes per Small
// router; it is paid for by what it made unnecessary or exposed — the
// per-port creditCap slices, 32-bit ring indices, 8-bit round-robin
// pointers — and by cutting each router's VC queues, then rings, and
// credit counters from one array per kind instead of some eighty, so a built
// fabric is ≈ 4 % smaller per node than before the table and ≈ 30 %
// quicker to construct.
//
// Each fact the configuration fixes is held once. Every packet is
// Config.PacketSize phits, so the fabric's phit arithmetic reads the one
// size the Network holds (Packet.Size stays for observers), and a
// calendar event carries no size (12 bytes, its packet a 4-byte ref).
// What every port of a class
// shares — link latency, a downstream VC's credit cap, the occupancy
// cap, the ECN mark threshold — is one portClass per PortKind, filled at
// Build, not a copy per output port. A VC queue sits in slot order with
// no phit counters and an input port is its VC count, upstream
// endpoint and first slot (12 bytes). Congestion notices, made and
// consumed at sequential points, wait in one network-wide FIFO instead
// of the sharded calendar. Together that is ≈ 10 % of a built fabric's
// bytes per node.
//
// Slabs. The fabric's shape is fixed by the configuration, so Build
// allocates each per-router array kind once for the whole network — the
// Router structs, ports, VC queues, head tables, credits, the slot and
// port sets' words, the allocator's arrays, the contention counters
// (core.CountersOver) and the PCGs, seeded in place — and cuts every router's share from it (Network.buildRouters); a
// group's member list is a window of Network.Routers. Building a Small
// network's 264 routers takes 34 allocations and tiny's 36 takes 31,
// where one set of arrays per router took 4 806 and 675
// (TestBuildAllocsDoNotGrowWithFabric holds it under 64), and each kind
// rounds up to its size class once instead of once per router:
// bytes_per_node fell 2–4 % (small_un_sweep 2 260 → 2 175). Every
// router lays out its VCs and ports alike, so what a VC or a port holds
// is a span of its router's rows, placed by network-wide tables, not a
// slice of its own: an output port holds the offset of its credit
// counters in the router's credit row and its stage's head over its
// entries of the router's stage row — 48 bytes, where the three slice
// headers made it 112 — and a VC queue was a 4-byte head and count over
// its slot's span of a ring row (32 with its slice header). Those headers
// were 840 KB of the 2.19 MB a built Small PB fabric holds; without them
// bytes_per_node fell 2 167 → 1 609 on small_un_sweep (−26 %). An output
// stage is a fixed ring of the max(BufOut/PacketSize, 1) entries
// outFree admits (4 at Table I), not a growing FIFO, and a router's
// stage row is cut at its first output push (Router.cutStages), not at
// Build: pre-sized there it would add ≈ 240 bytes per Small node, for
// routers a near-idle run never reaches. It comes from its shard's
// current batch, each batch the rows of the next 16 of the shard's
// routers still without one. ECtN's Attach cuts
// every router's partial array and every group's combined array from
// one array each (core.ECtNOver). A NIC queue, a calendar bucket and
// the congestion notices are one chunked FIFO type (router.chunkQueue),
// whose fixed-size chunks come from a LIFO pool — the shard's for NIC
// queues and buckets, the network's for the notices — that allocates a
// batch of chunks when it is empty and nothing at Build: a NIC holds
// one 16-record chunk per 16 records queued plus a partly read one, not
// a FIFO grown by doubling (sizing every NIC to NICQueuePackets at its
// first push would add ≈ 1.5 KB per node to a loaded run's resident
// set), and a saturated run stops allocating once its pools reach their
// peak. With the packet chunks below, one small_un_sweep pass allocates
// 55 objects per thousand cycles, where per-router arrays took 7 691,
// a NIC FIFO that grew from empty 1 125 and chunks of 64 packets 83.
//
// Allocation iterations nominate only what can be granted, and end at
// the first no-grant. The allocator runs Speedup iterations per cycle,
// iteration-major across the routers (the order grants append their
// events in is part of the determinism contract). Between a router's
// route phase and the end of its iterations, credits and output space
// only fall — every event that returns them is handled before the route
// phase, and a grant spends them — so a request CanAccept refused when
// the route phase stored it could not be nominated in any iteration of
// that cycle. The route phase therefore marks the admissible slots
// (grantable) and the ports holding one (reqPorts), a router with none
// takes no allocation turn at all, and the input stage walks a port's
// VCs in the same round-robin order testing grantable bits instead of
// reading every request. The first iteration trusts the route phase's
// verdict, since nothing has been granted since; a later one re-runs
// CanAccept on each slot it reaches and drops the ones a grant used up
// (TestLaterIterationRechecksAdmission), and a port left with nothing
// leaves reqPorts. Nominations, grants and event order are what the
// full request walk produced. Past saturation most stored requests are
// refused — on small_stress_mix about one in six passes CanAccept — so
// this removes most of the allocator's reads. A router whose iteration
// granted nothing nominated nothing, and everything a nomination reads —
// the round-robin pointers, credits, output space, the head slots'
// requests — moves only in a grant, so its remaining iterations of that
// cycle would be the same no-op and are skipped. The oracle keeps
// visiting every router in every iteration, so the equivalence tests run
// with the skip on one side only (TestAllocationSkipsOnlyNoOpIterations
// pins it from both sides).
//
// The event calendar. Between cycles, work in flight in the fabric lives
// on a calendar: per shard, one bucket per cycle of a ring sized to the
// maximum link+pipeline horizon (128 slots for Table I). A bucket is a
// chunkQueue: an event count and a chain of chunks of 56 12-byte events
// (704 bytes with the chunk's header) drawn from the shard's pool
// (router/calendar.go, router/queue.go). Scheduling appends at the tail
// chunk; event handling reads the chain front to back, and the fault
// sweep moves each bucket's survivors up in place in the order it read
// them, so events leave a bucket in exactly the order they were
// scheduled — the only ordering the engine relies on, and the same one
// a plain slice per bucket gave. A chunk goes back to the pool the
// moment it has been read and the pool is a stack, so the chunk the
// handlers' own new events need next is the one still in cache, and the
// memory a loaded run cycles through is its live events plus one partly
// filled chunk per occupied bucket (~0.41 MB for a Small network at UN
// 0.5, 1.22x the bytes of its live events) — not 128 slices each grown
// to its own peak and revisited a ring period later (~4 MB, over the
// L2). Chunks are allocated only when the pool is empty, which happens
// while the run's live-event peak is still rising and never at Network
// construction, 32 at a time (one of the growth statements the
// zero-allocation audit allows, like a chunk of the packet table); they come
// in fixed batches rather than from one slab grown by append because
// the slab's outgrown copies are garbage at exactly the moment the
// resident set peaks.
//
// NIC records. A packet waiting in its source's NIC queue has met no
// router: of a Packet's 80 bytes only its id, its generation cycle, its
// destination and its retransmission attempt are anything but initial
// values. The queue therefore holds that record (router.nicRec,
// 24 bytes, written by Inject, which assigns the id and the cycle
// exactly as before), and the Packet is made when the record drains
// into an injection VC — or when its router dies with it still queued,
// so OnDrop sees a whole packet either way. Past saturation every NIC
// holds its full 64-entry backlog, which was 64 pointers and 64 built
// packets per node (5.9 MB of a Small network); as records it is 1.6 MB,
// held in 2.2 MB of 16-record chunks (TestNICPoolSteadyState), and a packet taken off a LIFO freelist at the moment a router will
// read it is warm in cache where one built 64 queue slots earlier was
// not. The drain runs inside the parallel section, so the freelist is
// per shard: netShard.newPacket takes from the executing shard's, and
// Network.recycle (sequential points only: delivery replay, fault
// kills) returns a packet to the shard that owns its source node — the
// shard that made it — so each shard gets back what it takes and a
// steady-state cycle allocates nothing at any worker count; with one
// worker it is the single LIFO it always was. A miss does not allocate
// a packet: it takes the next fresh ref of the shard's newest chunk of
// the packet table (below), so a run's rising in-flight peak costs one
// allocation per 256 packets.
//
// Packets by reference. Packets live in one network-wide table of
// 256-packet chunks (Network.pkts), and everything the fabric stores
// names a packet by a 4-byte pktRef — ref>>8 the chunk, ref&255 the
// packet, the zero ref none (the table's chunk 0 is never made): the VC
// queues' rings (linked through the packets since, below) and the head
// table, output stage entries (8 bytes, were 16),
// calendar and mailbox events (12 bytes, were 16, so a 704-byte calendar
// chunk holds 56 where it held 42), the delivery, pending-kill and
// victim lists, and the freelists, which are ref stacks. Network.pkt
// resolves a ref in two dependent loads; the algorithm hooks,
// HeadPacket, OnDeliver and OnDrop still see *Packet, and a Packet
// carries its own ref in its tail padding (still 80 bytes). The rings
// were most of a built fabric, so bytes_per_node fell 1 609 → 1 143 on
// small_un_sweep (−29 %). The table grows only at a sequential point:
// at the handle barrier each shard's reserve — its freelist and its
// newest chunk's fresh refs — is topped up to one packet per NIC in its
// NIC set, a bound on the section's drains (Network.reservePackets), and
// netShard.newPacket, inside the section, never adds a chunk: it panics
// if the reserve is empty, as a stage overflow does. A chunk belongs to
// the shard that added it and its packets go back to that shard's
// freelist, so the table keeps every chunk it made: the packets a run
// retains are bounded by the fabric's peak occupancy plus the reserves,
// and a cap on the freelists could no longer release memory. The packet
// ledger in CheckInvariants holds every ref of the table to exactly one
// of live (at one place in the fabric), on its shard's freelist or in
// its fresh reserve, per shard, and every granted head to one
// tail-leave event.
//
// Linked VC queues. Table I gives a global input VC 256 phits, 32
// packets, and a VC mostly holds far fewer, so a ring per VC reserved
// slots that sat empty: 388 per Small router, ≈ 35 % of a built fabric's
// bytes. An input VC queue is instead a FIFO linked through its own
// packets (Packet.next, in padding: still 80 bytes). Its head is its
// slot's head table entry, so the queue itself is its tail ref and count
// (router.vcQueue, 8 bytes), and its capacity is one network-wide int16
// per slot (Network.slotCap), which nicDrain reads for free space and
// enqueue asserts. enqueue links a packet behind the tail, whose
// link it cleared on entry (resetQueueState); dequeue follows the head's
// link. bytes_per_node fell 1 143 → 763 on small_un_sweep (−33 %) with
// every digest unchanged. CheckInvariants walks each chain from its head,
// at most the slot's capacity, and checks that it holds the queue's count
// and ends at its tail; the packet ledger reads the chains.
//
// Blocked-router parking. Past saturation most head packets are blocked
// on credits, and re-evaluating them every cycle is work proportional
// to the backlog, not to what changes. A router therefore leaves the
// route set — parks — after a route/allocate visit that changed
// nothing: no head-of-queue hook fired, the router's random stream was
// not advanced, no fault kill was flagged and the allocator granted
// nothing. The head slots keep their stored requests. Every mutation that
// can alter a decision or its admissibility at the router wakes it
// before the next route phase: a head arrival, a tail departure, a
// credit return or an output-buffer free handled at the router, a NIC
// push into its injection buffers, any applied fault event or resolved
// kill, and a change to algorithm state shared beyond the router
// (Network.WakeGroup, which ECtN's combine calls for every group it
// recombines). A blocked head then costs one Route call per state
// change instead of one per cycle — under MIN at ADV+1 that is the
// difference between 200+ and a few dozen calls per grant — and a
// fabric whose heads are all blocked is quiet, so such spans are also
// open to elision and to Step's quiet-cycle shortcut. What makes
// this exact is the contract on Algorithm.Route (router/algorithm.go):
// a call that does not draw from the router's random stream must be
// idempotent and may read only the packet, the deciding router's own
// state and state whose every change wakes that router. Randomized
// re-sampling of a blocked head is untouched: the draw keeps the
// router in the set. The tests' oracle cycle visits every router every
// cycle (TestParkingEquivalence); CheckInvariants replays the decision
// of every parked head.
//
// The routing-algorithm layer keeps no per-cycle O(network) term either.
// Each output port's occupancy is a running counter updated at its three
// mutation points (allocation grant, credit return, output-buffer free),
// and policies read the O(1) occupancy where they decide: OLM and the
// hybrid compare it across candidate ports, PB's saturation flag is the
// occupancy of the minimal global link's owning router against a
// threshold, read inside the source decision (the piggybacked bit is,
// at every instant, exactly that comparison — there is no stored copy to
// maintain), and ECN marking is the same kind of compare at grant.
// ECtN's periodic group combine sums a group's partial arrays into the
// group's one combined array — the exchange is modeled as free and
// instantaneous, so there is nothing a per-router copy could hold that
// the group's array does not — and visits only the groups whose partial
// counters changed since their last exchange (a dirty flag per group,
// set by the counter mutations), so an idle period costs O(groups) flag
// reads and the clock may jump over it. Neither shortcut has a second
// mode beside it. The fabric's oracle is one explicit cycle,
// StepFullScan, declared in internal/router's export_test.go so that only
// tests can step it: the in-package equivalence tests, and the external
// router_test ones that step it against Step with the real mechanisms
// and workloads of internal/sim; ECtN's is its CheckState audit, which
// recomputes every group a combine would skip on each CheckInvariants.
// `go run ./cmd/bench` tracks the hot path's speed in BENCH_step.json.
//
// A single run can additionally be stepped by multiple cores
// (Config.Workers, cmd/cbar -workers): the network is
// partitioned into contiguous blocks of whole groups and each cycle runs
// its phases in parallel across the shards, with barriers between
// phases. Cross-shard effects — packets crossing global links, credit
// returns to upstream groups — travel through per-(source, target)
// mailboxes drained at the cycle barrier in ascending (shard, seq)
// order, and delivery callbacks are collected per shard and replayed at
// the handle barrier in ascending destination order. Every routing
// decision consults only the deciding router and its own group's
// broadcast state, and per-router RNG streams keep random choices
// shard-local, so stepping is cycle-for-cycle and bit-for-bit
// identical at every worker count (pinned by
// TestParallelStepEquivalence) — the -workers flag changes wall-clock
// time and nothing else. Sequential stepping is not a second stepper
// but the one-shard case of the same Step body: the caller is shard
// 0's worker, and with no other shard it forks no goroutine and has no
// mailbox to drain. The same holds cycle by cycle at any worker count:
// Step counts the shards with work (the quiet-cycle predicate, per
// shard), and with fewer than two it runs every shard's sections itself,
// in shard order — one of the schedules the fork could have produced, so
// nothing observable moves — instead of paying a goroutine round-trip
// per event of a near-idle fabric. At 0 workers sweeps split GOMAXPROCS
// automatically: wide load×seed grids parallelize across runs, narrow
// (paper-scale) grids shard inside each run. A negative count is an
// error.
//
// Dispatch order. Every sweep, figure grid and ablation is one flat
// (point × seed) grid on one bounded pool (internal/sim/grid.go), and
// the pool starts its tasks in descending offered load — equal loads in
// grid order, so one point's seeds stay adjacent. A latency–load curve is
// run to saturation and a point's cost rises with its load (a Small UN
// point costs five times as much at 0.5 as at 0.1, an OLM point under
// ADV+1 twelve times), so grid order, loads ascending, ended every sweep
// with the dearest point alone on one core while the others idled;
// started first, it overlaps the cheap ones. Load is the key because it
// is the cost driver known before anything has run, and it needs no
// cost model, option or estimate. Dispatch order is not result order:
// task k writes result slot k, so Sweep and the figure tables return
// their rows in the order the grid was given, and since every task is
// an independent simulation with its own seed, no result depends on
// when it ran. The heaviest points are also the largest — they are the
// ones whose NICs are backlogged — and starting them together would
// have raised a sweep's peak resident set by a third; the NIC record
// above is what that overlap is paid with.
//
// # Quiet-cycle elision
//
// Idle time costs events, not cycles. When a cycle is provably quiet —
// no fault event pending and, on every shard, an empty calendar bucket
// and empty active sets — nothing in the fabric can change until the next
// scheduled event, so the driver (internal/sim's point.advance, the
// one cycle loop every measurement runs through) jumps the clock
// straight to it instead of stepping through the gap. The jump target
// is the minimum of the next occupied calendar bucket, the next
// source-calendar injection, the next retransmit due-time, the next ECtN combine tick,
// the next fault event, and the boundary the driver was asked to
// advance to (warmup end, adaptive bucket end, end of a transient
// trace), so every measurement series keeps its exact geometry. That
// boundary is the only cap the driver adds: it polls its context on a
// cycle stride but never shortens a jump to do so.
//
// Elision is an optimization, never a semantic: an elided span consumes
// exactly the PRNG draws that stepping it would have, so results are
// bit-identical with elision on or off, at every worker count
// (TestElisionEquivalence and the golden CSVs pin it). For Bernoulli
// sources that means the skip-sampling geometric draw for a span is
// taken once, up front, and replayed when the clock reaches it; for
// calendar sources the next injection is a heap peek. Deep-idle regimes
// run at O(events) — the StepSmallElideIdle/StepPaperElideIdle entries
// in BENCH_step.json pin the win beside the per-cycle idle entries.
//
// New implementations join by answering two horizon queries:
//
//   - A routing algorithm answers the CycleHorizon interface
//     (internal/router): NextAlgCycle(n) returns the next cycle at
//     which its BeginCycle must observe the network, or NoPendingCycle
//     if it is purely reactive (driven entirely by packet events, like
//     the contention counters), or ok=false to veto elision outright
//     (no shipped mechanism does; a wrapper whose inner algorithm has no
//     horizon does). The purely reactive answer is the
//     default: router.NopHooks supplies it beside the no-op BeginCycle
//     it is the horizon of, so a policy that embeds NopHooks and gives
//     BeginCycle a body must override NextAlgCycle with it (ECtN is the
//     one shipped case), and one that does not implement the interface
//     at all is simply never elided. Returning a cycle earlier than
//     necessary is always safe; returning one later than the
//     algorithm's next observable action breaks bit-identity.
//   - A traffic source must answer Injector.NextArrival(limit): the
//     cycle of the first arrival at or before limit, or limit+1 if
//     there is none — and, critically, it must consume exactly the
//     random draws that per-cycle generation over the certified-empty
//     span would have consumed, so that stepping and jumping leave the
//     source streams in identical states.
//
// Network.ElideHorizon(target) composes the queries and the quiet
// check; Network.ElideTo(cycle) performs the jump. The horizon is
// conservative by construction: any doubt (non-quiet shard, vetoing
// algorithm, pending fault) falls back to plain stepping, which is
// always correct.
//
// # Determinism contracts
//
// Everything above rests on one promise: a (configuration, seed) pair
// produces bit-identical traces at every worker count and across
// commits. The dynamic guards — the equivalence tests, golden CSVs and
// CheckInvariants sweeps — catch a violation after it happens, on some
// input. The equivalence tests are tables over one differential harness
// in internal/router's external tests (harness_test.go): a row is a
// scenario, an arm the StepFullScan oracle or Step at some worker count
// with elision on or off, and two arms' records — callbacks in order,
// latency histogram, every counter, every router's random stream — must
// be equal. FuzzEngine draws rows from fuzzed bytes and holds one arm to
// the oracle (`go test -run=NONE -fuzz=FuzzEngine ./internal/router`).
// The source-level contracts below make violations build breaks
// instead. detlint (internal/lint, run as `go run ./cmd/detlint ./...`,
// a hard CI gate) enforces the ones a defect can break without any
// dynamic check failing — on a path no golden, benchmark row or
// multi-worker test runs — over the deterministic packages
// internal/{router,routing,sim,traffic,core,topology}. The others are
// held by the dynamic checks named with them:
//
//   - Iteration order (maprange): no `range` over a map, a map
//     iterator (maps.All, maps.Keys, maps.Values) or a channel.
//     Go randomizes map iteration order per run and a channel delivers
//     in its senders' scheduling order, so any such range whose visit
//     order can reach simulation state — counters, schedules, RNG
//     draws and stream seeding, float accumulation (float addition is
//     not associative: run-dependent low bits would poison the golden
//     CSVs), output rows — is a bug. Rejecting the range covers every
//     order-sensitive statement in its body at once, test files
//     included. There is no annotation to excuse a range — a
//     `//lint:ordered` comment exempts nothing, so no reason needs
//     vetting: iterate sorted keys (slices.Sorted(maps.Keys(m))) or
//     keep the data in a slice.
//   - RNG purity (rngpurity): no math/rand, no time.Now. Every random
//     decision draws from the per-entity PCG streams of internal/rng,
//     and every stream is seeded from (run seed, entity id) or split
//     off an existing stream — never from wall clock, process state or
//     a value whose derivation the analyzer cannot trace to a seed.
//   - Sequential points (dynamic): delivery and notification replay,
//     fault-event application, Alg.BeginCycle, Network.WakeGroup and
//     the outbox merge mutate cross-shard state with no
//     synchronization of their own, so Step calls them only at its
//     barriers (the caller coordinates, forked workers parked), and
//     internal/sim has one cycle loop, point.advance, with elideStep
//     its jump. A call moved into a parallel section changes the run
//     at some worker count, which the differential harness compares
//     (TestParallelStepEquivalence, TestParkingEquivalence,
//     TestAlgStateEquivalenceTransient and FuzzEngine's seeds, all in
//     tier-1) and the race job sees; a WakeGroup from a routing hook
//     adds Route calls, which the bench job's exact work-count gate
//     fails; a second elision path in the cycle loop moves the goldens.
//     A window fill's chunks run on helper goroutines, each through its
//     own nodes' Source state, and the calendar's (cycle, node) order
//     makes the pops, and so every injection and destination draw, the
//     same at any core count.
//   - Field encapsulation (dynamic): the accounting fields have one
//     writer each, or a few named where they are declared — port
//     occupancy only Router.occDelta, credit/output-buffer counters the
//     grant, the event handler and the fault kills' one unreserve,
//     active-set membership add/drop/clear, the head table
//     enqueue/dequeue; Router.parked is set only by stepShard's park
//     pass and cleared only by Router.wake, so the documented wake set
//     is the whole wake set. CheckInvariants audits the result —
//     occupancy against a recompute, the head table slot by slot
//     against the queues, the route set against the parked flags, each
//     parked head's decision replayed — and the harness and the router
//     tests run it, so a stray writer that computes a different value
//     fails tier-1; one that computes the same value changes nothing.
//   - The Route contract (dynamic, not a detlint rule): parking is
//     bit-identical to visiting every router every cycle only while
//     every Algorithm.Route honours the idempotence-and-inputs rule of
//     router/algorithm.go. It is pinned per mechanism by
//     TestParkingEquivalence against the tests' StepFullScan oracle at
//     workers 1/2/4 with elision on and off, and audited at run time by
//     CheckInvariants, which re-decides every parked head on a copy
//     and requires the stored request back with the random stream
//     untouched.
//   - Shard isolation (dynamic): within a parallel section every write
//     targets state the executing shard owns — its own routers, NICs
//     and calendar, reached from the worker's shard — and cross-shard
//     effects travel only through scheduleFrom's per-(src,dst) mailbox
//     and GroupDirty.Mark, which writes the marking group's own flag
//     byte. A write that reaches another shard (through a packet's
//     destination, a port's upstream coordinates, the Network's
//     counters) either changes the run, which the differential harness
//     fails at workers 2–4, or races with the owning shard, which the
//     race job (go test -race ./...) reports on the same tables.
//     Cross-router reads need an argument: PB reads the occupancy of
//     another router of its own group, which shares its shard and does
//     not move during the route phase.
//   - Steady-state allocation freedom (dynamic): internal/sim's
//     TestSteadyStateAllocations drives point.advance with a
//     measurement window open over every mechanism × {UN 0.3, ADV+1
//     0.5, UN+burst 0.05} × {plain, congestion on, a fault plan whose
//     link and router failures and repairs fall inside the window}, at
//     workers 1 and, for UN, 2, plus the traffic grammar's other
//     patterns and arrival processes and a saturated Small point. It
//     records every allocation there with runtime.MemProfile at
//     MemProfileRate 1, attributes each to its allocating statement
//     (the first frame of this module on its stack) and fails on any
//     statement outside one table in the test: the pooled growth of
//     the engine's buffers, freelists, packet chunks and queue-chunk
//     batches (their allocations stop once a run's peak is reached), the
//     batches output stage rings are cut from at routers' first output
//     pushes, and a forked cycle's
//     channel and worker
//     goroutines at workers > 1, each named by function and statement
//     text. Allocations the runtime makes for itself (type-assertion
//     cache refills, sudogs, goroutine descriptors) are skipped. Being
//     run, it follows what a call graph does not: interface and
//     func-typed-field calls (Network.OnDeliver reaches sim's window),
//     standard-library calls and fault events. Its seeds in CI's lint
//     job are allocations planted in VAL's Route, applyFaults,
//     uniform.Dest, Step (the invariant audit), PickPort (a stored
//     predicate), window.deliver and applyFaultEvent.
//
// detlint loads the way `go vet` does: go list compiles every matched
// package, so a compile error anywhere is a load error, and each
// deterministic package is type-checked from source once, test files
// included, with every import read from compiler export data. An
// external test package is checked the way the go tool builds it: a
// module package it imports that depends on the package under test is
// that package's test variant, recompiled against the with-tests
// package, so a router_test file may step a network that internal/sim
// built with a method declared in export_test.go.
//
// The registry of contracts lives in lint.DefaultConfig; new
// deterministic packages (e.g. additional topology backends) join by
// adding their import path. A topology backend that
// delivers across shards by a new path adds equivalence-table rows at
// workers 2–4, which is what the race job and the harness check.
package cbar
