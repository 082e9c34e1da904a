// Package engine runs a machine's cycle loop in parallel by spatially
// sharding the 3-D mesh across host goroutines.
//
// Each shard owns a contiguous slab of node ids — their routers,
// processors, memories, and queues — and steps them concurrently with
// the other shards. The J-Machine's mesh has a conservative lookahead
// of one cycle (a phit injected at cycle t cannot reach a neighbouring
// router before t+1), so shards only need to exchange boundary phits
// and cross-shard hook events at a per-cycle rendezvous, and the
// result is byte-identical to the sequential reference loop: same
// cycle counts, same statistics, same watchdog and chaos behaviour.
//
// Cycles are epoch-batched: the engine tracks per-shard activity — the
// network's active-router count (ShardRun.Load), live node counts and
// parked wake times from the event-horizon scheduler — and while
// the machine's work is localized or small, the coordinator steps just
// the active slabs inline through the same staged phase protocol,
// touching no barrier at all. The worker fleet (one rendezvous per
// cycle) is engaged only when at least two shards are active and the
// total work clears a fixed threshold. An epoch is a maximal run of
// barrier-free inline cycles; on mostly-idle meshes (a token ring, a
// pingpong pair) epochs span the whole run and the rendezvous count
// drops to ~0. See docs/ENGINE.md for the determinism argument and
// the phase protocol.
//
// Usage (normally through sim.Config.Attach, which attaches the engine
// last — docs/ENGINE.md, "Run configuration"):
//
//	eng := Attach(m, shards)  // replaces m's cycle stepper
//	defer eng.Stop()                // release the worker goroutines
//	m.RunUntilHalt(0, budget)       // all run loops work unchanged
package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"jmachine/internal/machine"
	"jmachine/internal/network"
)

// parallelWork is the work estimate (live nodes + active routers)
// above which a multi-shard cycle is worth a
// worker rendezvous. Below it the coordinator steps the active slabs
// inline: a three-barrier rendezvous costs on the order of a few dozen
// node steps, so tiny cycles are cheaper single-threaded. It is a
// variable only so export_test.go can force the fleet on small meshes;
// an engine reads it once, at Attach.
var parallelWork int64 = 64

// Engine steps a machine with one goroutine per shard. The goroutine
// calling Machine.Step acts as shard 0's worker and coordinates the
// per-cycle phases; shards 1..n-1 run on persistent workers that park
// between cycles.
type Engine struct {
	m            *machine.Machine
	sr           *network.ShardRun
	parallelWork int64

	start   []chan struct{} // per-worker cycle release, workers 1..n-1
	done    chan struct{}   // one token per finished worker per cycle
	quit    chan struct{}
	bar     spinBarrier
	panics  []atomic.Value // per-shard panic capture
	stopped bool

	// skipNet, decided by the coordinator each cycle before the workers
	// are released (the release channel send publishes it), elides the
	// network phases while the mesh is empty: stepping an empty mesh
	// touches nothing, so snapshot/step/commit and their barriers are
	// pure overhead. Shares the machine's event-horizon gate so a
	// reference-mode machine keeps the full phase protocol.
	skipNet bool

	// Per-shard activity cache for epoch batching. live and minWake
	// come from the node-phase sweep (StepNodeRangeInfo) of whichever
	// cycle last stepped the shard — each worker writes only its own
	// slot, ordered before the coordinator's read by the done-channel
	// drain. seq is the machine WakeSeq generation the cache reflects;
	// when the machine reports out-of-band changes (host injection,
	// chaos, restore) the cache is rebuilt from NodeActivity. The
	// network side needs no cache: Load reads the network's own active
	// set, which every injection and restore already maintains.
	live     []int
	minWake  []int64
	isActive []bool
	active   []int // scratch: this cycle's active shard ids
	seq      uint64
	scanned  bool

	// rendezvous counts the cycles that engaged the worker fleet. It is
	// a pure function of simulated state and shard count — never of
	// host speed or core count — so tests can pin it exactly.
	rendezvous int64
}

// Attach partitions m across shards goroutines and installs the
// parallel stepper. The count is clamped to the node count. With an
// effective count of 1 or less no stepper is installed and the machine
// keeps its sequential loop — the returned Engine is then a no-op whose
// Stop still works, so callers need no special casing.
//
// The protocol follows the machine's observed stepping mode: while the
// event-horizon fast path is active (the default) cycles are
// epoch-batched; on a reference-mode or pinned machine
// (!m.FastPathActive()) every node steps every cycle, so every cycle
// engages the worker fleet — the per-cycle protocol, which together
// with the literal loop is the oracle the equivalence suites compare
// against.
func Attach(m *machine.Machine, shards int) *Engine {
	if shards > m.NumNodes() {
		shards = m.NumNodes()
	}
	if shards <= 1 {
		return &Engine{m: m}
	}
	e := &Engine{
		m:            m,
		sr:           network.NewShardRun(m.Net, shards),
		parallelWork: parallelWork,
		done:         make(chan struct{}, shards),
		quit:         make(chan struct{}),
		panics:       make([]atomic.Value, shards),
	}
	n := e.sr.Shards()
	e.bar.init(n)
	e.start = make([]chan struct{}, n)
	e.live = make([]int, n)
	e.minWake = make([]int64, n)
	e.isActive = make([]bool, n)
	e.active = make([]int, 0, n)
	for w := 1; w < n; w++ {
		e.start[w] = make(chan struct{}, 1)
		go e.worker(w)
	}
	m.SetStepper(e)
	return e
}

// Shards returns the effective shard count (1 = sequential).
func (e *Engine) Shards() int {
	if e.sr == nil {
		return 1
	}
	return e.sr.Shards()
}

// Rendezvous returns how many cycles have engaged the worker-fleet
// barrier protocol since Attach. Epoch-batched inline cycles cost none;
// on a reference-mode machine every cycle counts one. The value depends
// only on simulated state and the shard count — never on host
// speed or core count — so it is comparable across machines and is the
// measure of synchronization cost the tests pin. Nil-safe; a
// sequential engine reports 0.
func (e *Engine) Rendezvous() int64 {
	if e == nil {
		return 0
	}
	return e.rendezvous
}

// Stop restores the machine's sequential stepper and releases the
// worker goroutines. Safe to call once the run loops have returned;
// idempotent and nil-safe (a sequential run may never have built an
// engine).
func (e *Engine) Stop() {
	if e == nil || e.sr == nil || e.stopped {
		return
	}
	e.stopped = true
	e.m.SetStepper(nil)
	close(e.quit)
}

// StepCycle advances network and nodes one cycle. The machine has
// already advanced its cycle counter and run the cycle hooks (chaos
// injection, reliable-delivery timers) on this goroutine.
func (e *Engine) StepCycle(m *machine.Machine) {
	if e.sr == nil {
		panic("engine: StepCycle on a stopped or sequential engine")
	}
	if !m.FastPathActive() {
		// Reference loop (or a pinned machine): nothing parks and no
		// phase is elided, so there is no activity to classify.
		e.stepParallel(m)
		return
	}
	if !e.scanned || m.WakeSeq() != e.seq {
		e.rescan(m)
	}
	// Classify shard activity for this cycle. A shard is active iff one
	// of its routers holds a buffered phit or a queued outbox message, or
	// its slab has live (unparked or wake-pending) nodes, or a parked
	// node's wake cycle has come due. An inactive shard's network phase
	// and node phase are both no-ops, so skipping it is exact.
	cyc := m.Cycle()
	n := e.sr.Shards()
	e.active = e.active[:0]
	work := int64(0)
	for s := 0; s < n; s++ {
		load := e.sr.Load(s)
		on := load > 0 || e.live[s] > 0 || e.minWake[s] <= cyc
		e.isActive[s] = on
		if on {
			e.active = append(e.active, s)
			work += int64(e.live[s]) + load
		}
	}
	if len(e.active) >= 2 && work >= e.parallelWork {
		e.stepParallel(m)
		return
	}
	e.stepInline(m)
}

// stepInline advances one cycle on the coordinator alone: the same
// staged phases as the parallel protocol (snapshot, step, commit,
// quiet certification, node phase), serialized over just the active
// shards, with zero barriers. Every shard's boundary buffers are still
// snapshotted — an active shard's staged push into an idle neighbour
// reads that buffer's frozen occupancy — but only active slabs step,
// which is exact: an idle slab's routers all hit the empty fast path
// and its parked nodes are all before their wake cycles.
func (e *Engine) stepInline(m *machine.Machine) {
	e.sr.Begin()
	seq0 := m.WakeSeq()
	if m.Net.Quiet() { // the fast path is active: StepCycle checked
		m.PublishNetQuiet()
	} else {
		n := e.sr.Shards()
		for s := 0; s < n; s++ {
			e.sr.Snapshot(s)
		}
		for _, s := range e.active {
			e.sr.StepShard(s)
		}
		e.sr.Commit()
		m.PublishNetQuiet()
	}
	for _, s := range e.active {
		lo, hi := e.sr.NodeRange(s)
		e.live[s], e.minWake[s] = m.StepNodeRangeInfo(lo, hi)
	}
	if m.WakeSeq() != seq0 {
		// A commit-phase hook (a reliable-delivery failure action, say)
		// unparked nodes out of band. Any shard that thereby became
		// live must still step its node phase this cycle, exactly as
		// the reference sweep would.
		for s := 0; s < len(e.isActive); s++ {
			if e.isActive[s] {
				continue
			}
			lo, hi := e.sr.NodeRange(s)
			if live, _ := m.NodeActivity(lo, hi); live > 0 {
				e.live[s], e.minWake[s] = m.StepNodeRangeInfo(lo, hi)
			}
		}
	}
	e.seq = m.WakeSeq()
}

// stepParallel advances one cycle with the full worker fleet — one
// rendezvous. Used for every cycle of a reference-mode machine and for
// high-work multi-shard cycles under epoch batching.
func (e *Engine) stepParallel(m *machine.Machine) {
	e.rendezvous++
	e.sr.Begin()
	e.skipNet = m.FastPathActive() && m.Net.Quiet()
	if e.skipNet {
		// The mesh is provably empty and its phases are elided, so the
		// quiet certification for the compiled tier's fusion rule is
		// made here, before the workers are released (the release send
		// publishes it).
		m.PublishNetQuiet()
	}
	n := e.sr.Shards()
	for w := 1; w < n; w++ {
		e.start[w] <- struct{}{}
	}
	e.runShard(0)
	for w := 1; w < n; w++ {
		<-e.done
	}
	for s := 0; s < n; s++ {
		if p := e.panics[s].Load(); p != nil {
			panic(p)
		}
	}
	e.seq = m.WakeSeq()
}

// rescan rebuilds the node activity cache from the park table. Runs at
// the first stepped cycle and whenever the machine reports out-of-band
// activity changes (WakeSeq moved: host injection, chaos actions,
// checkpoint restore, bulk unpark).
func (e *Engine) rescan(m *machine.Machine) {
	for s := 0; s < e.sr.Shards(); s++ {
		lo, hi := e.sr.NodeRange(s)
		e.live[s], e.minWake[s] = m.NodeActivity(lo, hi)
	}
	e.seq = m.WakeSeq()
	e.scanned = true
}

// worker parks between cycles and steps one shard per release.
func (e *Engine) worker(s int) {
	for {
		select {
		case <-e.quit:
			return
		case <-e.start[s]:
			e.runShard(s)
			e.done <- struct{}{}
		}
	}
}

// runShard drives shard s through one cycle's phases. A panic inside
// a phase (a routing bug, a program fault) is captured and re-raised
// on the coordinator; the worker still reaches every barrier so the
// other shards do not deadlock.
func (e *Engine) runShard(s int) {
	defer func() {
		if r := recover(); r != nil {
			e.panics[s].Store(fmt.Sprintf("engine: shard %d: %v", s, r))
			// The stepping goroutines are barrier-synchronized; after
			// a panic this shard's remaining phases are skipped, so
			// release the others rather than wedging them.
			e.bar.abandon()
		}
	}()
	if !e.skipNet {
		// Phase 1: freeze boundary input-buffer occupancies.
		e.sr.Snapshot(s)
		e.bar.wait()
		// Phase 2: step this slab's routers, staging boundary crossings.
		e.sr.StepShard(s)
		e.bar.wait()
		// Phase 3: one goroutine lands staged phits and replays hooks,
		// then certifies (or not) network quiescence for the compiled
		// tier — the same deterministic point the sequential loop uses,
		// published to the other shards by the phase barrier.
		if s == 0 {
			e.sr.Commit()
			e.m.PublishNetQuiet()
		}
		e.bar.wait()
	}
	// Phase 4: step this slab's processors (active-set aware), keeping
	// the shard's activity summary current for the epoch scheduler.
	lo, hi := e.sr.NodeRange(s)
	e.live[s], e.minWake[s] = e.m.StepNodeRangeInfo(lo, hi)
}

// spinBarrier is a sense-reversing barrier over atomics: cheap on
// multicore (short spins between phases that are microseconds apart),
// and still correct on a single hardware thread thanks to the
// runtime.Gosched fallback. The atomics also give the race detector
// the happens-before edges that make the phase protocol checkable.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
	dead  atomic.Bool
}

func (b *spinBarrier) init(n int) {
	b.n = int32(n)
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for spins := 0; b.gen.Load() == g; spins++ {
		if b.dead.Load() {
			return
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// abandon releases all current and future waiters after a shard
// panics, converting a would-be deadlock into an orderly shutdown.
func (b *spinBarrier) abandon() {
	b.dead.Store(true)
	b.gen.Add(1)
}
