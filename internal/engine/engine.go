// Package engine runs a machine's node phase on several host
// goroutines.
//
// The J-Machine's nodes run independently between messages; its mesh
// is one structure. So the engine steps the network exactly as the
// sequential loop does, on the coordinating goroutine, and then
// releases its workers onto contiguous slabs of node ids, each stepping
// its slab's processors, memories and queues; the coordinator steps
// slab 0 and joins the rest. That is one rendezvous per stepped cycle.
// A node's step touches only its own state plus its router's outbox
// (network.Inject), and the state slabs share — the active-set words,
// the parked count, the outbox-message counter — is atomic, so the
// result is byte-identical to the sequential loop: same cycle counts,
// same statistics, same watchdog and chaos behaviour. See
// docs/ENGINE.md for the determinism argument.
//
// Usage:
//
//	eng := Attach(m, shards)  // replaces m's cycle stepper
//	defer eng.Stop()          // release the worker goroutines
//	m.RunUntilHalt(0, budget) // all run loops work unchanged
package engine

import (
	"fmt"
	"sync/atomic"

	"jmachine/internal/machine"
)

// Engine steps a machine's node phase with one goroutine per slab. The
// goroutine calling Machine.Step coordinates and steps slab 0; slabs
// 1..n-1 run on persistent workers that park between cycles.
type Engine struct {
	m       *machine.Machine
	shards  int
	start   []chan struct{} // per-worker cycle release, workers 1..n-1
	done    chan struct{}   // one token per finished worker per cycle
	quit    chan struct{}
	panics  []atomic.Value // per-slab panic capture
	stopped bool

	// rendezvous counts the cycles that released the workers: one per
	// stepped cycle, so a pure function of simulated state — never of
	// host speed or core count — and tests pin it exactly.
	rendezvous int64
}

// Attach partitions m's nodes into shards slabs and installs the
// stepper. The count is clamped to the node count. With an effective
// count of 1 or less no stepper is installed and the machine keeps its
// sequential loop — the returned Engine is then a no-op whose Stop
// still works, so callers need no special casing.
func Attach(m *machine.Machine, shards int) *Engine {
	shards = min(shards, m.NumNodes())
	if shards <= 1 {
		return &Engine{m: m, shards: 1}
	}
	e := &Engine{
		m:      m,
		shards: shards,
		start:  make([]chan struct{}, shards),
		done:   make(chan struct{}, shards),
		quit:   make(chan struct{}),
		panics: make([]atomic.Value, shards),
	}
	for w := 1; w < shards; w++ {
		e.start[w] = make(chan struct{}, 1)
		go e.worker(w)
	}
	m.SetStepper(e)
	return e
}

// Shards returns the effective slab count (1 = sequential).
func (e *Engine) Shards() int { return e.shards }

// Rendezvous returns how many cycles have released the workers since
// Attach: exactly the cycles the machine stepped, not those it skipped.
// Nil-safe; a sequential engine reports 0.
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
	if e == nil || e.shards <= 1 || e.stopped {
		return
	}
	e.stopped = true
	e.m.SetStepper(nil)
	close(e.quit)
}

// StepCycle advances network and nodes one cycle. The machine has
// already advanced its cycle counter and run the cycle hooks (chaos
// injection, reliable-delivery timers) on this goroutine. The network
// phase is the sequential loop's, on this goroutine; the release sends
// publish its effects — and the quiet certification — to the workers.
func (e *Engine) StepCycle(m *machine.Machine) {
	if e.shards <= 1 || e.stopped {
		panic("engine: StepCycle on a stopped or sequential engine")
	}
	if m.FastPathActive() && m.Net.Quiet() {
		m.Net.SkipCycles(1)
	} else {
		m.Net.Step()
	}
	m.PublishNetQuiet()
	e.rendezvous++
	for w := 1; w < e.shards; w++ {
		e.start[w] <- struct{}{}
	}
	e.stepSlab(0)
	for w := 1; w < e.shards; w++ {
		<-e.done
	}
	for s := range e.panics {
		if p := e.panics[s].Load(); p != nil {
			panic(p)
		}
	}
}

// worker parks between cycles and steps one slab per release.
func (e *Engine) worker(s int) {
	for {
		select {
		case <-e.quit:
			return
		case <-e.start[s]:
			e.stepSlab(s)
			e.done <- struct{}{}
		}
	}
}

// stepSlab steps slab s's nodes through the current cycle. A panic (a
// program fault, an observer tap) is captured and re-raised on the
// coordinator once every slab has finished, attributed to its slab.
func (e *Engine) stepSlab(s int) {
	defer func() {
		if r := recover(); r != nil {
			e.panics[s].Store(fmt.Sprintf("engine: shard %d: %v", s, r))
		}
	}()
	n := e.m.NumNodes()
	e.m.StepNodeRangeInfo(s*n/e.shards, (s+1)*n/e.shards)
}
