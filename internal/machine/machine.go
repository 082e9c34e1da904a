// Package machine assembles a complete J-Machine: a 3-D mesh of MDP
// nodes with their memories, translation tables, and message queues, and
// a global cycle loop.
//
// The experiments in the paper ran on a 512-node machine arranged as an
// 8×8×8 mesh at 12.5 MHz; Cube(8) reproduces that configuration.
package machine

import (
	"fmt"
	"sync/atomic"

	"jmachine/internal/asm"
	"jmachine/internal/bitset"
	"jmachine/internal/mdp"
	"jmachine/internal/mem"
	"jmachine/internal/network"
	"jmachine/internal/queue"
	"jmachine/internal/stats"
	"jmachine/internal/word"
	"jmachine/internal/xlate"
)

// Config describes a machine.
type Config struct {
	DimX, DimY, DimZ int
	Mem              mem.Config
	Net              network.Config // dimension fields are overridden
	MDP              mdp.Config
	QueueCap         [2]int // per-priority queue capacity in words
	XlateSets        int
	XlateWays        int
	// Watchdog arms the progress watchdog: a full window of Watchdog
	// cycles with no phit movement, no delivered words, and no
	// instruction retirement makes RunWhile/RunQuiescent return
	// ErrNoProgress with a diagnostic dump instead of running to the
	// cycle limit. 0 disables. The window should comfortably exceed the
	// network's RTSBackoff and any reliable-delivery retry timeout, or
	// a quiet backoff wait is misread as a wedge.
	Watchdog int64
}

// Cube returns the configuration of a k×k×k machine.
func Cube(k int) Config { return Config{DimX: k, DimY: k, DimZ: k} }

// Grid returns a machine of the given dimensions. The paper's speedup
// studies use machines of 1..512 nodes; non-cubic grids cover the
// intermediate sizes.
func Grid(x, y, z int) Config { return Config{DimX: x, DimY: y, DimZ: z} }

// GridForNodes returns the most cubic grid with exactly n nodes, for
// n a product of small factors (1..512). It factors n into powers of
// two and spreads them across dimensions, matching how the hardware
// partitions allocated sub-meshes. Non-positive n yields the minimal
// 1×1×1 machine rather than looping on the degenerate factorization.
func GridForNodes(n int) Config {
	if n <= 1 {
		return Config{DimX: 1, DimY: 1, DimZ: 1}
	}
	dims := [3]int{1, 1, 1}
	d := 0
	for n%2 == 0 {
		dims[d%3] *= 2
		n /= 2
		d++
	}
	for f := 3; n > 1; f += 2 {
		for n%f == 0 {
			dims[d%3] *= f
			n /= f
			d++
		}
	}
	return Config{DimX: dims[0], DimY: dims[1], DimZ: dims[2]}
}

func (c Config) withDefaults() Config {
	if c.DimX == 0 {
		c.DimX = 1
	}
	if c.DimY == 0 {
		c.DimY = 1
	}
	if c.DimZ == 0 {
		c.DimZ = 1
	}
	return c
}

// Machine is a configured J-Machine.
type Machine struct {
	Cfg   Config
	Net   *network.Network
	Nodes []*mdp.Node
	Stats *stats.Machine
	cycle int64

	// WatchdogTrips counts ErrNoProgress returns over the machine's
	// lifetime (a run loop may be re-entered after a trip).
	WatchdogTrips uint64

	cycleFns []func(cycle int64)
	stepper  Stepper
	watchdog int64
	lastSig  ProgressCounters
	lastMove int64 // cycle at which lastSig was taken
	sigValid bool

	// Event-horizon fast path (see docs/PERF.md). A node whose next
	// event lies in the future is parked: its Step is skipped and its
	// clock and idle/stall statistics lag behind, to be caught up in
	// bulk (mdp.Node.SkipTo) when it wakes or at a sync point. When
	// every node is parked and the network is empty, whole dead windows
	// are skipped at once. The reference loop's observable state
	// sequence is preserved byte-for-byte: StateDigest, the run loops'
	// exit cycles, watchdog behaviour, and every statistic match a run
	// with the fast path off.
	fast       bool         // SetFastPath: fast path permitted
	parked     []bool       // node i's Step is currently being skipped
	wakeAt     []int64      // cycle at which parked node i must step again (NoEvent = external wake only)
	needWake   []bool       // external work arrived for parked node i (delivery, thaw)
	nParked    atomic.Int64 // |parked|; atomic: engine slabs park their own nodes concurrently
	caughtUpTo int64        // cycle through which lagging nodes must catch up (cycle-1 while stepping)
	horizons   []func(now int64) int64

	// hot is the live-node set the per-cycle loops iterate instead of
	// sweeping parked[] (docs/PERF.md, "Active sets"): node i is absent
	// iff it is parked with no scheduled wake and no pending external
	// one — exactly the nodes those loops would pass over untouched.
	// The queues' completion hook (wake), the sync hook, unparkAll and
	// restore add; parking on NoEvent removes. Derived state: outside the
	// digest and the checkpoint. nodeVisits counts the nodes
	// StepNodeRangeInfo examined — host work, not simulated state.
	hot        bitset.Set
	nodeVisits atomic.Int64

	// Compiled tier (docs/COMPILED.md). fuse is the fusion control
	// block every node reads through a pointer: the coordinator writes
	// the window limit before the processor phase of each cycle and
	// certifies network quiescence at the network/processor phase
	// boundary, both before the engine releases its node-phase workers.
	compiledOn bool
	fuse       mdp.FuseCtl
}

// NoEvent is the "no wake scheduled" horizon value (re-exported from
// mdp for hook authors): a horizon function returns it when its hook
// can never act again until re-armed by other machinery.
const NoEvent = mdp.NoEvent

// Stepper advances the machine's network and nodes through one cycle.
// The machine's built-in sequential loop is the reference
// implementation; internal/engine installs one that runs the node
// phase on several goroutines and must be byte-identical to it. The
// stepper runs after the cycle counter has advanced and the cycle hooks
// have fired (both stay on the coordinating goroutine, keeping the
// watchdog, diagnostics, chaos injection, and reliable-delivery timers
// engine-agnostic).
type Stepper interface {
	StepCycle(m *Machine)
}

// SetStepper installs a replacement cycle stepper; nil restores the
// sequential reference loop.
func (m *Machine) SetStepper(s Stepper) { m.stepper = s }

// New builds a machine running prog on every node.
func New(cfg Config, prog *asm.Program) (*Machine, error) {
	cfg = cfg.withDefaults()
	nodes := cfg.DimX * cfg.DimY * cfg.DimZ
	if nodes <= 0 {
		return nil, fmt.Errorf("machine: invalid dimensions %d×%d×%d", cfg.DimX, cfg.DimY, cfg.DimZ)
	}
	if prog == nil || len(prog.Instrs) == 0 {
		return nil, fmt.Errorf("machine: empty program")
	}
	queues := make([][2]*queue.Queue, nodes)
	for i := range queues {
		queues[i] = [2]*queue.Queue{queue.New(cfg.QueueCap[0]), queue.New(cfg.QueueCap[1])}
	}
	netCfg := cfg.Net
	netCfg.DimX, netCfg.DimY, netCfg.DimZ = cfg.DimX, cfg.DimY, cfg.DimZ
	net, err := network.New(netCfg, queues)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:      cfg,
		Net:      net,
		Nodes:    make([]*mdp.Node, nodes),
		Stats:    stats.NewMachine(nodes),
		watchdog: cfg.Watchdog,
		fast:     true,
		parked:   make([]bool, nodes),
		wakeAt:   make([]int64, nodes),
		needWake: make([]bool, nodes),
		hot:      bitset.New(nodes),
	}
	for i := 0; i < nodes; i++ {
		m.hot.Add(i)
		m.Nodes[i] = mdp.NewNode(i, cfg.MDP,
			mem.New(cfg.Mem), xlate.New(cfg.XlateSets, cfg.XlateWays),
			queues[i], net, prog, m.Stats.Nodes[i])
		i := i
		// A message completing in a queue is the one external event that
		// can make an idle node runnable without any hook firing, whoever
		// pushed it: the mesh's delivery port, Inject, or a raw push
		// between run calls. One closure serves both priorities.
		wake := func() { m.wake(i) }
		queues[i][0].SetReadyFn(wake)
		queues[i][1].SetReadyFn(wake)
		// Catch a parked node up under its pre-mutation flags before an
		// external actor (chaos freeze/kill, reliable-delivery failure,
		// a background start) changes them; runs on the coordinator.
		m.Nodes[i].SetSyncHook(func() {
			if m.parked[i] {
				m.Nodes[i].SkipTo(m.caughtUpTo)
				m.parked[i] = false
				m.needWake[i] = false
				m.nParked.Add(-1)
				m.hot.Add(i)
			}
		})
	}
	return m, nil
}

// wake flags external work for node i (a message completed in one of
// its queues): if parked, it steps on the next node phase.
func (m *Machine) wake(i int) {
	m.needWake[i] = true
	m.hot.Add(i)
}

// MustNew is New that panics on error, for statically-valid configs.
func MustNew(cfg Config, prog *asm.Program) *Machine {
	m, err := New(cfg, prog)
	if err != nil {
		panic(err)
	}
	return m
}

// NumNodes returns the node count.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// Cycle returns the global cycle count.
func (m *Machine) Cycle() int64 { return m.cycle }

// Node returns node i.
func (m *Machine) Node(i int) *mdp.Node { return m.Nodes[i] }

// SetFaultFn installs the system-software trap entry on every node.
func (m *Machine) SetFaultFn(fn mdp.FaultFn) {
	for _, n := range m.Nodes {
		n.SetFaultFn(fn)
	}
}

// AddCycleHook registers a hook called at the start of every stepped
// machine cycle (before the network and the nodes step), in
// registration order, together with its event horizon: horizon(now)
// returns the earliest cycle strictly after now at which the hook may
// act on (observe or mutate) machine state, or NoEvent when it is
// permanently passive until other machinery re-arms it. The hook must
// be a no-op off its horizon: the machine may skip a fully-idle window
// up to (not including) the horizon without running it, and fusion
// windows and parked nodes' clocks may run ahead of the hook until
// then, so the declaration must be conservative. A hook that reads
// per-node state on its horizon calls CatchUp first. The chaos
// injector (next scheduled fault or expiry), the reliable-delivery
// timer scan (next scan interval while messages are pending) and the
// observability recorder (next sample or snapshot) register this way.
func (m *Machine) AddCycleHook(fn func(cycle int64), horizon func(now int64) int64) {
	m.cycleFns = append(m.cycleFns, fn)
	m.horizons = append(m.horizons, horizon)
}

// SetFastPath enables or disables the event-horizon fast path (on by
// default). Disabling it restores the literal reference loop — every
// node stepped every cycle — which the equivalence suite compares
// against.
func (m *Machine) SetFastPath(on bool) {
	m.fast = on
	if !on {
		m.unparkAll()
	}
}

// FastPathActive reports whether the event-horizon scheduler is
// allowed to park nodes and skip cycles.
// internal/engine consults it before eliding empty network phases.
func (m *Machine) FastPathActive() bool { return m.fast }

// SetCompiled installs (or, with nil, removes) a compiled program tier
// on every node: at each instruction boundary the node runs the
// translated closure for its current IP instead of the interpreter,
// bailing back to it for scheduler-visible operations (see
// internal/compiled and docs/COMPILED.md). The machine grants fusion
// windows bounded by the caller's next check and every hook's event
// horizon (publishFuseLimit). State, statistics, digests, and traces
// remain byte-identical to interpreted runs in every mode.
func (m *Machine) SetCompiled(cp *mdp.CompiledProgram) {
	m.compiledOn = cp != nil
	m.fuse = mdp.FuseCtl{Limit: 0, QuietCycle: -1}
	for _, n := range m.Nodes {
		if cp == nil {
			n.SetCompiled(nil, nil)
		} else {
			n.SetCompiled(cp, &m.fuse)
		}
	}
}

// CompiledActive reports whether the compiled tier is installed.
func (m *Machine) CompiledActive() bool { return m.compiledOn }

// FusedInstructions sums the per-node count of instructions executed
// as fused (non-boundary) members of compiled windows. Diagnostic
// only — it depends on host-side scheduling and is excluded from
// digests and checkpoints — but it lets benchmarks report fusion depth
// and lets the equivalence suite prove fusion actually engaged.
func (m *Machine) FusedInstructions() int64 {
	var total int64
	for _, n := range m.Nodes {
		total += n.FusedInstructions()
	}
	return total
}

// FusionStats sums the per-node compiled-tier boundary and window
// accounting (mdp.FusionStats). Diagnostic only, like
// FusedInstructions: host-scheduling-dependent, never digest-folded.
func (m *Machine) FusionStats() mdp.FusionStats {
	var total mdp.FusionStats
	for _, n := range m.Nodes {
		total.Add(n.FusionStats())
	}
	return total
}

// publishFuseLimit grants the upcoming cycle's fusion window. It is
// the one place the fusion licence is bounded: a window may not pass
// the next cycle at which anything can observe machine state — look,
// the caller's next check, and every hook horizon (exclusive).
func (m *Machine) publishFuseLimit(look int64) {
	if !m.compiledOn {
		return
	}
	for _, h := range m.horizons {
		if hz := h(m.cycle); hz-1 < look {
			look = hz - 1
		}
	}
	m.fuse.Limit = look
}

// PublishNetQuiet certifies, for the cycle being stepped, that the
// network held no phits or outbox messages at the network/processor
// phase boundary — the quiet fusion rule's precondition. Both the
// sequential loop and the engine call it on the coordinator between
// the network and processor phases.
func (m *Machine) PublishNetQuiet() {
	if !m.compiledOn {
		return
	}
	m.fuse.QuietCycle = -1
	if m.Net.Quiet() {
		m.fuse.QuietCycle = m.cycle
	}
}

// SetWatchdog arms (or, with 0, disarms) the progress watchdog after
// construction — used when the machine was built by an application's
// Run helper rather than directly from a Config.
func (m *Machine) SetWatchdog(window int64) {
	m.watchdog = window
	m.sigValid = false
}

// Inject delivers a complete message — header word first, body after —
// into node i's priority-pri queue directly from the host, bypassing
// the mesh. It models the external network interface a service front
// door would drive and must be called between cycles on the
// coordinating goroutine (never from inside a hook or while an engine
// cycle is in flight). The injected words enter the same hardware
// queue mesh deliveries use, so dispatch, queue back-pressure, and the
// state digest behave exactly as if the message had arrived by wire.
// Reports false — and injects nothing — when the queue lacks room for
// the whole message; the caller should step the machine to drain the
// queue and retry.
func (m *Machine) Inject(node, pri int, msg []word.Word) bool {
	if node < 0 || node >= len(m.Nodes) || pri < 0 || pri > 1 || len(msg) == 0 {
		return false
	}
	q := m.Nodes[node].Queues[pri]
	if q.Free() < len(msg) {
		return false
	}
	// The queue's completion hook wakes a parked node exactly as it does
	// for a mesh delivery.
	for _, w := range msg {
		q.Push(w)
	}
	return true
}

// InjectFree returns how many words of room node i's priority-pri
// queue currently has for host injection.
func (m *Machine) InjectFree(node, pri int) int {
	if node < 0 || node >= len(m.Nodes) || pri < 0 || pri > 1 {
		return 0
	}
	return m.Nodes[node].Queues[pri].Free()
}

// Step advances the whole machine one cycle: the network moves phits,
// then each node executes. It is StepN(1), so it is reference-exact:
// parked nodes are caught up before it returns, and the caller
// observes the same per-node state the reference loop would show.
func (m *Machine) Step() { m.StepN(1) }

// stepOnce advances one cycle honouring the active set: parked nodes
// are not stepped, and the network phase is elided while the mesh is
// empty (an empty-mesh Step touches nothing but the cycle counter).
func (m *Machine) stepOnce() {
	m.cycle++
	m.caughtUpTo = m.cycle - 1
	for _, fn := range m.cycleFns {
		fn(m.cycle)
	}
	if m.stepper != nil {
		m.stepper.StepCycle(m)
		m.caughtUpTo = m.cycle
		return
	}
	if m.FastPathActive() && m.Net.Quiet() {
		m.Net.SkipCycles(1)
	} else {
		m.Net.Step()
	}
	m.PublishNetQuiet()
	m.StepNodeRangeInfo(0, len(m.Nodes))
	m.caughtUpTo = m.cycle
}

// StepNodeRangeInfo steps the hot nodes of [lo, hi) through the current
// cycle in ascending order (the set is re-read after every node, so a
// node that a stepping node's system software unparks ahead of the
// cursor still steps this cycle, as under a sweep), maintaining the
// active set: a parked node is skipped until its wake cycle (or an
// external wake flag) comes due, at which point it is caught up in bulk
// and stepped; a node whose next event lies beyond the next cycle is
// parked. Both the sequential loop and the engine's node phase use it —
// under the engine each worker calls it for its own slab, so the
// bookkeeping for index i is only ever touched by i's owning goroutine
// (nParked and the words of hot, which slabs share, are atomic).
//
// It returns an activity summary for the range, computed in the same
// pass: live is the number of nodes left unparked, minWake the
// earliest wake cycle among the parked ones (NoEvent when none is
// scheduled).
func (m *Machine) StepNodeRangeInfo(lo, hi int) (live int, minWake int64) {
	fast := m.FastPathActive()
	cycle := m.cycle
	minWake = NoEvent
	// Park/unpark deltas batch into one atomic update per call — the
	// shared counter is only read between processor phases (advance,
	// CatchUp, unparkAll), never while a slab is mid-step.
	// The set is walked a word at a time so the per-node step makes no
	// call into the set (bitset.Set.Next).
	parkDelta, visits := int64(0), int64(0)
	for i := m.hot.Next(lo, hi); i < hi; i = m.hot.Next(i, hi) {
		for end := min(i|63+1, hi); i < end; i = m.hot.NextInWord(i+1, end) {
			visits++
			if m.parked[i] {
				if !m.needWake[i] && cycle < m.wakeAt[i] {
					if m.wakeAt[i] < minWake {
						minWake = m.wakeAt[i]
					}
					continue
				}
				m.Nodes[i].SkipTo(cycle - 1)
				m.parked[i] = false
				m.needWake[i] = false
				parkDelta--
			}
			n := m.Nodes[i]
			n.Step()
			if fast {
				if ne := n.NextEvent(); ne > cycle+1 {
					m.parked[i] = true
					m.wakeAt[i] = ne
					m.needWake[i] = false
					parkDelta++
					if ne == NoEvent {
						m.hot.Remove(i) // nothing scheduled: only a wake brings it back
					} else if ne < minWake {
						minWake = ne
					}
					continue
				}
			}
			live++
		}
	}
	if parkDelta != 0 {
		m.nParked.Add(parkDelta)
	}
	m.nodeVisits.Add(visits)
	return live, minWake
}

// NodeVisits returns how many nodes StepNodeRangeInfo has examined since
// construction: proportional to live nodes, not to mesh size. A
// host-work counter — exact at a seed, digest-exempt, not checkpointed.
func (m *Machine) NodeVisits() int64 { return m.nodeVisits.Load() }

// isHot is the membership rule of the hot set.
func (m *Machine) isHot(i int) bool {
	return !m.parked[i] || m.needWake[i] || m.wakeAt[i] != NoEvent
}

// CheckInvariants recomputes the scheduler's derived bookkeeping from
// the park table and returns an error naming the first disagreement:
// the live-node set and its summary level, the parked count, and that
// no parked node has slept past its wake cycle; then the network's (its
// CheckInvariants).
// Call it between cycles or from a cycle hook, where the state is that
// of SnapshotCycle. For tests and equivalence harnesses; O(nodes).
func (m *Machine) CheckInvariants() error {
	parked := int64(0)
	for i := range m.parked {
		if m.hot.Has(i) != m.isHot(i) {
			return fmt.Errorf("machine: node %d hot=%v but parked=%v needWake=%v wakeAt=%d",
				i, m.hot.Has(i), m.parked[i], m.needWake[i], m.wakeAt[i])
		}
		if m.parked[i] {
			parked++
			if m.wakeAt[i] <= m.caughtUpTo {
				return fmt.Errorf("machine: node %d still parked after cycle %d, wake was due at %d", i, m.caughtUpTo, m.wakeAt[i])
			}
		}
	}
	if parked != m.nParked.Load() {
		return fmt.Errorf("machine: nParked=%d but %d nodes are parked", m.nParked.Load(), parked)
	}
	if err := m.hot.Check(); err != nil {
		return fmt.Errorf("machine: live-node set: %w", err)
	}
	return m.Net.CheckInvariants()
}

// advance moves the machine forward at least one cycle, but never past
// limit. When every node is parked and the network is empty — nothing
// in the machine can change except cycle counters — the whole dead
// window up to the nearest of limit, the earliest hook horizon, and
// the earliest node wake is consumed in one jump; otherwise one real
// cycle is stepped, with fusion windows bounded by look, the caller's
// next observation of machine state (publishFuseLimit). Callers cap
// limit at their own check boundaries (budget, watchdog cadence,
// quiescence probe) so every check still happens at exactly the cycle
// the reference loop would perform it.
func (m *Machine) advance(limit, look int64) {
	if m.FastPathActive() && m.nParked.Load() == int64(len(m.Nodes)) && m.Net.Quiet() {
		if t := m.skipTarget(limit); t > m.cycle {
			m.Net.SkipCycles(t - m.cycle)
			m.cycle = t
			m.caughtUpTo = t
			if m.cycle >= limit {
				return
			}
		}
	}
	m.publishFuseLimit(look)
	m.stepOnce()
}

// skipTarget returns the latest cycle the machine may jump to from a
// fully-parked, network-quiet state: capped by limit, by every hook's
// event horizon (exclusive — the hook must run normally on its horizon
// cycle), and by every parked node's wake cycle (exclusive — the wake
// cycle itself is stepped so live state, e.g. a retiring stall, tracks
// the reference loop).
func (m *Machine) skipTarget(limit int64) int64 {
	t := limit
	for _, h := range m.horizons {
		if hz := h(m.cycle); hz-1 < t {
			t = hz - 1
		}
	}
	// Every node is parked here; those outside the live set have no wake
	// scheduled or pending and cannot cap the jump.
	for i, end := m.hot.Next(0, len(m.Nodes)), len(m.Nodes); i < end; i = m.hot.Next(i+1, end) {
		if m.needWake[i] {
			return m.cycle // pending external wake: step normally
		}
		if w := m.wakeAt[i]; w-1 < t {
			t = w - 1
		}
	}
	return t
}

// CatchUp catches every parked node up through the last completed
// cycle (charging its skipped idle/stall cycles) without unparking it.
// Run-loop exits, StateDigest, Diagnose and SaveState call it so
// externally-visible state always matches the reference loop; a cycle
// hook that reads per-node state on its horizon cycle calls it first.
func (m *Machine) CatchUp() {
	if m.nParked.Load() == 0 {
		return
	}
	for i, n := range m.Nodes {
		if m.parked[i] {
			n.SkipTo(m.caughtUpTo)
		}
	}
}

// unparkAll returns every parked node to the active set, caught up.
// Used where the reference loop is entered: SetFastPath(false).
func (m *Machine) unparkAll() {
	if m.nParked.Load() == 0 {
		return
	}
	for i, n := range m.Nodes {
		if m.parked[i] {
			n.SkipTo(m.caughtUpTo)
			m.parked[i] = false
			m.needWake[i] = false
			m.hot.Add(i)
		}
	}
	m.nParked.Store(0)
}

// StateDigest folds the machine's complete dynamic state — cycle
// counter, network (routers, in-flight worms, outboxes, stats), and
// every node's architectural state, memory, queues, and statistics —
// into a 64-bit digest. Two runs with equal digests are in
// byte-identical states; the equivalence suites compare runs under
// different configurations with it.
func (m *Machine) StateDigest() uint64 {
	m.CatchUp()
	h := uint64(0xcbf29ce484222325) ^ uint64(m.cycle)
	h ^= m.Net.StateDigest()
	h *= 0x100000001b3
	h ^= m.WatchdogTrips
	for _, n := range m.Nodes {
		h = n.StateDigest(h)
	}
	return h
}

// StepN advances n cycles. Dead windows inside the batch are skipped
// in bulk; the machine is fully re-synchronized before returning, so
// the final state is reference-exact.
func (m *Machine) StepN(n int64) {
	target := m.cycle + n
	for m.cycle < target {
		m.advance(target, target)
	}
	m.CatchUp()
}

// ErrCycleLimit is returned when a run exceeds its cycle budget.
type ErrCycleLimit struct {
	Limit int64
}

func (e ErrCycleLimit) Error() string {
	return fmt.Sprintf("machine: exceeded cycle limit %d", e.Limit)
}

// ErrNoProgress is returned by the run loops when the progress watchdog
// observes a full window with no phit movement, no delivered words, and
// no instruction retirement anywhere in the machine — a wedge (blocked
// worms, a livelocked protocol, every node suspended awaiting a lost
// message) rather than a slow computation. Diag carries the machine
// state at the trip for post-mortem.
type ErrNoProgress struct {
	Cycle  int64 // machine cycle at the trip
	Window int64 // configured watchdog window
	Diag   *Diagnostic
}

func (e ErrNoProgress) Error() string {
	s := fmt.Sprintf("machine: no progress for %d cycles (at cycle %d)", e.Window, e.Cycle)
	if e.Diag != nil {
		s += "\n" + e.Diag.String()
	}
	return s
}

// ProgressCounters is the watchdog's forward-progress signature:
// everything the machine counts as evidence of life. Faults are
// included so fault-service storms (which retire no instructions) do
// not read as a wedge. Observability snapshots report it so a live
// tail shows the same signal the watchdog trips on.
type ProgressCounters struct {
	Instrs    uint64 `json:"instrs"`
	Threads   uint64 `json:"threads"`
	Faults    uint64 `json:"faults"`
	PhitHops  uint64 `json:"phit_hops"`
	Delivered uint64 `json:"delivered_words"`
	Returned  uint64 `json:"returned_msgs"`
}

// Progress returns the machine-wide forward-progress counters the
// watchdog compares between windows. The scan is O(nodes).
func (m *Machine) Progress() ProgressCounters {
	var s ProgressCounters
	for _, n := range m.Stats.Nodes {
		s.Instrs += n.Instrs
		s.Threads += n.Threads
		s.Faults += n.SendFaults + n.XlateFaults + n.CfutFaults + n.OverflowFaults
	}
	ns := m.Net.Stats()
	s.PhitHops = ns.PhitHops
	s.Delivered = ns.DeliveredWords[0] + ns.DeliveredWords[1]
	s.Returned = ns.ReturnedMsgs + ns.Retransmits + ns.DroppedMsgs + ns.CorruptDrops + ns.DupDrops
	return s
}

// checkWatchdog compares the progress signature against the last
// snapshot; a full unchanged window returns ErrNoProgress. The scan is
// O(nodes), so callers run it at the watchdog cadence, not per cycle.
func (m *Machine) checkWatchdog() error {
	if m.watchdog <= 0 {
		return nil
	}
	if !m.sigValid {
		m.lastSig, m.lastMove, m.sigValid = m.Progress(), m.cycle, true
		return nil
	}
	if m.cycle-m.lastMove < m.watchdog {
		return nil
	}
	sig := m.Progress()
	if sig != m.lastSig {
		m.lastSig, m.lastMove = sig, m.cycle
		return nil
	}
	m.WatchdogTrips++
	m.sigValid = false
	return ErrNoProgress{Cycle: m.cycle, Window: m.watchdog, Diag: m.Diagnose()}
}

// RunWhile steps the machine while cond holds, up to max cycles, and
// surfaces any node's fatal fault or a watchdog trip. The fatal and
// watchdog scans run periodically to stay off the per-cycle critical
// path.
//
// cond is opaque and evaluated after every cycle, so the compiled tier
// is granted no fusion window here: a fused store would otherwise be
// visible to cond (and to the exit digest) before its charged cycle.
// Under the event-horizon fast path, dead-window skips are capped at
// the budget boundary and at the 256-cycle fatal/watchdog cadence, so
// every check — and any resulting error — happens at exactly the cycle
// the single-stepping loop would produce it. During a skipped window
// nothing observable changes, so cond is constant across it — except
// for the cycle counter itself: a cond that reads m.Cycle() observes it
// at a coarser granularity (it still never overshoots a boundary or the
// budget).
func (m *Machine) RunWhile(cond func(*Machine) bool, max int64) error {
	start := m.cycle
	m.sigValid = false
	defer m.CatchUp()
	for cond(m) {
		if m.cycle-start >= max {
			if err := m.FatalErr(); err != nil {
				return err
			}
			return ErrCycleLimit{Limit: max}
		}
		limit := start + max
		if b := (m.cycle | 0xFF) + 1; b < limit {
			limit = b
		}
		m.advance(limit, m.cycle+1)
		if m.cycle&0xFF == 0 {
			if err := m.FatalErr(); err != nil {
				return err
			}
			if err := m.checkWatchdog(); err != nil {
				return err
			}
		}
	}
	return m.FatalErr()
}

// RunUntilHalt runs until node id halts (the applications' driver node
// executes HALT when the computation completes).
func (m *Machine) RunUntilHalt(id int, max int64) error {
	return m.RunWhile(func(m *Machine) bool { return !m.Nodes[id].Halted() }, max)
}

// RunQuiescent runs until no node is busy and the network is drained.
// The quiescence test runs every probe cycles (default 8) to keep the
// scan off the critical path. A node fatal takes precedence over the
// cycle limit so a crash inside the final budget window is not masked
// as a timeout.
func (m *Machine) RunQuiescent(max int64) error {
	const probe = 8
	start := m.cycle
	m.sigValid = false
	defer m.CatchUp()
	for {
		if m.Quiescent() {
			return nil
		}
		if m.cycle-start >= max {
			if err := m.FatalErr(); err != nil {
				return err
			}
			return ErrCycleLimit{Limit: max}
		}
		// One probe batch. Bulk skips are capped at the batch boundary,
		// keeping the quiescence/fatal/watchdog checks on the same
		// start+8k cycles as the single-stepping loop.
		target := m.cycle + probe
		for m.cycle < target {
			m.advance(target, target)
		}
		if err := m.FatalErr(); err != nil {
			return err
		}
		if err := m.checkWatchdog(); err != nil {
			return err
		}
	}
}

// Quiescent reports whether no node has work and no traffic is in flight.
func (m *Machine) Quiescent() bool {
	if m.Net.Pending() {
		return false
	}
	for _, n := range m.Nodes {
		if n.Busy() {
			return false
		}
	}
	return true
}

// FatalErr returns the first node fatal error, if any.
func (m *Machine) FatalErr() error {
	for _, n := range m.Nodes {
		if err := n.Fatal(); err != nil {
			return fmt.Errorf("node %d: %w", n.ID, err)
		}
	}
	return nil
}
