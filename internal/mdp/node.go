package mdp

import (
	"fmt"
	"math"

	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/mem"
	"jmachine/internal/network"
	"jmachine/internal/queue"
	"jmachine/internal/stats"
	"jmachine/internal/trace"
	"jmachine/internal/word"
	"jmachine/internal/xlate"
)

// Execution levels. The MDP provides three distinct register sets so
// that priority-1 messages can interrupt priority-0 threads, and a
// background level runs whenever both message queues are empty.
const (
	LvlP0 = iota
	LvlP1
	LvlBG
	NumLevels
)

// Context is one register set: four data registers, four address
// registers, and an instruction pointer.
type Context struct {
	Regs      [8]word.Word
	IP        int32
	Running   bool
	HandlerIP int32 // thread-class key for statistics (-1 = background)
}

// Node is one J-Machine processing node: MDP core plus its memory,
// translation table, message queues, and network attachment.
type Node struct {
	ID      int
	X, Y, Z int
	Cfg     Config
	Mem     *mem.Memory
	Xl      *xlate.Table
	Queues  [2]*queue.Queue
	Net     *network.Network
	Prog    *asm.Program
	Stats   *stats.Node
	// Watch, when non-nil, receives every event the node emits
	// (dispatches, suspends, sends, faults; see package trace). It is
	// the node's only event tap and is NOT part of StateDigest or the
	// checkpoint, so an attached observer (internal/obs, jm-jc -trace)
	// leaves both byte-identical to an unobserved run. The callback runs on
	// the goroutine stepping this node — one per cycle under both
	// engines — and must not touch other nodes' state.
	//jm:digest-exempt observer tap; deliberately outside StateDigest
	Watch func(trace.Event)

	ctx      [NumLevels]Context
	cur      int
	stall    int32
	stallCat stats.Cat
	region   stats.Cat
	// building and pendingLen are indexed [execution level][message
	// priority]: send state belongs to the executing context, so a
	// handler dispatched mid-sequence cannot interleave its words into
	// a preempted thread's half-built message.
	building [NumLevels][2][]word.Word
	// pendingLen is the payload length of a completed message awaiting
	// injection capacity (a retried ending send must not re-append).
	pendingLen [NumLevels][2]int

	// Software overflow queue: relocated priority-0 messages live in an
	// external-memory ring and dispatch from there, oldest first.
	softQ     []softMsg
	softBase  int32
	softWords int
	softAlloc int32 // ring write offset in words
	softUsed  int
	p0Soft    bool // the running P0 thread came from the software queue
	halted    bool
	frozen    bool // chaos fault: clock runs, nothing executes
	killed    bool // chaos fault: frozen forever
	fatal     error
	faultFn   FaultFn
	cycle     int64
	nnr       word.Word

	// Compiled execution tier (see compiled.go): translated closures
	// per code address, the machine's shared fusion control block, and
	// the segmented charge plan of an in-progress fused window.
	compiled *CompiledProgram
	fuse     *FuseCtl
	fuseSegs []fuseSeg
	fuseHead int
	// fusedInstrs counts instructions executed as fused (non-boundary)
	// members of a compiled window. Diagnostic only: not digest-folded
	// and not checkpointed, because fusion depth is a host-side artifact
	// (run-loop cap, hook horizons) that equivalence must not depend on.
	fusedInstrs int64
	// fuseStats is the rest of the compiled tier's boundary/window
	// accounting (see FusionStats); diagnostic only, like fusedInstrs.
	fuseStats FusionStats
	// syncHook, when non-nil, runs before any externally-driven state
	// mutation (freeze, kill, fail, background start) so a scheduler
	// that let the node's clock lag behind the machine can charge the
	// lagged cycles under the node's pre-mutation flags.
	syncHook func()
}

// NoEvent is NextEvent's "never": the node cannot create work on its
// own — only an external push (a network delivery, a chaos thaw, a
// background start) can make it runnable again.
const NoEvent = int64(math.MaxInt64)

// NewNode wires up a node. The program image is shared (code is
// identical on every node, as in the real machine's loaders).
func NewNode(id int, cfg Config, m *mem.Memory, xl *xlate.Table,
	queues [2]*queue.Queue, net *network.Network, prog *asm.Program,
	st *stats.Node) *Node {
	x, y, z := net.NodeCoords(id)
	n := &Node{
		ID: id, X: x, Y: y, Z: z,
		Cfg: cfg.withDefaults(), Mem: m, Xl: xl, Queues: queues,
		Net: net, Prog: prog, Stats: st,
		region: stats.CatComp,
		nnr:    word.Node(x, y, z),
	}
	for l := range n.ctx {
		n.ctx[l].HandlerIP = -1
	}
	if sq := &n.Cfg.SoftQueue; sq.Enable {
		if sq.BufWords == 0 {
			sq.BufWords = 4096
		}
		if sq.ThresholdWords == 0 {
			sq.ThresholdWords = queues[0].Cap() - 32
			if sq.ThresholdWords < 8 {
				sq.ThresholdWords = 8
			}
		}
		if sq.CostPerMsg == 0 {
			sq.CostPerMsg = 20
		}
		n.softWords = sq.BufWords
		n.softBase = int32(m.Size() - sq.BufWords)
	}
	return n
}

// softMsg locates one relocated message in the external-memory ring.
type softMsg struct {
	addr  int32
	words int
}

// SetFaultFn installs the system-software trap entry.
func (n *Node) SetFaultFn(fn FaultFn) { n.faultFn = fn }

// SetSyncHook installs the pre-mutation catch-up callback (see the
// syncHook field). Owned by internal/machine's event-horizon scheduler.
func (n *Node) SetSyncHook(fn func()) { n.syncHook = fn }

// sync runs the catch-up hook ahead of an external mutation.
func (n *Node) sync() {
	if n.syncHook != nil {
		n.syncHook()
	}
}

// NextEvent returns the earliest cycle at which the node can next do
// work that Step must simulate individually: the next cycle if it is
// runnable or dispatchable, the cycle after its stall retires if it is
// mid-operation, and NoEvent when it is idle (or frozen, or halted)
// with nothing pending. Every cycle strictly before the returned one
// is, from this node's perspective, bulk-chargeable via SkipTo.
func (n *Node) NextEvent() int64 {
	if n.halted || n.frozen {
		return NoEvent
	}
	if n.stall > 0 {
		// The final stall cycle (cycle+stall) is stepped individually,
		// not skipped: it retires the counter in live state, so a
		// between-cycles Busy() probe at that cycle reads exactly what
		// the reference loop would.
		return n.cycle + int64(n.stall)
	}
	if n.ctx[LvlP0].Running || n.ctx[LvlP1].Running || n.ctx[LvlBG].Running ||
		n.Queues[0].HeadReady() || n.Queues[1].HeadReady() || len(n.softQ) > 0 {
		return n.cycle + 1
	}
	return NoEvent
}

// SkipTo advances the node's clock to target, charging the skipped
// cycles byte-identically to target-cycle individual Step calls: a
// frozen node charges idle (its stall counter is preserved, exactly as
// Step leaves it), a stalled node retires stall cycles under the
// operation's category, and any remainder is idle. The caller must not
// skip past the node's NextEvent — cycles from there on need real
// stepping.
func (n *Node) SkipTo(target int64) {
	if n.halted || target <= n.cycle {
		return
	}
	d := target - n.cycle
	n.cycle = target
	if n.frozen {
		n.Stats.AddN(stats.CatIdle, d)
		return
	}
	if n.stall > 0 {
		s := int64(n.stall)
		if s > d {
			s = d
		}
		n.stall -= int32(s)
		if len(n.fuseSegs) > 0 {
			n.fuseSkip(s)
		} else {
			n.Stats.AddN(n.stallCat, s)
		}
		d -= s
	}
	if d > 0 {
		n.Stats.AddN(stats.CatIdle, d)
	}
}

// emit routes one trace event to the observer tap, a nil check when
// none is attached.
func (n *Node) emit(e trace.Event) {
	//jm:digest-exempt-ok write-only tap: the callback observes the event stream and cannot return state into the node
	if n.Watch != nil {
		n.Watch(e) //jm:digest-exempt-ok same tap, call through the pointer just nil-checked
	}
}

// Cycle returns the node's local cycle count.
func (n *Node) Cycle() int64 { return n.cycle }

// Halted reports whether the node has stopped (HALT or fatal fault).
func (n *Node) Halted() bool { return n.halted }

// Fatal returns the error that halted the node, if any.
func (n *Node) Fatal() error { return n.fatal }

// SetFrozen freezes or thaws the node: a frozen node's clock advances
// but it executes nothing — its router and queues stay alive, so
// traffic keeps arriving while the processor is wedged (the failure
// mode whose consequences the paper's critique discusses). A killed
// node cannot be thawed.
func (n *Node) SetFrozen(v bool) {
	if n.killed {
		return
	}
	n.sync()
	n.frozen = v
}

// Frozen reports whether the node is currently frozen.
func (n *Node) Frozen() bool { return n.frozen }

// Kill freezes the node permanently (chaos node-death fault). Unlike a
// fatal fault the machine keeps running: the wedge must be detected by
// the progress watchdog or survived by the reliable-delivery runtime.
func (n *Node) Kill() {
	n.sync()
	n.frozen = true
	n.killed = true
}

// Killed reports whether the node was killed.
func (n *Node) Killed() bool { return n.killed }

// Fail halts the node with an externally-diagnosed error (used by the
// reliable-delivery runtime to surface delivery failures as node
// faults, which RunWhile's fatal scan then reports).
func (n *Node) Fail(err error) {
	n.sync()
	n.haltFatal(err)
}

// SoftQueueLen returns the number of messages relocated to the software
// overflow ring and not yet dispatched.
func (n *Node) SoftQueueLen() int { return len(n.softQ) }

// Level returns the currently selected execution level.
func (n *Node) Level() int { return n.cur }

// Ctx exposes an execution context to system software.
func (n *Node) Ctx(level int) *Context { return &n.ctx[level] }

// Busy reports whether the node has any work: a runnable context, a
// pending message, or a multi-cycle instruction in progress.
func (n *Node) Busy() bool {
	if n.halted {
		return false
	}
	return n.stall > 0 ||
		n.ctx[LvlP0].Running || n.ctx[LvlP1].Running || n.ctx[LvlBG].Running ||
		n.Queues[0].HeadReady() || n.Queues[1].HeadReady() || len(n.softQ) > 0
}

// StartBackground makes the background context runnable at code address
// ip. The machine boot sequence uses it to seed driver threads.
func (n *Node) StartBackground(ip int32) {
	n.sync()
	n.ctx[LvlBG].IP = ip
	n.ctx[LvlBG].Running = true
	n.ctx[LvlBG].HandlerIP = -1
}

// EndThread terminates the thread at level, consuming its message if it
// was a handler. System software uses it to suspend faulting threads.
func (n *Node) EndThread(level int) {
	n.emit(trace.Event{Cycle: n.cycle, Node: int32(n.ID), Kind: trace.Suspend,
		A: n.ctx[level].IP, B: int32(level)})
	n.ctx[level].Running = false
	n.PopCurrentMessage(level)
}

// PopCurrentMessage consumes the message that invoked the thread at
// level — from the hardware queue, or from the software overflow ring
// when the thread was dispatched from a relocated message.
func (n *Node) PopCurrentMessage(level int) {
	if level == LvlP0 {
		if n.p0Soft {
			n.p0Soft = false
			n.softQ = n.softQ[1:]
			return
		}
		n.Queues[0].Pop()
	} else if level == LvlP1 {
		n.Queues[1].Pop()
	}
}

// haltFatal stops the node with a diagnostic.
func (n *Node) haltFatal(err error) {
	n.halted = true
	n.fatal = err
}

// Step advances the node one clock cycle.
func (n *Node) Step() {
	if n.halted {
		return
	}
	n.cycle++
	if n.frozen {
		n.Stats.Add(stats.CatIdle)
		return
	}
	if n.stall > 0 {
		n.stall--
		n.Stats.Add(n.stallCat)
		if len(n.fuseSegs) > 0 {
			n.fuseTick()
		}
		return
	}
	// Software overflow handling runs at instruction boundaries, ahead
	// of scheduling: a too-full queue has its head message relocated to
	// external memory.
	if n.Cfg.SoftQueue.Enable && n.relocateOverflow() {
		return
	}
	// Scheduling at an instruction boundary: a runnable priority-1
	// thread wins; otherwise a pending priority-1 message dispatches
	// (interrupting priority 0); then priority 0 — relocated messages
	// first, oldest first — then background.
	switch {
	case n.ctx[LvlP1].Running:
		n.switchTo(LvlP1)
	case n.Queues[1].HeadReady():
		n.dispatch(LvlP1)
		return
	case n.ctx[LvlP0].Running:
		n.switchTo(LvlP0)
	case len(n.softQ) > 0:
		n.dispatchSoft()
		return
	case n.Queues[0].HeadReady():
		n.dispatch(LvlP0)
		return
	case n.ctx[LvlBG].Running:
		n.switchTo(LvlBG)
	default:
		n.Stats.Add(stats.CatIdle)
		return
	}
	n.execOne()
}

// relocateOverflow moves the priority-0 head message into the
// external-memory ring when the hardware queue is above threshold,
// consuming this cycle plus the relocation's cost. Relocation uses
// fixed MaxMsgWords slots; a full ring falls back to hardware
// back-pressure.
func (n *Node) relocateOverflow() bool {
	q := n.Queues[0]
	sq := &n.Cfg.SoftQueue
	if q.Used() < sq.ThresholdWords || !q.HeadReady() {
		return false
	}
	slots := n.softWords / n.Cfg.MaxMsgWords
	if len(n.softQ) >= slots {
		return false // ring full: let the network hold the rest
	}
	words := q.HeadLen()
	if words > n.Cfg.MaxMsgWords {
		return false // oversized frame: leave it to back-pressure
	}
	slot := n.softAlloc
	n.softAlloc = (n.softAlloc + 1) % int32(slots)
	addr := n.softBase + slot*int32(n.Cfg.MaxMsgWords)
	for i := 0; i < words; i++ {
		if err := n.Mem.Write(addr+int32(i), q.WordAt(i)); err != nil {
			n.haltFatal(fmt.Errorf("mdp: node %d overflow buffer write: %w", n.ID, err))
			return true
		}
	}
	q.Pop()
	n.softQ = append(n.softQ, softMsg{addr: addr, words: words})
	n.Stats.OverflowFaults++
	n.emit(trace.Event{Cycle: n.cycle, Node: int32(n.ID), Kind: trace.Fault,
		A: int32(FaultQueueOverflow), B: int32(words)})
	cost := sq.CostPerMsg + int32(words)*(1+n.Cfg.Timing.EmemStore)
	n.chargeFirst(cost, stats.CatSync)
	return true
}

// dispatchSoft creates a task for the oldest relocated message: A3 is a
// segment descriptor over the external-memory copy, so the handler's
// message reads pay DRAM latency — the expense the paper warns about.
func (n *Node) dispatchSoft() {
	sm := n.softQ[0]
	hdr, err := n.Mem.Read(sm.addr)
	if err != nil || hdr.Tag() != word.TagMsg {
		n.haltFatal(fmt.Errorf("mdp: node %d relocated header corrupt: %v", n.ID, hdr))
		return
	}
	ip := hdr.HeaderIP()
	if ip < 0 || int(ip) >= len(n.Prog.Instrs) {
		n.haltFatal(fmt.Errorf("mdp: node %d relocated dispatch to %d", n.ID, ip))
		return
	}
	ctx := &n.ctx[LvlP0]
	ctx.IP = ip
	ctx.Running = true
	ctx.HandlerIP = ip
	ctx.Regs[isa.A3] = mem.Seg(sm.addr, sm.words)
	n.p0Soft = true
	n.cur = LvlP0
	n.Stats.BeginThread(ip, sm.words)
	n.emit(trace.Event{Cycle: n.cycle, Node: int32(n.ID), Kind: trace.Dispatch,
		A: ip, B: int32(sm.words)})
	n.chargeFirst(n.Cfg.Timing.Dispatch, stats.CatSync)
}

func (n *Node) switchTo(level int) {
	if n.cur != level {
		n.cur = level
		n.Stats.SetCurrent(n.ctx[level].HandlerIP)
	}
}

// dispatch creates a task for the head message at the queue feeding
// level: the Instruction Pointer is loaded from the message header, A3
// is set to address the message, and execution begins — four cycles.
func (n *Node) dispatch(level int) {
	pri := 0
	if level == LvlP1 {
		pri = 1
	}
	q := n.Queues[pri]
	hdr := q.WordAt(0)
	ip := hdr.HeaderIP()
	if hdr.Tag() != word.TagMsg || ip < 0 || int(ip) >= len(n.Prog.Instrs) {
		n.haltFatal(fmt.Errorf("mdp: node %d dispatched malformed header %s", n.ID, hdr))
		return
	}
	ctx := &n.ctx[level]
	ctx.IP = ip
	ctx.Running = true
	ctx.HandlerIP = ip
	ctx.Regs[isa.A3] = word.New(word.TagMsg, int32(pri))
	n.cur = level
	n.Stats.BeginThread(ip, q.HeadLen())
	n.emit(trace.Event{Cycle: n.cycle, Node: int32(n.ID), Kind: trace.Dispatch,
		A: ip, B: int32(q.HeadLen())})
	n.chargeFirst(n.Cfg.Timing.Dispatch, stats.CatSync)
}

// chargeFirst charges the first cycle of a multi-cycle operation now and
// schedules the remainder as stall cycles.
func (n *Node) chargeFirst(cost int32, cat stats.Cat) {
	n.Stats.Add(cat)
	n.stall = cost - 1
	n.stallCat = cat
}

// execOne executes the instruction at the current context's IP,
// performing fault service if needed, and charges its cycles.
func (n *Node) execOne() {
	if n.compiled != nil && n.runCompiled() {
		return
	}
	ctx := &n.ctx[n.cur]
	if ctx.IP < 0 || int(ctx.IP) >= len(n.Prog.Instrs) {
		n.haltFatal(fmt.Errorf("mdp: node %d IP %d outside program", n.ID, ctx.IP))
		return
	}
	in := n.Prog.Instrs[ctx.IP]
	res := n.exec(ctx, in)
	if n.halted {
		return
	}
	cost, cat := res.cost, res.cat
	if res.fault.set {
		f := Fault{Kind: res.fault.kind, Addr: res.fault.addr, Val: res.fault.val,
			IP: ctx.IP, Level: n.cur, Instr: in}
		cost += n.Cfg.Timing.FaultVector
		switch f.Kind {
		case FaultCfut, FaultFut:
			cat = stats.CatSync
			n.Stats.CfutFaults++
		case FaultXlateMiss:
			cat = stats.CatXlate
			n.Stats.XlateFaults++
		case FaultTrap:
			cat = stats.CatSync
		}
		n.emit(trace.Event{Cycle: n.cycle, Node: int32(n.ID), Kind: trace.Fault,
			A: int32(f.Kind), B: f.IP})
		if n.faultFn == nil {
			n.haltFatal(f)
			return
		}
		service, act := n.faultFn(n, f)
		cost += service
		switch act {
		case ActRetry:
			// IP unchanged; the instruction re-executes.
		case ActAdvance:
			ctx.IP++
		case ActResume:
			// System software installed a context; leave IP alone. The
			// Resume event marks the restored thread for span
			// reconstruction (internal/obs).
			n.emit(trace.Event{Cycle: n.cycle, Node: int32(n.ID), Kind: trace.Resume,
				A: ctx.IP, B: int32(n.cur)})
		case ActSuspend:
			n.EndThread(n.cur)
		case ActHalt:
			n.haltFatal(f)
			return
		}
	} else {
		ctx.IP = res.nextIP
		n.Stats.CountInstr()
	}
	if n.Cfg.CodeInEmem {
		cost += n.Cfg.Timing.EmemFetch
	}
	n.chargeFirst(cost, cat)
}
