package rt

import (
	"cmp"
	"fmt"
	"slices"

	"jmachine/internal/machine"
	"jmachine/internal/mdp"
	"jmachine/internal/word"
)

// Service is a registered trap service: it runs with full access to the
// node and the runtime's per-node state and returns the cycles consumed
// plus how the processor resumes.
type Service func(n *mdp.Node, ns *NodeState, f mdp.Fault) (int32, mdp.FaultAction)

// waiter is a thread suspended on an empty presence-tagged slot,
// awaiting the slot's value; the slot holds its id.
type waiter struct {
	id    int32
	level int
	ctx   mdp.Context
}

// binding is one entry of a node's name table.
type binding struct {
	key, val word.Word
}

// NodeState is the runtime's per-node private memory. Both tables are
// slices kept in ascending key order and sized by use: a node that
// never suspends or names anything holds neither, and checkpoints and
// lookups walk or bisect them in that order.
type NodeState struct {
	// saved holds the suspended threads by ascending id. Ids come from
	// nextWaiter and only grow, so a suspend appends.
	saved      []waiter
	nextWaiter int32
	// names is the memory-resident name table backing the hardware
	// translation cache, by ascending key; xlate misses re-enter from
	// here.
	names []binding
}

// findName returns the index of key in ns.names, or where it would be
// inserted.
func (ns *NodeState) findName(key word.Word) (int, bool) {
	return slices.BinarySearchFunc(ns.names, key, func(b binding, key word.Word) int {
		return cmp.Compare(uint64(b.key), uint64(key))
	})
}

// Runtime is one machine's system software instance.
type Runtime struct {
	M        *machine.Machine
	Policy   Policy
	nodes    []NodeState
	services map[int32]Service
	restore  int32 // code address of the rt.restore handler
	dack     int32 // code address of the rt.dack handler (-1 if absent)
}

// Attach installs the runtime on a machine running a program that
// includes the rt library (BuildLib). It preloads the boot constants
// into every node's memory and installs the fault handler.
func Attach(m *machine.Machine, prog ProgramInfo, pol Policy) *Runtime {
	r := &Runtime{
		M:        m,
		Policy:   pol,
		nodes:    make([]NodeState, m.NumNodes()),
		services: make(map[int32]Service),
		restore:  prog.RestoreEntry,
		dack:     prog.DackEntry,
	}
	x, y, z := m.Net.Dims()
	for _, n := range m.Nodes {
		must(n.Mem.Write(AddrNodeID, word.Int(int32(n.ID))))
		must(n.Mem.Write(AddrNumNodes, word.Int(int32(m.NumNodes()))))
		must(n.Mem.Write(AddrDimX, word.Int(int32(x))))
		must(n.Mem.Write(AddrDimY, word.Int(int32(y))))
		must(n.Mem.Write(AddrDimZ, word.Int(int32(z))))
	}
	m.SetFaultFn(r.fault)
	return r
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Node returns the runtime state of node id.
func (r *Runtime) Node(id int) *NodeState { return &r.nodes[id] }

// RegisterService adds a trap service (numbers ≥ SvcUserBase are
// reserved for language runtimes).
func (r *Runtime) RegisterService(num int32, s Service) {
	if _, dup := r.services[num]; dup {
		panic(fmt.Sprintf("rt: service %d registered twice", num))
	}
	r.services[num] = s
}

// DefineName publishes a global name on a node: it enters the
// translation into both the memory-resident table and the hardware
// cache (host-side operation used when constructing object worlds).
func (r *Runtime) DefineName(node int, key, val word.Word) {
	ns := &r.nodes[node]
	if i, ok := ns.findName(key); ok {
		ns.names[i].val = val
	} else {
		ns.names = slices.Insert(ns.names, i, binding{key, val})
	}
	r.M.Nodes[node].Xl.Enter(key, val)
}

// NameCount returns how many names node id has published.
func (r *Runtime) NameCount(id int) int { return len(r.nodes[id].names) }

// fault is the machine-wide trap entry.
func (r *Runtime) fault(n *mdp.Node, f mdp.Fault) (int32, mdp.FaultAction) {
	ns := &r.nodes[n.ID]
	switch f.Kind {
	case mdp.FaultCfut:
		return r.suspendOnCfut(n, ns, f)
	case mdp.FaultXlateMiss:
		if i, ok := ns.findName(f.Val); ok {
			n.Xl.Enter(f.Val, ns.names[i].val)
			return r.Policy.XlateMissCycles, mdp.ActRetry
		}
		return 0, mdp.ActHalt
	case mdp.FaultTrap:
		svc := f.Val.Data()
		switch svc {
		case SvcWriteSync:
			return r.writeSync(n, ns, f)
		case SvcRestore:
			return r.restoreThread(n, ns, f)
		default:
			if s, ok := r.services[svc]; ok {
				return s(n, ns, f)
			}
			return 0, mdp.ActHalt
		}
	default:
		return 0, mdp.ActHalt
	}
}

// suspendOnCfut implements the reader side of presence-tag
// synchronization: the thread that read a not-present slot is saved, a
// waiter id is recorded in the slot, and the thread ends. The value's
// eventual writer restarts it.
func (r *Runtime) suspendOnCfut(n *mdp.Node, ns *NodeState, f mdp.Fault) (int32, mdp.FaultAction) {
	if f.Addr < 0 {
		// A cfut in a register has no slot to hang a waiter on; this is
		// a programming error in our applications.
		return 0, mdp.ActHalt
	}
	old, err := n.Mem.Read(f.Addr)
	if err != nil || !old.IsCfut() {
		return 0, mdp.ActHalt
	}
	if old.Data() != 0 {
		// Single-waiter slots: a second reader would need a waiter
		// list, which this runtime (like Tuned-J) does not provide.
		return 0, mdp.ActHalt
	}
	ns.nextWaiter++
	id := ns.nextWaiter
	ns.saved = append(ns.saved, waiter{id: id, level: f.Level, ctx: *n.Ctx(f.Level)})
	must(n.Mem.Write(f.Addr, word.Cfut(id)))
	return r.Policy.SaveCycles, mdp.ActSuspend
}

// writeSync services the slow path of a synchronizing write: A0 holds
// the slot address, R0 the value. If the slot records a waiter the saved
// thread is restarted via a local restore message.
func (r *Runtime) writeSync(n *mdp.Node, ns *NodeState, f mdp.Fault) (int32, mdp.FaultAction) {
	ctx := n.Ctx(f.Level)
	addrW := ctx.Regs[4] // A0
	val := ctx.Regs[0]   // R0
	addr := addrW.Data()
	old, err := n.Mem.Read(addr)
	if err != nil {
		return 0, mdp.ActHalt
	}
	if old.IsCfut() && old.Data() != 0 {
		// Restart the waiter with a local message; if the queue lacks
		// space, stall the writer and retry (injection back-pressure).
		hdr := word.MsgHeader(r.restore, 2)
		if !pushLocal(n, hdr, word.Int(old.Data())) {
			return 1, mdp.ActRetry
		}
	}
	must(n.Mem.Write(addr, val))
	return r.Policy.WriteRestartCycles, mdp.ActAdvance
}

// pushLocal delivers a two-word message directly into the node's own
// priority-0 queue (privileged-software path; charged by the caller).
func pushLocal(n *mdp.Node, hdr, arg word.Word) bool {
	q := n.Queues[0]
	if q.Free() < 2 {
		return false
	}
	if !q.Push(hdr) {
		return false
	}
	q.Push(arg)
	return true
}

// restoreThread services the rt.restore handler's trap: message word 1
// names a saved thread; its context is reinstalled at its original
// level.
func (r *Runtime) restoreThread(n *mdp.Node, ns *NodeState, f mdp.Fault) (int32, mdp.FaultAction) {
	q := n.Queues[0]
	id := q.WordAt(1).Data()
	i, ok := slices.BinarySearchFunc(ns.saved, id, func(w waiter, id int32) int {
		return cmp.Compare(w.id, id)
	})
	if !ok {
		return 0, mdp.ActHalt
	}
	st := ns.saved[i]
	ns.saved = slices.Delete(ns.saved, i, i+1)
	if st.level == f.Level {
		// Replace the restore handler's own context: consume its
		// message first, then resume the saved thread in place.
		n.PopCurrentMessage(f.Level)
		*n.Ctx(st.level) = st.ctx
		n.Ctx(st.level).Running = true
		n.Stats.SetCurrent(st.ctx.HandlerIP)
		return r.Policy.RestoreCycles, mdp.ActResume
	}
	// Different level (a background or priority-1 thread): reinstall it
	// there and end the restore handler normally.
	*n.Ctx(st.level) = st.ctx
	n.Ctx(st.level).Running = true
	return r.Policy.RestoreCycles, mdp.ActSuspend
}

// SavedThreads returns how many threads node id has suspended awaiting
// values (for tests).
func (r *Runtime) SavedThreads(id int) int { return len(r.nodes[id].saved) }
