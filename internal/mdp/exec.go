package mdp

import (
	"jmachine/internal/isa"
	"jmachine/internal/mem"
	"jmachine/internal/network"
	"jmachine/internal/stats"
	"jmachine/internal/trace"
	"jmachine/internal/word"
)

// execResult reports one instruction's outcome: cycles consumed, the
// statistics category they belong to, the next IP, or a fault.
type execResult struct {
	cost   int32
	cat    stats.Cat
	nextIP int32
	fault  raised
}

func (n *Node) res(cost int32, cat stats.Cat, next int32) execResult {
	return execResult{cost: cost, cat: cat, nextIP: next}
}

func faultRes(k FaultKind, addr int32, v word.Word) execResult {
	return execResult{cost: 0, fault: raise(k, addr, v)}
}

// raised is a fault as the instruction that raises it sees it: its
// kind, address and offending word. It is a value, so that raising a
// fault — a presence fault on every touch of an unresolved future, a
// TRAP on every system call — allocates nothing; execOne completes it
// into the Fault handed to system software. The zero value, with set
// false, is no fault.
type raised struct {
	kind FaultKind
	set  bool
	addr int32
	val  word.Word
}

// raise returns a fault of kind k at address addr on word v.
func raise(k FaultKind, addr int32, v word.Word) raised {
	return raised{kind: k, set: true, addr: addr, val: v}
}

// readReg reads a register code, including the shared specials.
func (n *Node) readReg(ctx *Context, r isa.Reg) word.Word {
	if r < 8 {
		return ctx.Regs[r]
	}
	switch r {
	case isa.NNR:
		return n.nnr
	case isa.QLEN:
		return word.Int(int32(n.Queues[0].Used()))
	case isa.PRI:
		switch n.cur {
		case LvlP1:
			return word.Int(1)
		case LvlBG:
			return word.Int(2)
		default:
			return word.Int(0)
		}
	case isa.CYC:
		return word.Int(int32(n.cycle))
	case isa.RGN:
		return word.Int(int32(n.region))
	default: // ZERO and reserved codes
		return word.Int(0)
	}
}

// writeReg writes a register code; writes to read-only specials are
// discarded, and RGN adjusts statistics attribution.
func (n *Node) writeReg(ctx *Context, r isa.Reg, w word.Word) {
	if r < 8 {
		ctx.Regs[r] = w
		return
	}
	if r == isa.RGN {
		if w.Data() == int32(stats.CatNNR) {
			n.region = stats.CatNNR
		} else {
			n.region = stats.CatComp
		}
	}
}

// presence checks a word against the presence tags. Consuming uses fault
// on both cfut and fut; copying uses (MOVE, SEND, ENTER values) fault
// only on cfut — futures are first-class and may be copied freely.
func presence(w word.Word, consuming bool) raised {
	switch w.Tag() {
	case word.TagCfut:
		return raise(FaultCfut, -1, w)
	case word.TagFut:
		if consuming {
			return raise(FaultFut, -1, w)
		}
	}
	return raised{}
}

// memRef is a resolved memory operand.
type memRef struct {
	queue    bool // reference into the current message via A3
	pri      int  // queue priority when queue
	addr     int32
	internal bool
}

// resolveMem resolves a ModeMem/ModeMemReg operand through its address
// register: raw integer addresses, segment descriptors (bounds-checked),
// or message-relative references (TagMsg in an address register).
func (n *Node) resolveMem(ctx *Context, op isa.Operand) (memRef, raised) {
	base := ctx.Regs[op.Reg]
	off := op.Imm
	if op.Mode == isa.ModeMemReg {
		idx := ctx.Regs[op.Idx]
		if f := presence(idx, true); f.set {
			return memRef{}, f
		}
		off = idx.Data()
	}
	switch base.Tag() {
	case word.TagMsg:
		pri := int(base.Data() & 1)
		q := n.Queues[pri]
		if !q.HeadReady() || off < 0 || int(off) >= q.HeadLen() {
			return memRef{}, raise(FaultBounds, off, base)
		}
		return memRef{queue: true, pri: pri, addr: off}, raised{}
	case word.TagAddr:
		addr, err := mem.SegAddr(base, off)
		if err != nil {
			return memRef{}, raise(FaultBounds, off, base)
		}
		return memRef{addr: addr, internal: n.Mem.IsInternal(addr)}, raised{}
	case word.TagInt, word.TagIP:
		addr := base.Data() + off
		if addr < 0 || int(addr) >= n.Mem.Size() {
			return memRef{}, raise(FaultBounds, addr, base)
		}
		return memRef{addr: addr, internal: n.Mem.IsInternal(addr)}, raised{}
	case word.TagCfut:
		return memRef{}, raise(FaultCfut, -1, base)
	case word.TagFut:
		return memRef{}, raise(FaultFut, -1, base)
	default:
		return memRef{}, raise(FaultBadTag, -1, base)
	}
}

// loadCost returns the extra cycles of reading through ref.
func (n *Node) loadCost(ref memRef) int32 {
	t := &n.Cfg.Timing
	switch {
	case ref.queue:
		return t.QueueLoad
	case ref.internal:
		return t.ImemLoad
	default:
		return t.EmemLoad
	}
}

// readOperand evaluates operand op. raw suppresses presence faults (tag
// inspection); consuming selects the stricter presence rule.
func (n *Node) readOperand(ctx *Context, op isa.Operand, consuming, raw bool) (word.Word, int32, raised) {
	switch op.Mode {
	case isa.ModeReg:
		w := n.readReg(ctx, op.Reg)
		if !raw {
			if f := presence(w, consuming); f.set {
				return 0, 0, f
			}
		}
		return w, 0, raised{}
	case isa.ModeImm:
		return word.Int(op.Imm), 0, raised{}
	default:
		ref, f := n.resolveMem(ctx, op)
		if f.set {
			return 0, 0, f
		}
		var w word.Word
		if ref.queue {
			w = n.Queues[ref.pri].WordAt(int(ref.addr))
		} else {
			w, _ = n.Mem.Read(ref.addr) // bounds already checked
		}
		if !raw {
			if f := presence(w, consuming); f.set {
				f.addr = ref.addr
				return 0, 0, f
			}
		}
		return w, n.loadCost(ref), raised{}
	}
}

// exec interprets one instruction.
func (n *Node) exec(ctx *Context, in isa.Instr) execResult {
	t := &n.Cfg.Timing
	next := ctx.IP + 1
	cat := n.region

	switch in.Op {
	case isa.NOP:
		return n.res(1, cat, next)

	case isa.MOVE:
		w, extra, f := n.readOperand(ctx, in.B, false, false)
		if f.set {
			return execResult{fault: f}
		}
		n.writeReg(ctx, in.A, w)
		return n.res(1+extra, cat, next)

	case isa.ST:
		if !in.B.IsMem() {
			return faultRes(FaultBadInstr, -1, 0)
		}
		ref, f := n.resolveMem(ctx, in.B)
		if f.set {
			return execResult{fault: f}
		}
		if ref.queue {
			return faultRes(FaultBadTag, ref.addr, ctx.Regs[in.B.Reg])
		}
		// Stores move all 36 bits; writing a cfut word is how software
		// creates presence slots, so no presence check applies.
		w := n.readReg(ctx, in.A)
		if err := n.Mem.Write(ref.addr, w); err != nil {
			return faultRes(FaultBounds, ref.addr, w)
		}
		extra := t.ImemStore
		if !ref.internal {
			extra = t.EmemStore
		}
		return n.res(1+extra, cat, next)

	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD,
		isa.AND, isa.OR, isa.XOR, isa.LSH, isa.ASH:
		a := n.readReg(ctx, in.A)
		if f := presence(a, true); f.set {
			return execResult{fault: f}
		}
		b, extra, f := n.readOperand(ctx, in.B, true, false)
		if f.set {
			return execResult{fault: f}
		}
		var v int32
		x, y := a.Data(), b.Data()
		switch in.Op {
		case isa.ADD:
			v = x + y
		case isa.SUB:
			v = x - y
		case isa.MUL:
			v = x * y
			extra += t.Mul
		case isa.DIV:
			if y == 0 {
				return faultRes(FaultBadInstr, -1, b)
			}
			v = x / y
			extra += t.DivMod
		case isa.MOD:
			if y == 0 {
				return faultRes(FaultBadInstr, -1, b)
			}
			v = x % y
			extra += t.DivMod
		case isa.AND:
			v = x & y
		case isa.OR:
			v = x | y
		case isa.XOR:
			v = x ^ y
		case isa.LSH:
			v = shiftL(x, y)
		case isa.ASH:
			v = shiftA(x, y)
		}
		n.writeReg(ctx, in.A, word.Int(v))
		return n.res(1+extra, cat, next)

	case isa.NOT, isa.NEG:
		a := n.readReg(ctx, in.A)
		if f := presence(a, true); f.set {
			return execResult{fault: f}
		}
		v := a.Data()
		if in.Op == isa.NOT {
			v = ^v
		} else {
			v = -v
		}
		n.writeReg(ctx, in.A, word.Int(v))
		return n.res(1, cat, next)

	case isa.EQ, isa.NE, isa.LT, isa.LE, isa.GT, isa.GE:
		a := n.readReg(ctx, in.A)
		if f := presence(a, true); f.set {
			return execResult{fault: f}
		}
		b, extra, f := n.readOperand(ctx, in.B, true, false)
		if f.set {
			return execResult{fault: f}
		}
		var r bool
		x, y := a.Data(), b.Data()
		switch in.Op {
		case isa.EQ:
			r = x == y
		case isa.NE:
			r = x != y
		case isa.LT:
			r = x < y
		case isa.LE:
			r = x <= y
		case isa.GT:
			r = x > y
		case isa.GE:
			r = x >= y
		}
		n.writeReg(ctx, in.A, word.Bool(r))
		return n.res(1+extra, cat, next)

	case isa.BR:
		return n.res(1+t.BranchTaken, cat, in.B.Imm)

	case isa.BT, isa.BF:
		a := n.readReg(ctx, in.A)
		if f := presence(a, true); f.set {
			return execResult{fault: f}
		}
		taken := a.Truthy() == (in.Op == isa.BT)
		if taken {
			return n.res(1+t.BranchTaken, cat, in.B.Imm)
		}
		return n.res(1, cat, next)

	case isa.BSR:
		n.writeReg(ctx, in.A, word.IP(next))
		return n.res(1+t.BranchTaken, cat, in.B.Imm)

	case isa.JMP:
		b, extra, f := n.readOperand(ctx, in.B, true, false)
		if f.set {
			return execResult{fault: f}
		}
		return n.res(1+t.BranchTaken+extra, cat, b.Data())

	case isa.SUSPEND:
		n.EndThread(n.cur)
		return n.res(1, stats.CatSync, next)

	case isa.HALT:
		n.halted = true
		n.emit(trace.Event{Cycle: n.cycle, Node: int32(n.ID), Kind: trace.Halt,
			A: ctx.IP})
		return n.res(1, cat, next)

	case isa.SEND, isa.SEND2, isa.SENDE, isa.SEND2E,
		isa.SEND1, isa.SEND21, isa.SENDE1, isa.SEND2E1:
		return n.execSend(ctx, in)

	case isa.ENTER:
		key := n.readReg(ctx, in.A)
		if f := presence(key, true); f.set {
			return execResult{fault: f}
		}
		val, extra, f := n.readOperand(ctx, in.B, false, false)
		if f.set {
			return execResult{fault: f}
		}
		n.Xl.Enter(key, val)
		return n.res(t.Enter+extra, stats.CatXlate, next)

	case isa.XLATE:
		key, extra, f := n.readOperand(ctx, in.B, true, false)
		if f.set {
			return execResult{fault: f}
		}
		v, ok := n.Xl.Lookup(key)
		if !ok {
			return execResult{cost: t.Xlate + extra, fault: raise(FaultXlateMiss, -1, key)}
		}
		n.writeReg(ctx, in.A, v)
		return n.res(t.Xlate+extra, stats.CatXlate, next)

	case isa.PROBE:
		key, extra, f := n.readOperand(ctx, in.B, false, false)
		if f.set {
			return execResult{fault: f}
		}
		_, ok := n.Xl.Probe(key)
		n.writeReg(ctx, in.A, word.Bool(ok))
		return n.res(t.Xlate+extra, stats.CatXlate, next)

	case isa.RTAG:
		w, extra, f := n.readOperand(ctx, in.B, false, true)
		if f.set {
			return execResult{fault: f}
		}
		n.writeReg(ctx, in.A, word.Int(int32(w.Tag())))
		return n.res(1+extra, cat, next)

	case isa.ISCF:
		w, extra, f := n.readOperand(ctx, in.B, false, true)
		if f.set {
			return execResult{fault: f}
		}
		n.writeReg(ctx, in.A, word.Bool(w.IsCfut()))
		return n.res(1+extra, cat, next)

	case isa.TRAP:
		svc, extra, f := n.readOperand(ctx, in.B, true, false)
		if f.set {
			return execResult{fault: f}
		}
		return execResult{cost: extra, fault: raise(FaultTrap, -1, svc)}

	case isa.WTAG:
		b, extra, f := n.readOperand(ctx, in.B, true, false)
		if f.set {
			return execResult{fault: f}
		}
		old := n.readReg(ctx, in.A) // raw: retagging never faults
		n.writeReg(ctx, in.A, old.WithTag(word.Tag(b.Data()&0xF)))
		return n.res(1+extra, cat, next)

	default:
		return faultRes(FaultBadInstr, -1, 0)
	}
}

// execSend implements the SEND family: words accumulate into a building
// buffer; the ending variants validate and hand the message to the
// network, stalling with a send fault while injection capacity is
// lacking (network back-pressure).
func (n *Node) execSend(ctx *Context, in isa.Instr) execResult {
	pri := in.Op.SendPriority()
	next := ctx.IP + 1
	b := n.building[n.cur][pri]

	// A retried ending send has already appended its words (the message
	// is complete and waiting for injection capacity).
	complete := len(b) > 0 && in.Op.SendEnds() && n.pendingLen[n.cur][pri] > 0
	var extra int32
	if !complete {
		if len(b) >= 1+n.Cfg.MaxMsgWords {
			return faultRes(FaultBadTag, -1, word.Int(int32(len(b))))
		}
		if in.Op.SendWords() == 2 {
			a := n.readReg(ctx, in.A)
			if f := presence(a, false); f.set {
				return execResult{fault: f}
			}
			b = append(b, a)
		}
		w, ex, f := n.readOperand(ctx, in.B, false, false)
		if f.set {
			return execResult{fault: f}
		}
		extra = ex
		b = append(b, w)
		n.building[n.cur][pri] = b
		if in.Op.SendEnds() {
			if f := validateMessage(b); f.set {
				n.building[n.cur][pri] = b[:0]
				return execResult{fault: f}
			}
			if n.Net.NodeFromWord(b[0]) < 0 {
				n.building[n.cur][pri] = b[:0]
				return execResult{fault: raise(FaultBadTag, -1, b[0])}
			}
			n.pendingLen[n.cur][pri] = len(b) - 1
		}
	}
	if !in.Op.SendEnds() {
		return n.res(1+extra, stats.CatComm, next)
	}

	// Injection attempt.
	payload := len(b) - 1
	if n.Net.OutboxFree(n.ID, pri) < payload {
		n.Stats.SendFaults++
		n.Stats.SendFaultCycles++
		return n.res(1, stats.CatComm, ctx.IP) // stall and retry
	}
	x, y, z := b[0].NodeXYZ()
	// Injection is deferred by the ending send's operand latency: a word
	// served from external memory cannot be on the wire before it is
	// read. The message (and its payload buffer) is leased from the
	// network's recycling pool; the network reclaims it at delivery.
	m := network.NewMessage()
	m.DestX, m.DestY, m.DestZ = int8(x), int8(y), int8(z)
	m.Pri, m.Src = int8(pri), int32(n.ID)
	m.Words = append(m.Words, b[1:]...)
	n.Net.Inject(n.ID, m, extra)
	n.Stats.MsgsSent[pri]++
	n.Stats.WordsSent[pri] += uint64(payload)
	n.emit(trace.Event{Cycle: n.cycle, Node: int32(n.ID), Kind: trace.Send,
		A: int32(n.Net.NodeFromWord(b[0])), B: int32(payload)})
	n.building[n.cur][pri] = b[:0]
	n.pendingLen[n.cur][pri] = 0
	return n.res(1+extra, stats.CatComm, next)
}

// validateMessage checks a complete building buffer: destination word,
// then a header whose length covers the payload.
func validateMessage(b []word.Word) raised {
	if len(b) < 2 {
		return raise(FaultBadTag, -1, word.Int(int32(len(b))))
	}
	dest := b[0]
	if dest.Tag() != word.TagNode {
		return raise(FaultBadTag, -1, dest)
	}
	hdr := b[1]
	if hdr.Tag() != word.TagMsg || hdr.HeaderLen() != len(b)-1 {
		return raise(FaultBadTag, -1, hdr)
	}
	return raised{}
}

func shiftL(x, by int32) int32 {
	switch {
	case by >= 32 || by <= -32:
		return 0
	case by >= 0:
		return int32(uint32(x) << uint(by))
	default:
		return int32(uint32(x) >> uint(-by))
	}
}

func shiftA(x, by int32) int32 {
	switch {
	case by >= 32:
		return 0
	case by >= 0:
		return int32(uint32(x) << uint(by))
	case by <= -32:
		return x >> 31
	default:
		return x >> uint(-by)
	}
}
