// Package compiled is the ahead-of-time execution tier for MDP handler
// programs: it translates an assembled, statically verified program
// (asm.Translate, docs/COMPILED.md) into one specialized Go closure per
// instruction and installs the result on a machine's nodes. The
// interpreter (internal/mdp) remains the semantic oracle: every closure
// either executes its instruction byte-identically — same register,
// memory, translation-table, statistics, and timing effects — or bails
// having mutated nothing, handing the boundary back to the interpreter.
//
// The bail set is exactly the operations whose effects reach beyond the
// executing thread: the SEND family (network injection, back-pressure
// retries, trace events), SUSPEND/HALT/TRAP, writes to the RGN
// statistics register, every condition the interpreter would turn into
// a fault (presence tags, bounds, translation misses, division by
// zero), and reads of delivery-queue state at fused offsets where that
// state could lag (QLEN and message-relative operands when the network
// is not certified quiet). Dispatch, fault service, freeze/kill, and
// checkpoint capture live outside the instruction boundary entirely and
// are untouched.
package compiled

import (
	"slices"

	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/mdp"
	"jmachine/internal/mem"
	"jmachine/internal/stats"
	"jmachine/internal/word"
)

// Compile verifies and translates a program into a compiled image. The
// allowances are the asm.Check suppressions the program needs (e.g.
// rt.CheckAllowances for anything linking the runtime library); a
// program the verifier rejects is not translated. Instructions the
// tier declines — bail-set members and unreachable code — get a nil
// slot, which the node treats as "always interpret".
func Compile(p *asm.Program, allow ...asm.Allowance) (*mdp.CompiledProgram, error) {
	tr, err := asm.Translate(p, allow...)
	if err != nil {
		return nil, err
	}
	fns := make([]mdp.InstrFn, len(p.Instrs))
	for _, b := range tr.Blocks {
		if !tr.Reachable[b.Start] {
			continue // undefined behaviour stays on the interpreter
		}
		for i := b.Start; i < b.End; i++ {
			fns[i] = compileInstr(p.Instrs[i], i)
		}
	}
	// The image is send-free only if no instruction, reachable or not,
	// has a finite send distance: the bit licenses fusion windows past
	// the quiet rule's fixed lookahead, so it must hold for anything the
	// machine could conceivably execute (effects.go certifies the full
	// stream).
	sendFree := !slices.ContainsFunc(tr.Certs.SendDist, func(d int32) bool { return d < asm.InfDist })
	return &mdp.CompiledProgram{Fns: fns, SendFree: sendFree}, nil
}

// presenceOK reports whether a word passes the presence check: cfut
// always faults, fut faults only for consuming reads (mirrors
// mdp.presence, which builds the fault the interpreter will re-derive
// after the bail).
func presenceOK(w word.Word, consuming bool) bool {
	switch w.Tag() {
	case word.TagCfut:
		return false
	case word.TagFut:
		return !consuming
	}
	return true
}

// readSpecial reads a shared special register. QLEN is the one special
// whose value tracks network deliveries, so at a fused offset it is
// only admissible under the quiet certification; everything else is
// constant across a fused window (PRI because dispatch bails, RGN
// because RGN writes bail, CYC by adding the offset).
func readSpecial(n *mdp.Node, r isa.Reg, off int32, quiet bool) (word.Word, bool) {
	switch r {
	case isa.NNR:
		return n.NNR(), true
	case isa.QLEN:
		if off > 0 && !quiet {
			return 0, false
		}
		return word.Int(int32(n.Queues[0].Used())), true
	case isa.PRI:
		switch n.Level() {
		case mdp.LvlP1:
			return word.Int(1), true
		case mdp.LvlBG:
			return word.Int(2), true
		default:
			return word.Int(0), true
		}
	case isa.CYC:
		return word.Int(int32(n.Cycle() + int64(off))), true
	case isa.RGN:
		return word.Int(int32(n.RegionCat())), true
	default: // ZERO and reserved codes
		return word.Int(0), true
	}
}

// memRef mirrors the interpreter's resolved memory operand.
type memRef struct {
	queue    bool
	pri      int
	addr     int32
	internal bool
}

// resolveMem resolves a memory operand exactly as the interpreter does,
// with two extra bail conditions: any outcome the interpreter would
// fault on, and message-relative references at fused offsets without
// the quiet certification (the head message's bounds and words track
// deliveries). The operand's registers are < 8 — compileInstr declines
// anything else.
func resolveMem(n *mdp.Node, ctx *mdp.Context, op isa.Operand, off int32, quiet bool) (memRef, bool) {
	o := op.Imm
	if op.Mode == isa.ModeMemReg {
		idx := ctx.Regs[op.Idx]
		if !presenceOK(idx, true) {
			return memRef{}, false
		}
		o = idx.Data()
	}
	return resolveMemOff(n, ctx.Regs[op.Reg], o, off, quiet)
}

// resolveMemOff is resolveMem with the offset already read: the common
// immediate-offset form calls it directly with scalar arguments, which
// profiles measurably cheaper than passing the operand struct.
func resolveMemOff(n *mdp.Node, base word.Word, o, off int32, quiet bool) (memRef, bool) {
	switch base.Tag() {
	case word.TagMsg:
		if off > 0 && !quiet {
			return memRef{}, false
		}
		pri := int(base.Data() & 1)
		q := n.Queues[pri]
		if !q.HeadReady() || o < 0 || int(o) >= q.HeadLen() {
			return memRef{}, false // FaultBounds on the interpreter
		}
		return memRef{queue: true, pri: pri, addr: o}, true
	case word.TagAddr:
		// mem.SegAddr's bounds check, without its error construction
		// (which keeps this function out of the inliner's budget).
		if o < 0 || int(o) >= mem.SegLen(base) {
			return memRef{}, false
		}
		addr := mem.SegBase(base) + o
		return memRef{addr: addr, internal: n.Mem.IsInternal(addr)}, true
	case word.TagInt, word.TagIP:
		addr := base.Data() + o
		if addr < 0 || int(addr) >= n.Mem.Size() {
			return memRef{}, false
		}
		return memRef{addr: addr, internal: n.Mem.IsInternal(addr)}, true
	default: // cfut, fut, and untyped bases all fault
		return memRef{}, false
	}
}

func loadCost(n *mdp.Node, ref memRef) int32 {
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

// operandFn is a specialized reader for one instruction's B operand:
// value, extra access cycles, ok=false to bail.
type operandFn func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (word.Word, int32, bool)

// compileOperand specializes the interpreter's readOperand for one
// operand at translation time: immediates become captured constants,
// direct register reads skip the mode switch, memory modes keep the
// full resolution path.
func compileOperand(b isa.Operand, consuming, raw bool) operandFn {
	switch b.Mode {
	case isa.ModeImm:
		w := word.Int(b.Imm)
		return func(*mdp.Node, *mdp.Context, int32, bool) (word.Word, int32, bool) {
			return w, 0, true
		}
	case isa.ModeReg:
		r := b.Reg
		if r < 8 {
			if raw {
				return func(_ *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (word.Word, int32, bool) {
					return ctx.Regs[r], 0, true
				}
			}
			return func(_ *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (word.Word, int32, bool) {
				w := ctx.Regs[r]
				if !presenceOK(w, consuming) {
					return 0, 0, false
				}
				return w, 0, true
			}
		}
		// Specials always read as plain tagged values, never presence
		// faults; QLEN's fused-offset rule lives in readSpecial.
		return func(n *mdp.Node, _ *mdp.Context, off int32, quiet bool) (word.Word, int32, bool) {
			w, ok := readSpecial(n, r, off, quiet)
			return w, 0, ok
		}
	default:
		op := b
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (word.Word, int32, bool) {
			ref, ok := resolveMem(n, ctx, op, off, quiet)
			if !ok {
				return 0, 0, false
			}
			var w word.Word
			if ref.queue {
				w = n.Queues[ref.pri].WordAt(int(ref.addr))
			} else {
				w, _ = n.Mem.Read(ref.addr) // bounds already checked
			}
			if !raw && !presenceOK(w, consuming) {
				return 0, 0, false
			}
			return w, loadCost(n, ref), true
		}
	}
}

// regReadFn reads one instruction's A register (value, ok=false bails).
type regReadFn func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (word.Word, bool)

func compileRegRead(r isa.Reg, consuming, raw bool) regReadFn {
	if r < 8 {
		if raw {
			return func(_ *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (word.Word, bool) {
				return ctx.Regs[r], true
			}
		}
		return func(_ *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (word.Word, bool) {
			w := ctx.Regs[r]
			if !presenceOK(w, consuming) {
				return 0, false
			}
			return w, true
		}
	}
	return func(n *mdp.Node, _ *mdp.Context, off int32, quiet bool) (word.Word, bool) {
		return readSpecial(n, r, off, quiet)
	}
}

// regWriteFn stores an instruction result; nil means the destination is
// not compilable (RGN, whose write redirects statistics attribution —
// a bail-set member so the interpreter stays the only writer).
type regWriteFn func(ctx *mdp.Context, w word.Word)

func compileRegWrite(r isa.Reg) regWriteFn {
	if r < 8 {
		return func(ctx *mdp.Context, w word.Word) { ctx.Regs[r] = w }
	}
	if r == isa.RGN {
		return nil
	}
	// Writes to the remaining specials are discarded, as in writeReg.
	return func(*mdp.Context, word.Word) {}
}

// memOperandOK reports whether a memory operand's registers are within
// the architectural file. The interpreter indexes ctx.Regs with them
// unchecked, so an out-of-range register must stay on the interpreter
// to reproduce its behaviour exactly.
func memOperandOK(b isa.Operand) bool {
	if !b.IsMem() {
		return true
	}
	if b.Reg >= 8 {
		return false
	}
	return b.Mode != isa.ModeMemReg || b.Idx < 8
}

// aluEval computes one ALU result plus its extra cycle cost; ok=false
// for division by zero (FaultBadInstr on the interpreter).
func aluEval(op isa.Op, x, y int32, t *mdp.Timing) (v, extra int32, ok bool) {
	switch op {
	case isa.ADD:
		v = x + y
	case isa.SUB:
		v = x - y
	case isa.MUL:
		v, extra = x*y, t.Mul
	case isa.DIV:
		if y == 0 {
			return 0, 0, false
		}
		v, extra = x/y, t.DivMod
	case isa.MOD:
		if y == 0 {
			return 0, 0, false
		}
		v, extra = x%y, t.DivMod
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
	return v, extra, true
}

// compileALUImm is the flat ALU fast path for an architectural-register
// destination and an immediate operand: one closure, no nested operand
// readers. The single-cycle ops get per-op closures with the arithmetic
// inline — aluEval's op switch is beyond the inliner's budget, and its
// call shows up in profiles at the same order as the arithmetic itself.
// Returns nil for division by a zero immediate (the interpreter's
// unconditional fault path keeps the boundary).
func compileALUImm(in isa.Instr, next int32) mdp.InstrFn {
	ra, y, op := in.A, in.B.Imm, in.Op
	if (op == isa.DIV || op == isa.MOD) && y == 0 {
		return nil
	}
	aluImm := func(eval func(x int32) int32) mdp.InstrFn {
		return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
			w := ctx.Regs[ra]
			if t := w.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
				return 0, 0, 0, false
			}
			ctx.Regs[ra] = word.Int(eval(w.Data()))
			return 1, n.RegionCat(), next, true
		}
	}
	switch op {
	case isa.ADD:
		return aluImm(func(x int32) int32 { return x + y })
	case isa.SUB:
		return aluImm(func(x int32) int32 { return x - y })
	case isa.AND:
		return aluImm(func(x int32) int32 { return x & y })
	case isa.OR:
		return aluImm(func(x int32) int32 { return x | y })
	case isa.XOR:
		return aluImm(func(x int32) int32 { return x ^ y })
	case isa.LSH:
		return aluImm(func(x int32) int32 { return shiftL(x, y) })
	case isa.ASH:
		return aluImm(func(x int32) int32 { return shiftA(x, y) })
	}
	return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
		w := ctx.Regs[ra]
		if t := w.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
			return 0, 0, 0, false
		}
		v, extra, ok := aluEval(op, w.Data(), y, &n.Cfg.Timing)
		if !ok {
			return 0, 0, 0, false
		}
		ctx.Regs[ra] = word.Int(v)
		return 1 + extra, n.RegionCat(), next, true
	}
}

// compileALUReg is compileALUImm's register-operand counterpart.
func compileALUReg(in isa.Instr, next int32) mdp.InstrFn {
	ra, rb, op := in.A, in.B.Reg, in.Op
	aluReg := func(eval func(x, y int32) int32) mdp.InstrFn {
		return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
			a := ctx.Regs[ra]
			if t := a.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
				return 0, 0, 0, false
			}
			b := ctx.Regs[rb]
			if t := b.Tag(); t == word.TagCfut || t == word.TagFut {
				return 0, 0, 0, false
			}
			ctx.Regs[ra] = word.Int(eval(a.Data(), b.Data()))
			return 1, n.RegionCat(), next, true
		}
	}
	switch op {
	case isa.ADD:
		return aluReg(func(x, y int32) int32 { return x + y })
	case isa.SUB:
		return aluReg(func(x, y int32) int32 { return x - y })
	case isa.AND:
		return aluReg(func(x, y int32) int32 { return x & y })
	case isa.OR:
		return aluReg(func(x, y int32) int32 { return x | y })
	case isa.XOR:
		return aluReg(func(x, y int32) int32 { return x ^ y })
	case isa.LSH:
		return aluReg(shiftL)
	case isa.ASH:
		return aluReg(shiftA)
	}
	return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
		a := ctx.Regs[ra]
		if t := a.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
			return 0, 0, 0, false
		}
		b := ctx.Regs[rb]
		if t := b.Tag(); t == word.TagCfut || t == word.TagFut {
			return 0, 0, 0, false
		}
		v, extra, ok := aluEval(op, a.Data(), b.Data(), &n.Cfg.Timing)
		if !ok {
			return 0, 0, 0, false
		}
		ctx.Regs[ra] = word.Int(v)
		return 1 + extra, n.RegionCat(), next, true
	}
}

// compileALUMem is the memory-operand ALU fast path: resolveMem called
// directly, no operand-closure indirection. The immediate-offset form
// additionally gets the scalar-argument resolver and, for single-cycle
// ops, an inline eval function instead of the aluEval switch.
func compileALUMem(in isa.Instr, next int32) mdp.InstrFn {
	ra, op, bop := in.A, in.B, in.Op
	if op.Mode == isa.ModeMem {
		var eval func(x, y int32) int32
		switch bop {
		case isa.ADD:
			eval = func(x, y int32) int32 { return x + y }
		case isa.SUB:
			eval = func(x, y int32) int32 { return x - y }
		case isa.AND:
			eval = func(x, y int32) int32 { return x & y }
		case isa.OR:
			eval = func(x, y int32) int32 { return x | y }
		case isa.XOR:
			eval = func(x, y int32) int32 { return x ^ y }
		case isa.LSH:
			eval = shiftL
		case isa.ASH:
			eval = shiftA
		}
		if eval != nil {
			breg, bimm := op.Reg, op.Imm
			return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
				a := ctx.Regs[ra]
				if t := a.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
					return 0, 0, 0, false
				}
				ref, ok := resolveMemOff(n, ctx.Regs[breg], bimm, off, quiet)
				if !ok {
					return 0, 0, 0, false
				}
				var b word.Word
				if ref.queue {
					b = n.Queues[ref.pri].WordAt(int(ref.addr))
				} else {
					b, _ = n.Mem.Read(ref.addr) // bounds already checked
				}
				if t := b.Tag(); t == word.TagCfut || t == word.TagFut {
					return 0, 0, 0, false
				}
				ctx.Regs[ra] = word.Int(eval(a.Data(), b.Data()))
				return 1 + loadCost(n, ref), n.RegionCat(), next, true
			}
		}
	}
	return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
		a := ctx.Regs[ra]
		if t := a.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
			return 0, 0, 0, false
		}
		ref, ok := resolveMem(n, ctx, op, off, quiet)
		if !ok {
			return 0, 0, 0, false
		}
		var b word.Word
		if ref.queue {
			b = n.Queues[ref.pri].WordAt(int(ref.addr))
		} else {
			b, _ = n.Mem.Read(ref.addr) // bounds already checked
		}
		if t := b.Tag(); t == word.TagCfut || t == word.TagFut {
			return 0, 0, 0, false
		}
		v, extra, ok := aluEval(bop, a.Data(), b.Data(), &n.Cfg.Timing)
		if !ok {
			return 0, 0, 0, false
		}
		ctx.Regs[ra] = word.Int(v)
		return 1 + extra + loadCost(n, ref), n.RegionCat(), next, true
	}
}

// cmpEval computes one comparison result.
func cmpEval(op isa.Op, x, y int32) bool {
	switch op {
	case isa.EQ:
		return x == y
	case isa.NE:
		return x != y
	case isa.LT:
		return x < y
	case isa.LE:
		return x <= y
	case isa.GT:
		return x > y
	default: // GE
		return x >= y
	}
}

// compileCmpImm and compileCmpReg are the comparison fast paths.
func compileCmpImm(in isa.Instr, next int32) mdp.InstrFn {
	ra, y, op := in.A, in.B.Imm, in.Op
	return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
		w := ctx.Regs[ra]
		if t := w.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
			return 0, 0, 0, false
		}
		ctx.Regs[ra] = word.Bool(cmpEval(op, w.Data(), y))
		return 1, n.RegionCat(), next, true
	}
}

func compileCmpReg(in isa.Instr, next int32) mdp.InstrFn {
	ra, rb, op := in.A, in.B.Reg, in.Op
	return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
		a := ctx.Regs[ra]
		if t := a.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
			return 0, 0, 0, false
		}
		b := ctx.Regs[rb]
		if t := b.Tag(); t == word.TagCfut || t == word.TagFut {
			return 0, 0, 0, false
		}
		ctx.Regs[ra] = word.Bool(cmpEval(op, a.Data(), b.Data()))
		return 1, n.RegionCat(), next, true
	}
}

// compileInstr translates one instruction, or returns nil for bail-set
// members. Costs and categories replicate mdp.Node.exec exactly; the
// EmemFetch surcharge for code in external memory is added by the node,
// as it is for the interpreter.
func compileInstr(in isa.Instr, ip int32) mdp.InstrFn {
	next := ip + 1
	if !memOperandOK(in.B) {
		return nil
	}
	switch in.Op {
	case isa.NOP:
		return func(n *mdp.Node, _ *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
			return 1, n.RegionCat(), next, true
		}

	case isa.MOVE:
		// Flat fast paths for architectural-register destinations: no
		// nested operand closures on the hot path (the fig3-compute
		// profile shows the indirect calls costing as much as the work).
		if in.A < 8 {
			ra := in.A
			switch {
			case in.B.Mode == isa.ModeImm:
				w := word.Int(in.B.Imm)
				return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
					ctx.Regs[ra] = w
					return 1, n.RegionCat(), next, true
				}
			case in.B.Mode == isa.ModeReg && in.B.Reg < 8:
				rb := in.B.Reg
				return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
					w := ctx.Regs[rb]
					if w.Tag() == word.TagCfut { // copies move fut legally
						return 0, 0, 0, false
					}
					ctx.Regs[ra] = w
					return 1, n.RegionCat(), next, true
				}
			case in.B.Mode == isa.ModeMem:
				breg, bimm := in.B.Reg, in.B.Imm
				return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
					ref, ok := resolveMemOff(n, ctx.Regs[breg], bimm, off, quiet)
					if !ok {
						return 0, 0, 0, false
					}
					var w word.Word
					if ref.queue {
						w = n.Queues[ref.pri].WordAt(int(ref.addr))
					} else {
						w, _ = n.Mem.Read(ref.addr) // bounds already checked
					}
					if w.Tag() == word.TagCfut {
						return 0, 0, 0, false
					}
					ctx.Regs[ra] = w
					return 1 + loadCost(n, ref), n.RegionCat(), next, true
				}
			case in.B.IsMem():
				op := in.B
				return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
					ref, ok := resolveMem(n, ctx, op, off, quiet)
					if !ok {
						return 0, 0, 0, false
					}
					var w word.Word
					if ref.queue {
						w = n.Queues[ref.pri].WordAt(int(ref.addr))
					} else {
						w, _ = n.Mem.Read(ref.addr) // bounds already checked
					}
					if w.Tag() == word.TagCfut {
						return 0, 0, 0, false
					}
					ctx.Regs[ra] = w
					return 1 + loadCost(n, ref), n.RegionCat(), next, true
				}
			}
		}
		readB := compileOperand(in.B, false, false)
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			w, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			write(ctx, w)
			return 1 + extra, n.RegionCat(), next, true
		}

	case isa.ST:
		if !in.B.IsMem() {
			return nil // unconditional FaultBadInstr
		}
		op := in.B
		if in.A < 8 {
			ra := in.A
			return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
				ref, ok := resolveMem(n, ctx, op, off, quiet)
				if !ok || ref.queue { // queue stores fault (FaultBadTag)
					return 0, 0, 0, false
				}
				if n.Mem.Write(ref.addr, ctx.Regs[ra]) != nil { // stores move all 36 bits
					return 0, 0, 0, false
				}
				extra := n.Cfg.Timing.ImemStore
				if !ref.internal {
					extra = n.Cfg.Timing.EmemStore
				}
				return 1 + extra, n.RegionCat(), next, true
			}
		}
		readA := compileRegRead(in.A, false, true) // stores move all 36 bits
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			ref, ok := resolveMem(n, ctx, op, off, quiet)
			if !ok || ref.queue { // queue stores fault (FaultBadTag)
				return 0, 0, 0, false
			}
			w, ok := readA(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			if n.Mem.Write(ref.addr, w) != nil {
				return 0, 0, 0, false
			}
			extra := n.Cfg.Timing.ImemStore
			if !ref.internal {
				extra = n.Cfg.Timing.EmemStore
			}
			return 1 + extra, n.RegionCat(), next, true
		}

	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD,
		isa.AND, isa.OR, isa.XOR, isa.LSH, isa.ASH:
		if in.A < 8 {
			if in.B.Mode == isa.ModeImm {
				if fn := compileALUImm(in, next); fn != nil {
					return fn
				}
				return nil // division by a zero immediate: always faults
			}
			if in.B.Mode == isa.ModeReg && in.B.Reg < 8 {
				return compileALUReg(in, next)
			}
			if in.B.IsMem() {
				return compileALUMem(in, next)
			}
		}
		readA := compileRegRead(in.A, true, false)
		readB := compileOperand(in.B, true, false)
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		op := in.Op
		divides := op == isa.DIV || op == isa.MOD
		var opExtra func(t *mdp.Timing) int32
		switch op {
		case isa.MUL:
			opExtra = func(t *mdp.Timing) int32 { return t.Mul }
		case isa.DIV, isa.MOD:
			opExtra = func(t *mdp.Timing) int32 { return t.DivMod }
		}
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			a, ok := readA(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			b, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			x, y := a.Data(), b.Data()
			if divides && y == 0 {
				return 0, 0, 0, false // FaultBadInstr
			}
			var v int32
			switch op {
			case isa.ADD:
				v = x + y
			case isa.SUB:
				v = x - y
			case isa.MUL:
				v = x * y
			case isa.DIV:
				v = x / y
			case isa.MOD:
				v = x % y
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
			if opExtra != nil {
				extra += opExtra(&n.Cfg.Timing)
			}
			write(ctx, word.Int(v))
			return 1 + extra, n.RegionCat(), next, true
		}

	case isa.NOT, isa.NEG:
		readA := compileRegRead(in.A, true, false)
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		not := in.Op == isa.NOT
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			a, ok := readA(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			v := a.Data()
			if not {
				v = ^v
			} else {
				v = -v
			}
			write(ctx, word.Int(v))
			return 1, n.RegionCat(), next, true
		}

	case isa.EQ, isa.NE, isa.LT, isa.LE, isa.GT, isa.GE:
		if in.A < 8 {
			if in.B.Mode == isa.ModeImm {
				return compileCmpImm(in, next)
			}
			if in.B.Mode == isa.ModeReg && in.B.Reg < 8 {
				return compileCmpReg(in, next)
			}
		}
		readA := compileRegRead(in.A, true, false)
		readB := compileOperand(in.B, true, false)
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		op := in.Op
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			a, ok := readA(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			b, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			var r bool
			x, y := a.Data(), b.Data()
			switch op {
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
			write(ctx, word.Bool(r))
			return 1 + extra, n.RegionCat(), next, true
		}

	case isa.BR:
		target := in.B.Imm
		return func(n *mdp.Node, _ *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
			return 1 + n.Cfg.Timing.BranchTaken, n.RegionCat(), target, true
		}

	case isa.BT, isa.BF:
		target := in.B.Imm
		want := in.Op == isa.BT
		if in.A < 8 {
			ra := in.A
			return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
				a := ctx.Regs[ra]
				if t := a.Tag(); t == word.TagCfut || t == word.TagFut { // consuming read
					return 0, 0, 0, false
				}
				if a.Truthy() == want {
					return 1 + n.Cfg.Timing.BranchTaken, n.RegionCat(), target, true
				}
				return 1, n.RegionCat(), next, true
			}
		}
		readA := compileRegRead(in.A, true, false)
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			a, ok := readA(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			if a.Truthy() == want {
				return 1 + n.Cfg.Timing.BranchTaken, n.RegionCat(), target, true
			}
			return 1, n.RegionCat(), next, true
		}

	case isa.BSR:
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		link := word.IP(next)
		target := in.B.Imm
		return func(n *mdp.Node, ctx *mdp.Context, _ int32, _ bool) (int32, stats.Cat, int32, bool) {
			write(ctx, link)
			return 1 + n.Cfg.Timing.BranchTaken, n.RegionCat(), target, true
		}

	case isa.JMP:
		readB := compileOperand(in.B, true, false)
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			b, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			return 1 + n.Cfg.Timing.BranchTaken + extra, n.RegionCat(), b.Data(), true
		}

	case isa.ENTER:
		readA := compileRegRead(in.A, true, false)
		readB := compileOperand(in.B, false, false)
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			key, ok := readA(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			val, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			n.Xl.Enter(key, val)
			return n.Cfg.Timing.Enter + extra, stats.CatXlate, next, true
		}

	case isa.XLATE:
		readB := compileOperand(in.B, true, false)
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			key, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			// Probe first: a miss must bail with the table untouched so
			// the interpreter's Lookup performs the miss-path counter
			// update exactly once; a hit re-runs as Lookup for the
			// identical hit-counter and LRU effects.
			if _, hit := n.Xl.Probe(key); !hit {
				return 0, 0, 0, false // FaultXlateMiss
			}
			v, _ := n.Xl.Lookup(key)
			write(ctx, v)
			return n.Cfg.Timing.Xlate + extra, stats.CatXlate, next, true
		}

	case isa.PROBE:
		readB := compileOperand(in.B, false, false)
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			key, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			_, hit := n.Xl.Probe(key)
			write(ctx, word.Bool(hit))
			return n.Cfg.Timing.Xlate + extra, stats.CatXlate, next, true
		}

	case isa.RTAG, isa.ISCF:
		readB := compileOperand(in.B, false, true)
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		rtag := in.Op == isa.RTAG
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			w, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			if rtag {
				write(ctx, word.Int(int32(w.Tag())))
			} else {
				write(ctx, word.Bool(w.IsCfut()))
			}
			return 1 + extra, n.RegionCat(), next, true
		}

	case isa.WTAG:
		readB := compileOperand(in.B, true, false)
		readA := compileRegRead(in.A, false, true) // retagging never faults
		write := compileRegWrite(in.A)
		if write == nil {
			return nil
		}
		return func(n *mdp.Node, ctx *mdp.Context, off int32, quiet bool) (int32, stats.Cat, int32, bool) {
			b, extra, ok := readB(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			old, ok := readA(n, ctx, off, quiet)
			if !ok {
				return 0, 0, 0, false
			}
			write(ctx, old.WithTag(word.Tag(b.Data()&0xF)))
			return 1 + extra, n.RegionCat(), next, true
		}

	default:
		// SEND family, SUSPEND, HALT, TRAP, and undefined opcodes:
		// scheduler- or network-visible, interpreter only.
		return nil
	}
}

// shiftL and shiftA replicate the interpreter's shift semantics.
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
