// Package isa defines the instruction set of the Message-Driven Processor
// as modelled by this reproduction.
//
// The MDP encodes two 17-bit instructions in each 36-bit word. Most
// instructions are two-operand: a register destination A and a general
// operand B that may name a register, a short immediate, or a memory
// location addressed through one of the address registers. Reading one
// operand from memory is permitted (and costs an extra cycle from internal
// memory), which reduces access pressure on the small register file.
//
// The special instructions are the ones the paper evaluates: the SEND
// family for message injection (up to 2 words per cycle), SUSPEND for
// ending a message handler, ENTER/XLATE for the global namespace, and the
// tag instructions (RTAG/WTAG) that interact with the presence tags used
// for synchronization.
package isa

import "fmt"

// Op is an MDP opcode.
type Op uint8

// Opcodes. Arithmetic and comparison instructions compute A ← A op B.
const (
	NOP Op = iota
	// MOVE copies operand B into register A.
	MOVE
	// ST stores register A into the memory location named by operand B.
	ST

	// ADD through ASH compute A ← A op B.
	ADD
	SUB
	MUL
	DIV
	MOD
	AND
	OR
	XOR
	// LSH shifts A left by B (negative B shifts right logically).
	LSH
	// ASH shifts A left by B arithmetically (negative B shifts right).
	ASH
	// NOT complements register A (operand B unused).
	NOT
	// NEG negates register A (operand B unused).
	NEG

	// EQ through GE compute A ← bool(A op B).
	EQ
	NE
	LT
	LE
	GT
	GE

	// BR branches unconditionally to the label in operand B.
	BR
	// BT branches to B if register A is truthy (non-zero data).
	BT
	// BF branches to B if register A is falsy (zero data).
	BF
	// BSR branches to B, leaving the return address in register A as an
	// IP-tagged word. Paired with JMP for subroutine linkage.
	BSR
	// JMP jumps to the code address held in operand B.
	JMP

	// SUSPEND ends the current thread. For a message handler the message
	// is consumed and the processor dispatches the next one.
	SUSPEND
	// HALT stops the node entirely (simulator control, used by the
	// single-node base cases and at the end of applications).
	HALT

	// SEND injects one word (operand B) into the network at priority 0.
	// The first word of a message names the destination node; it is
	// consumed by the network and not delivered.
	SEND
	// SEND2 injects two words (registers A then operand B) in one cycle.
	SEND2
	// SENDE injects operand B and marks the end of the message.
	SENDE
	// SEND2E injects register A then operand B and ends the message.
	SEND2E
	// SEND1, SEND21, SENDE1, SEND2E1 are the priority-1 variants.
	SEND1
	SEND21
	SENDE1
	SEND2E1

	// ENTER inserts the pair (key register A, value operand B) into the
	// name-translation table.
	ENTER
	// XLATE looks up operand B in the translation table and places the
	// translation in register A. A miss raises a fault handled by system
	// software. A successful XLATE takes three cycles.
	XLATE
	// PROBE sets register A to a boolean: whether B translates without
	// faulting.
	PROBE

	// RTAG reads the 4-bit tag of operand B into register A as an int.
	RTAG
	// WTAG replaces the tag of register A with the low bits of operand B.
	WTAG
	// ISCF sets register A to whether operand B carries the cfut
	// presence tag, without faulting (the tag-test used by synchronizing
	// writers; Table 2's 4-cycle tagged write depends on it).
	ISCF

	// TRAP transfers to system software with service number B (register
	// state is visible to the handler). The MDP reached its runtime the
	// same way: a hardware vector into privileged code.
	TRAP

	// NumOps is the number of defined opcodes.
	NumOps
)

var opNames = [NumOps]string{
	"NOP", "MOVE", "ST",
	"ADD", "SUB", "MUL", "DIV", "MOD", "AND", "OR", "XOR", "LSH", "ASH",
	"NOT", "NEG",
	"EQ", "NE", "LT", "LE", "GT", "GE",
	"BR", "BT", "BF", "BSR", "JMP",
	"SUSPEND", "HALT",
	"SEND", "SEND2", "SENDE", "SEND2E",
	"SEND1", "SEND21", "SENDE1", "SEND2E1",
	"ENTER", "XLATE", "PROBE",
	"RTAG", "WTAG", "ISCF", "TRAP",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// IsSend reports whether the opcode is one of the SEND family.
func (o Op) IsSend() bool { return o >= SEND && o <= SEND2E1 }

// SendPriority returns the network priority (0 or 1) of a SEND-family
// opcode.
func (o Op) SendPriority() int {
	if o >= SEND1 {
		return 1
	}
	return 0
}

// SendWords returns how many words a SEND-family opcode injects.
func (o Op) SendWords() int {
	switch o {
	case SEND2, SEND2E, SEND21, SEND2E1:
		return 2
	default:
		return 1
	}
}

// SendEnds reports whether the SEND-family opcode terminates the message.
func (o Op) SendEnds() bool {
	switch o {
	case SENDE, SEND2E, SENDE1, SEND2E1:
		return true
	default:
		return false
	}
}

// IsBranch reports whether the opcode may redirect control flow.
func (o Op) IsBranch() bool {
	switch o {
	case BR, BT, BF, BSR, JMP:
		return true
	default:
		return false
	}
}

// Reg names one of the sixteen register codes available to instructions.
// Each priority level has four general data registers (R0-R3) and four
// address registers (A0-A3). Codes 8 and up name special registers shared
// by all priority levels.
type Reg uint8

const (
	R0 Reg = iota
	R1
	R2
	R3
	A0
	A1
	A2
	A3
	// NNR is the Node Number Register: this node's router address as a
	// node-tagged word. Converting linear node indices to router
	// addresses ("NNR calculations") is a measurable cost in Figure 6.
	NNR
	// QLEN reads the current priority-0 queue occupancy in words. It
	// supports the flow-control experiments from the paper's critique.
	QLEN
	// PRI reads the current execution priority (0, 1, or 2=background).
	PRI
	// ZERO always reads as integer zero; writes are discarded.
	ZERO
	// CYC reads the low 32 bits of the node cycle counter. The real MDP
	// lacked one — the paper's critique calls the omission out — so this
	// register is a simulator extension used only by instrumentation.
	CYC
	// RGN is a write-only statistics region marker (simulator
	// instrumentation, standing in for the paper's hand-placed
	// counters). Writing stats.CatNNR directs subsequent compute cycles
	// to the "NNR Calc" bucket of Figure 6; writing 0 restores normal
	// attribution.
	RGN

	// NumRegs is the size of the register code space (4 bits).
	NumRegs = 16
)

var regNames = [NumRegs]string{
	"R0", "R1", "R2", "R3", "A0", "A1", "A2", "A3",
	"NNR", "QLEN", "PRI", "ZERO", "CYC", "RGN", "r14", "r15",
}

// String returns the assembler name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// IsAddr reports whether the register is one of the address registers.
func (r Reg) IsAddr() bool { return r >= A0 && r <= A3 }

// Mode describes how operand B names its value.
type Mode uint8

const (
	// ModeReg reads a register.
	ModeReg Mode = iota
	// ModeImm is an immediate constant. Constants outside the 5-bit
	// short range occupy an extension word in the instruction stream.
	ModeImm
	// ModeMem reads memory at [Areg + offset]. Offsets outside the
	// 3-bit short range occupy an extension word.
	ModeMem
	// ModeMemReg reads memory at [Areg + Ridx].
	ModeMemReg
)

// Operand is the decoded form of an instruction's B operand.
type Operand struct {
	Mode Mode
	Reg  Reg   // ModeReg: the register; ModeMem/ModeMemReg: the address register
	Idx  Reg   // ModeMemReg: the data register supplying the index
	Imm  int32 // ModeImm: the constant; ModeMem: the offset
}

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Mode: ModeReg, Reg: r} }

// ImmOp returns an immediate operand.
func ImmOp(v int32) Operand { return Operand{Mode: ModeImm, Imm: v} }

// MemOp returns a memory operand [a + offset].
func MemOp(a Reg, offset int32) Operand {
	return Operand{Mode: ModeMem, Reg: a, Imm: offset}
}

// MemRegOp returns a memory operand [a + idx].
func MemRegOp(a, idx Reg) Operand {
	return Operand{Mode: ModeMemReg, Reg: a, Idx: idx}
}

// IsMem reports whether the operand reads or writes memory.
func (o Operand) IsMem() bool { return o.Mode == ModeMem || o.Mode == ModeMemReg }

// NeedsExt reports whether the operand requires an extension word in the
// encoded instruction stream (long immediates and long offsets).
func (o Operand) NeedsExt() bool {
	switch o.Mode {
	case ModeImm:
		return o.Imm < -16 || o.Imm > 15
	case ModeMem:
		return o.Imm < 0 || o.Imm > 7
	default:
		return false
	}
}

// String renders the operand in assembler syntax.
func (o Operand) String() string {
	switch o.Mode {
	case ModeReg:
		return o.Reg.String()
	case ModeImm:
		return fmt.Sprintf("#%d", o.Imm)
	case ModeMem:
		return fmt.Sprintf("[%s+%d]", o.Reg, o.Imm)
	case ModeMemReg:
		return fmt.Sprintf("[%s+%s]", o.Reg, o.Idx)
	}
	return "?"
}

// Instr is a decoded MDP instruction.
type Instr struct {
	Op Op
	A  Reg
	B  Operand
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	switch i.Op {
	case NOP, SUSPEND, HALT:
		return i.Op.String()
	case BR, JMP:
		return fmt.Sprintf("%s %s", i.Op, i.B)
	case NOT, NEG:
		return fmt.Sprintf("%s %s", i.Op, i.A)
	default:
		return fmt.Sprintf("%s %s, %s", i.Op, i.A, i.B)
	}
}
