package mdp_test

import (
	"strings"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/ckpt/wire"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/mdp"
	"jmachine/internal/stats"
	"jmachine/internal/word"
)

// run1 builds a single-node machine, runs the program's "main" in the
// background context until HALT, and returns the machine.
func run1(t *testing.T, build func(b *asm.Builder)) *machine.Machine {
	t.Helper()
	b := asm.NewBuilder()
	b.Label("main")
	build(b)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	m.Nodes[0].StartBackground(p.Entry("main"))
	if err := m.RunUntilHalt(0, 100000); err != nil {
		t.Fatal(err)
	}
	return m
}

// cyclesFor measures the cycle cost of the built code (excluding the
// trailing HALT's single cycle).
func cyclesFor(t *testing.T, build func(b *asm.Builder)) int64 {
	t.Helper()
	m := run1(t, func(b *asm.Builder) {
		build(b)
		b.Halt()
	})
	return m.Cycle() - 1
}

func TestRegisterOpTiming(t *testing.T) {
	// "Most instructions can operate in one cycle if both operands are
	// in registers."
	got := cyclesFor(t, func(b *asm.Builder) {
		b.MoveI(isa.R0, 5).
			MoveI(isa.R1, 7).
			Add(isa.R0, asm.R(isa.R1)).
			Sub(isa.R0, asm.Imm(2)).
			Xor(isa.R0, asm.R(isa.R0))
	})
	if got != 5 {
		t.Errorf("5 register instructions took %d cycles", got)
	}
}

func TestInternalMemoryOperandTiming(t *testing.T) {
	// "...and in two cycles if one operand is in internal memory."
	got := cyclesFor(t, func(b *asm.Builder) {
		b.MoveI(isa.A0, 100). // 1
					MoveI(isa.R0, 3).               // 1
					St(isa.R0, asm.Mem(isa.A0, 0)). // 1 (store to SRAM)
					Add(isa.R0, asm.Mem(isa.A0, 0)) // 2 (SRAM operand)
	})
	if got != 5 {
		t.Errorf("sequence took %d cycles, want 5", got)
	}
}

func TestExternalMemoryTiming(t *testing.T) {
	// External DRAM: loads 8 cycles, stores 6 (the remote-read server's
	// 8-cycles-per-word external figure and the 6-cycle relocation).
	emem := int32(5000) // beyond the 4K SRAM
	got := cyclesFor(t, func(b *asm.Builder) {
		b.Move(isa.A0, asm.Imm(emem)). // 1
						MoveI(isa.R0, 3).               // 1
						St(isa.R0, asm.Mem(isa.A0, 0)). // 6
						Add(isa.R0, asm.Mem(isa.A0, 0)) // 8
	})
	if got != 16 {
		t.Errorf("sequence took %d cycles, want 16", got)
	}
}

func TestBranchTiming(t *testing.T) {
	// Taken branches cost 3 cycles (pipeline refill); untaken 1.
	got := cyclesFor(t, func(b *asm.Builder) {
		b.MoveI(isa.R0, 0). // 1
					Bt(isa.R0, "skip"). // 1 (not taken)
					MoveI(isa.R1, 1).   // 1
					Label("skip").
					Br("end").        // 3 (taken)
					MoveI(isa.R2, 9). // skipped
					Label("end")
	})
	if got != 6 {
		t.Errorf("branch sequence took %d cycles, want 6", got)
	}
}

func TestPeakRateIsOneInstructionPerCycle(t *testing.T) {
	// Peak execution rate: 12.5 MIPS at 12.5 MHz = 1 instruction/cycle.
	const n = 100
	m := run1(t, func(b *asm.Builder) {
		for i := 0; i < n; i++ {
			b.MoveI(isa.R0, int32(i&7))
		}
		b.Halt()
	})
	if got := m.Cycle() - 1; got != n {
		t.Errorf("%d reg instructions took %d cycles", n, got)
	}
	// HALT stops the node before being counted as retired.
	if instrs := m.Stats.Instrs(); instrs != n {
		t.Errorf("retired %d instructions, want %d", instrs, n)
	}
}

func TestExternalCodePenalty(t *testing.T) {
	// With code and data in external memory the machine runs at fewer
	// than 2 MIPS — i.e. well over 6 cycles per instruction on average
	// when data is external too; pure register code pays the fetch
	// penalty alone.
	b := asm.NewBuilder()
	b.Label("main")
	for i := 0; i < 50; i++ {
		b.MoveI(isa.R0, 1)
	}
	b.Halt()
	p := b.MustAssemble()
	cfg := machine.Grid(1, 1, 1)
	cfg.MDP.CodeInEmem = true
	m := machine.MustNew(cfg, p)
	m.Nodes[0].StartBackground(p.Entry("main"))
	if err := m.RunUntilHalt(0, 100000); err != nil {
		t.Fatal(err)
	}
	perInstr := float64(m.Cycle()) / 51
	if perInstr < 3.5 || perInstr > 5 {
		t.Errorf("external-code rate = %.2f cycles/instr", perInstr)
	}
}

func TestSubroutineLinkage(t *testing.T) {
	m := run1(t, func(b *asm.Builder) {
		b.MoveI(isa.R0, 10).
			Bsr(isa.R3, "double").
			Bsr(isa.R3, "double").
			Halt().
			Label("double").
			Add(isa.R0, asm.R(isa.R0)).
			Jmp(asm.R(isa.R3))
	})
	if got := m.Nodes[0].Ctx(mdp.LvlBG).Regs[isa.R0].Data(); got != 40 {
		t.Errorf("R0 = %d, want 40", got)
	}
}

func TestTagInstructions(t *testing.T) {
	m := run1(t, func(b *asm.Builder) {
		b.MoveI(isa.R0, 77).
			Wtag(isa.R0, asm.Imm(int32(word.TagSym))).
			Rtag(isa.R1, asm.R(isa.R0)).
			Iscf(isa.R2, asm.R(isa.R0)).
			Halt()
	})
	regs := m.Nodes[0].Ctx(mdp.LvlBG).Regs
	if regs[isa.R0].Tag() != word.TagSym || regs[isa.R0].Data() != 77 {
		t.Errorf("WTAG result = %v", regs[isa.R0])
	}
	if regs[isa.R1].Data() != int32(word.TagSym) {
		t.Errorf("RTAG = %v", regs[isa.R1])
	}
	if regs[isa.R2].Truthy() {
		t.Errorf("ISCF on sym = %v", regs[isa.R2])
	}
}

func TestDispatchRunsHandler(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("idle").Nop().Br("idle")
	b.Label("handler").
		Move(isa.R0, asm.Mem(isa.A3, 1)). // message argument
		MoveI(isa.A0, 64).
		St(isa.R0, asm.Mem(isa.A0, 0)).
		Suspend()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	n := m.Nodes[0]
	// Host-inject a message.
	q := n.Queues[0]
	q.Push(word.MsgHeader(p.Entry("handler"), 2))
	q.Push(word.Int(123))
	m.StepN(30)
	if got, _ := n.Mem.Read(64); got.Data() != 123 {
		t.Errorf("handler did not store argument: %v", got)
	}
	if q.HeadReady() || q.Used() != 0 {
		t.Error("SUSPEND did not consume the message")
	}
	if n.Stats.Threads != 1 {
		t.Errorf("threads dispatched = %d", n.Stats.Threads)
	}
	h := n.Stats.Handler(p.Entry("handler"))
	if h == nil || h.Invocations != 1 || h.Instrs != 4 {
		t.Errorf("handler stats = %+v", h)
	}
}

func TestDispatchCostFourCycles(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("handler").Suspend()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	n := m.Nodes[0]
	n.Queues[0].Push(word.MsgHeader(p.Entry("handler"), 1))
	m.StepN(5) // 4 dispatch + 1 SUSPEND
	if n.Stats.Cycles[stats.CatSync] != 5 {
		t.Errorf("sync cycles = %d, want 5", n.Stats.Cycles[stats.CatSync])
	}
	if n.Busy() {
		t.Error("node still busy after handler finished")
	}
}

func TestPriority1Preempts(t *testing.T) {
	b := asm.NewBuilder()
	// A long-running P0 handler; the P1 handler stamps memory.
	b.Label("p0").MoveI(isa.R0, 200).
		Label("p0.loop").Sub(isa.R0, asm.Imm(1)).Bt(isa.R0, "p0.loop").
		MoveI(isa.A0, 65).MoveI(isa.R1, 1).St(isa.R1, asm.Mem(isa.A0, 0)).
		Suspend()
	b.Label("p1").
		MoveI(isa.A0, 64).MoveI(isa.R1, 1).St(isa.R1, asm.Mem(isa.A0, 0)).
		Suspend()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	n := m.Nodes[0]
	n.Queues[0].Push(word.MsgHeader(p.Entry("p0"), 1))
	m.StepN(20) // P0 thread is mid-loop
	n.Queues[1].Push(word.MsgHeader(p.Entry("p1"), 1))
	m.StepN(20)
	w64, _ := n.Mem.Read(64)
	w65, _ := n.Mem.Read(65)
	if !w64.Truthy() {
		t.Error("P1 handler did not run while P0 was active")
	}
	if w65.Truthy() {
		t.Error("P0 finished before P1 ran: no preemption observed")
	}
	if err := m.RunWhile(func(*machine.Machine) bool {
		w, _ := n.Mem.Read(65)
		return !w.Truthy()
	}, 2000); err != nil {
		t.Fatalf("P0 thread never resumed: %v", err)
	}
}

func TestCfutReadFaultsFatallyWithoutRuntime(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, 64).
		Move(isa.R0, asm.Mem(isa.A0, 0)).
		Halt()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	m.Nodes[0].Mem.FillCfut(64, 1)
	m.Nodes[0].StartBackground(p.Entry("main"))
	err := m.RunUntilHalt(0, 1000)
	if err == nil || !strings.Contains(err.Error(), "cfut") {
		t.Fatalf("expected cfut fatal fault, got %v", err)
	}
}

func TestFutCopyableButNotConsumable(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, 64).
		Move(isa.R0, asm.Mem(isa.A0, 0)). // copying a fut is legal
		Add(isa.R1, asm.R(isa.R0)).       // consuming it faults
		Halt()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	m.Nodes[0].Mem.Write(64, word.Fut(5))
	m.Nodes[0].StartBackground(p.Entry("main"))
	err := m.RunUntilHalt(0, 1000)
	if err == nil || !strings.Contains(err.Error(), "fut") {
		t.Fatalf("expected fut fatal fault, got %v", err)
	}
}

func TestSegmentBoundsFault(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("main").
		Move(isa.R0, asm.Mem(isa.A0, 3)). // beyond the 2-word segment
		Halt()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	n := m.Nodes[0]
	ctx := n.Ctx(mdp.LvlBG)
	ctx.Regs[isa.A0] = word.New(word.TagAddr, 2<<20|100) // seg base 100 len 2
	n.StartBackground(p.Entry("main"))
	err := m.RunUntilHalt(0, 1000)
	if err == nil || !strings.Contains(err.Error(), "bounds") {
		t.Fatalf("expected bounds fault, got %v", err)
	}
}

func TestSendEndToEnd(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, 64).
		Send(asm.Mem(isa.A0, 0)). // dest word preloaded
		MoveHdr(isa.R1, "sink", 3).
		Send(asm.R(isa.R1)).
		MoveI(isa.R0, 41).
		Send2E(isa.R0, asm.Imm(42)).
		Halt()
	b.Label("sink").
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Move(isa.R1, asm.Mem(isa.A3, 2)).
		Add(isa.R0, asm.R(isa.R1)).
		MoveI(isa.A0, 70).
		St(isa.R0, asm.Mem(isa.A0, 0)).
		Suspend()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(2, 1, 1), p)
	m.Nodes[0].Mem.Write(64, word.Node(1, 0, 0))
	m.Nodes[0].StartBackground(p.Entry("main"))
	if err := m.RunUntilHalt(0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.RunQuiescent(1000); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Nodes[1].Mem.Read(70)
	if got.Data() != 83 {
		t.Errorf("remote sum = %v, want 83", got)
	}
	if m.Stats.Nodes[0].MsgsSent[0] != 1 || m.Stats.Nodes[0].WordsSent[0] != 3 {
		t.Errorf("send stats = %+v", m.Stats.Nodes[0].MsgsSent)
	}
}

func TestSelfSendDelivers(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("main").
		Send(asm.R(isa.NNR)). // to self
		MoveHdr(isa.R1, "sink", 2).
		Send2E(isa.R1, asm.Imm(7)).
		Suspend() // background ends; handler will run
	b.Label("sink").
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		MoveI(isa.A0, 64).
		St(isa.R0, asm.Mem(isa.A0, 0)).
		Halt()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	m.Nodes[0].StartBackground(p.Entry("main"))
	if err := m.RunUntilHalt(0, 1000); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Nodes[0].Mem.Read(64)
	if got.Data() != 7 {
		t.Errorf("self-send payload = %v", got)
	}
}

func TestSendFaultBackpressure(t *testing.T) {
	// A tiny outbox forces send faults: the sender stalls but the
	// messages all eventually leave.
	b := asm.NewBuilder()
	b.Label("main").MoveI(isa.R2, 8).
		Label("loop").
		Send(asm.R(isa.NNR)).
		MoveHdr(isa.R1, "sink", 6).
		Send(asm.R(isa.R1)).
		Send(asm.R(isa.ZERO)).
		Send(asm.R(isa.ZERO)).
		Send(asm.R(isa.ZERO)).
		Send2E(isa.R0, asm.R(isa.ZERO)).
		Sub(isa.R2, asm.Imm(1)).
		Bt(isa.R2, "loop").
		Halt()
	b.Label("sink").Suspend()
	p := b.MustAssemble()
	cfg := machine.Grid(1, 1, 1)
	cfg.Net.OutboxWords = 8
	m := machine.MustNew(cfg, p)
	m.Nodes[0].StartBackground(p.Entry("main"))
	if err := m.RunUntilHalt(0, 10000); err != nil {
		t.Fatal(err)
	}
	if err := m.RunQuiescent(10000); err != nil {
		t.Fatal(err)
	}
	st := m.Stats.Nodes[0]
	if st.MsgsSent[0] != 8 {
		t.Errorf("sent %d messages, want 8", st.MsgsSent[0])
	}
	if st.SendFaults == 0 {
		t.Error("expected send faults with an 8-word outbox")
	}
}

func TestMalformedMessageFaults(t *testing.T) {
	// Message without a destination-node word faults at SENDE.
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.R0, 5).
		SendE(asm.R(isa.R0)). // 1-word "message": no dest, no header
		Halt()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	m.Nodes[0].StartBackground(p.Entry("main"))
	err := m.RunUntilHalt(0, 1000)
	if err == nil || !strings.Contains(err.Error(), "bad-tag") {
		t.Fatalf("expected bad-tag fault, got %v", err)
	}
}

func TestSpecialRegisters(t *testing.T) {
	m := run1(t, func(b *asm.Builder) {
		b.Move(isa.R0, asm.R(isa.NNR)).
			Move(isa.R1, asm.R(isa.PRI)).
			Move(isa.R2, asm.R(isa.ZERO)).
			Halt()
	})
	regs := m.Nodes[0].Ctx(mdp.LvlBG).Regs
	if regs[isa.R0].Tag() != word.TagNode {
		t.Errorf("NNR tag = %v", regs[isa.R0].Tag())
	}
	if regs[isa.R1].Data() != 2 { // background level
		t.Errorf("PRI = %v", regs[isa.R1])
	}
	if regs[isa.R2].Data() != 0 {
		t.Errorf("ZERO = %v", regs[isa.R2])
	}
}

func TestRegionMarkerAttribution(t *testing.T) {
	m := run1(t, func(b *asm.Builder) {
		b.MoveI(isa.RGN, int32(stats.CatNNR)).
			MoveI(isa.R0, 1).
			MoveI(isa.R1, 2).
			MoveI(isa.RGN, 0).
			MoveI(isa.R2, 3).
			Halt()
	})
	st := m.Stats.Nodes[0]
	// The two MOVEs inside the region plus the closing RGN write are
	// attributed to NNR.
	if st.Cycles[stats.CatNNR] != 3 {
		t.Errorf("NNR cycles = %d, want 3", st.Cycles[stats.CatNNR])
	}
}

func TestIdleAttribution(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("main").Halt()
	p := b.MustAssemble()
	m := machine.MustNew(machine.Grid(1, 1, 1), p)
	// Never started: every cycle is idle.
	m.StepN(50)
	if got := m.Stats.Nodes[0].Cycles[stats.CatIdle]; got != 50 {
		t.Errorf("idle cycles = %d", got)
	}
}

func TestSoftQueueOverflowRelocatesAndReplays(t *testing.T) {
	// A burst of messages beyond the hardware queue's threshold is
	// relocated to external memory and replayed in order, ahead of
	// newer hardware-queue arrivals.
	b := asm.NewBuilder()
	b.Label("idle").Nop().Br("idle")
	b.Label("handler").
		Move(isa.R0, asm.Mem(isa.A3, 1)). // sequence number
		MoveI(isa.A0, 200).
		Move(isa.R1, asm.Mem(isa.A0, 0)). // write cursor
		MoveI(isa.A1, 210).
		Add(isa.A1, asm.R(isa.R1)).
		St(isa.R0, asm.Mem(isa.A1, 0)). // record arrival order
		Add(isa.R1, asm.Imm(1)).
		St(isa.R1, asm.Mem(isa.A0, 0)).
		Suspend()
	p := b.MustAssemble()
	cfg := machine.Grid(1, 1, 1)
	cfg.QueueCap = [2]int{16, 64} // tiny: 4 four-word messages
	cfg.MDP.SoftQueue = mdp.SoftQueueConfig{Enable: true, ThresholdWords: 8}
	m := machine.MustNew(cfg, p)
	n := m.Nodes[0]
	// Host-push 3 messages back to back; the third pushes occupancy to
	// the threshold, forcing relocations before dispatch catches up.
	const msgs = 4
	for i := 0; i < msgs; i++ {
		n.Queues[0].Push(word.MsgHeader(p.Entry("handler"), 4))
		n.Queues[0].Push(word.Int(int32(i)))
		n.Queues[0].Push(word.Int(0))
		n.Queues[0].Push(word.Int(0))
	}
	m.StepN(600)
	if n.Stats.OverflowFaults == 0 {
		t.Fatal("no overflow relocations happened")
	}
	cursor, _ := n.Mem.Read(200)
	if cursor.Data() != msgs {
		t.Fatalf("handled %d of %d messages", cursor.Data(), msgs)
	}
	for i := 0; i < msgs; i++ {
		got, _ := n.Mem.Read(210 + int32(i))
		if got.Data() != int32(i) {
			t.Errorf("arrival %d = %d: replay out of order", i, got.Data())
		}
	}
	if n.Busy() {
		t.Error("node still busy after replay")
	}
}

func TestSoftQueueRingWraparound(t *testing.T) {
	// The overflow ring has softWords/MaxMsgWords fixed slots and a
	// modular write cursor. Repeated overflow bursts push the cursor
	// through several full revolutions; relocation and dispatch order
	// must survive the wrap (a stale slot reused too early would replay
	// an old message and break the sequence).
	b := asm.NewBuilder()
	b.Label("idle").Nop().Br("idle")
	b.Label("handler").
		Move(isa.R0, asm.Mem(isa.A3, 1)). // sequence number
		MoveI(isa.A0, 200).
		Move(isa.R1, asm.Mem(isa.A0, 0)). // write cursor
		MoveI(isa.A1, 210).
		Add(isa.A1, asm.R(isa.R1)).
		St(isa.R0, asm.Mem(isa.A1, 0)). // record arrival order
		Add(isa.R1, asm.Imm(1)).
		St(isa.R1, asm.Mem(isa.A0, 0)).
		Suspend()
	p := b.MustAssemble()
	cfg := machine.Grid(1, 1, 1)
	cfg.QueueCap = [2]int{16, 64}
	cfg.MDP.MaxMsgWords = 8
	// BufWords 32 / MaxMsgWords 8 = 4 ring slots.
	cfg.MDP.SoftQueue = mdp.SoftQueueConfig{Enable: true, ThresholdWords: 8, BufWords: 32}
	m := machine.MustNew(cfg, p)
	n := m.Nodes[0]
	const slots = 4
	const bursts, per = 4, 4
	seq := 0
	for burst := 0; burst < bursts; burst++ {
		// Each burst fills the hardware queue (16 words = 4 messages),
		// forcing ~3 relocations before dispatch catches up.
		for i := 0; i < per; i++ {
			n.Queues[0].Push(word.MsgHeader(p.Entry("handler"), 4))
			n.Queues[0].Push(word.Int(int32(seq)))
			n.Queues[0].Push(word.Int(0))
			n.Queues[0].Push(word.Int(0))
			seq++
		}
		m.StepN(800) // drain completely between bursts
	}
	if n.Stats.OverflowFaults <= slots {
		t.Fatalf("only %d relocations: the %d-slot ring never wrapped",
			n.Stats.OverflowFaults, slots)
	}
	cursor, _ := n.Mem.Read(200)
	if int(cursor.Data()) != seq {
		t.Fatalf("handled %d of %d messages", cursor.Data(), seq)
	}
	for i := 0; i < seq; i++ {
		got, _ := n.Mem.Read(210 + int32(i))
		if int(got.Data()) != i {
			t.Errorf("arrival %d = %d: replay out of order across the wrap", i, got.Data())
		}
	}
	if n.Busy() {
		t.Error("node still busy after replay")
	}
}

// TestRestoreRefusesTraceMarker pins the node checkpoint's last byte: a
// node saves the absent-trace marker false, and a checkpoint whose
// marker says true (one written with an event ring attached) is refused
// with an error rather than decoded.
func TestRestoreRefusesTraceMarker(t *testing.T) {
	m := run1(t, func(b *asm.Builder) {
		b.MoveI(isa.R0, 5).Halt()
	})
	var e wire.Encoder
	m.Nodes[0].SaveState(&e)
	data := e.Bytes()
	if last := data[len(data)-1]; last != 0 {
		t.Fatalf("trailing trace marker = %d, want 0 (false)", last)
	}
	if err := m.Nodes[0].RestoreState(wire.NewDecoder(data)); err != nil {
		t.Fatalf("restoring the node's own checkpoint: %v", err)
	}
	data[len(data)-1] = 1
	if err := m.Nodes[0].RestoreState(wire.NewDecoder(data)); err == nil {
		t.Fatal("a checkpoint with a true trace marker restored without error")
	}
}
