package compiled_test

// FuzzCompiledVsInterpreter: differential fuzzing of the compiled tier
// against the interpreter oracle. Fuzz bytes drive a generator that
// emits handler programs from the same instruction vocabulary the
// runtime library and the six workloads use; programs that pass the
// static verifier (the same asm.Check gate Compile enforces) then run
// on an interpreter machine and a compiled machine in lockstep — once
// per-cycle with fusion pinned off, once in fused StepN batches, and
// once under a run-loop plan drawn from a second fuzz input (StepN
// chunks, RunWhile on a memory word, RunUntilHalt, RunQuiescent, with
// an optional periodic cycle hook) — failing on any digest, cycle,
// error, or fault divergence. Seeds come from handcrafted selector
// streams covering every generator production and from the opcode
// streams of the real corpus: the rt library and the application
// kernels.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"jmachine/internal/apps/lcs"
	"jmachine/internal/apps/nqueens"
	"jmachine/internal/apps/radix"
	"jmachine/internal/apps/tsp"
	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/mdp"
	"jmachine/internal/rt"
	"jmachine/internal/trace"
	"jmachine/internal/word"
)

// genRegs is the register set the generator mutates. A0 (scratch base)
// and A1 (destination node word) are set once in the prologue and
// never clobbered, so memory and send productions always have valid
// operands — keeping generated programs inside the Check-clean domain
// by construction.
var genRegs = [...]isa.Reg{isa.R0, isa.R1, isa.R2}

// genTags are the tags the WTAG production may write. TagMsg is
// excluded: a header word built outside the MoveHdr idiom is exactly
// what the verifier's ASM002 exists to reject. Cfut and Fut stay in —
// a later consuming read faults, which is a bail path worth fuzzing.
var genTags = [...]word.Tag{word.TagInt, word.TagIP, word.TagCfut, word.TagFut}

// genProdCount is the number of generator productions (fuzz selector
// modulus).
const genProdCount = 25

// genProg turns fuzz bytes into a handler program: a fixed prologue
// defining every register the productions read, up to 60 generated
// instructions (two bytes each: production selector and argument), a
// store-and-halt epilogue at "end" (the forward-branch target), and a
// "sink" message handler so send productions have a receiver.
func genProg(data []byte) *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.R0, 1).
		MoveI(isa.R1, 2).
		MoveI(isa.R2, 3).
		MoveI(isa.A0, 64).
		MoveI(isa.A1, 100).
		Move(isa.A1, asm.Mem(isa.A1, 0)) // node word seeded by the rig
	for i := 0; i+1 < len(data) && i < 120; i += 2 {
		op, arg := data[i], data[i+1]
		sel := int(op) % genProdCount
		rk := genRegs[int(op/genProdCount)%len(genRegs)]
		rj := genRegs[int(arg)%len(genRegs)]
		v := int32(arg % 16)
		switch sel {
		case 0:
			b.Nop()
		case 1:
			b.MoveI(rk, v)
		case 2:
			b.Add(rk, asm.Imm(v))
		case 3:
			b.Sub(rk, asm.R(rj))
		case 4:
			b.Mul(rk, asm.Imm(v))
		case 5:
			b.Div(rk, asm.Imm(v+1)) // nonzero; MOD below covers ÷0
		case 6:
			b.Mod(rk, asm.R(rj)) // rj may hold zero: deterministic fault
		case 7:
			b.Xor(rk, asm.R(rj))
		case 8:
			b.Lsh(rk, asm.Imm(v%8))
		case 9:
			b.Ash(rk, asm.Imm(-(v % 8)))
		case 10:
			b.Eq(rk, asm.R(rj))
		case 11:
			b.Lt(rk, asm.Imm(v))
		case 12:
			b.Not(rk)
		case 13:
			b.Neg(rk)
		case 14:
			b.Move(rk, asm.Mem(isa.A0, v%8))
		case 15:
			b.St(rk, asm.Mem(isa.A0, v%8))
		case 16:
			b.Rtag(rk, asm.R(rj))
		case 17:
			b.Iscf(rk, asm.R(rj))
		case 18:
			b.Wtag(rk, asm.Imm(int32(genTags[v%4])))
		case 19:
			b.Enter(rk, asm.R(rj))
		case 20:
			b.Xlate(rk, asm.R(rj)) // misses fault deterministically
		case 21:
			b.Probe(rk, asm.R(rj))
		case 22:
			b.Bt(rk, "end")
		case 23:
			b.Bf(rk, "end")
		case 24:
			b.MoveHdr(isa.R3, "sink", 2).
				SendMsg(asm.R(isa.A1), asm.R(isa.R3), asm.R(rk))
		}
	}
	b.Label("end").
		St(isa.R0, asm.Mem(isa.A0, 1)).
		St(isa.R1, asm.Mem(isa.A0, 2)).
		St(isa.R2, asm.Mem(isa.A0, 3)).
		Halt()
	b.Label("sink").
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Suspend()
	return b.MustAssemble()
}

// fuzzDiff is the differential body: generate, gate on the verifier,
// and run all three lockstep regimes. Inputs the verifier rejects are
// outside the compiled tier's domain (Compile refuses them too) and
// skip rather than fail.
func fuzzDiff(t *testing.T, data []byte, plan uint64) {
	p := genProg(data)
	if _, err := asm.Translate(p); err != nil {
		var ef *asm.ErrFindings
		if errors.As(err, &ef) {
			t.Skip("generated program outside the Check-clean domain")
		}
		t.Fatal(err)
	}
	setup := func(m *machine.Machine) {
		if err := m.Nodes[0].Mem.Write(100, m.Net.NodeWord(1)); err != nil {
			panic(err)
		}
		m.Nodes[0].StartBackground(p.Entry("main"))
	}
	// Per-cycle stepping with fusion pinned off, digests compared on a
	// stride: any cycle is a legal observation point in this regime, and
	// the stride buys fuzz throughput (the per-cycle gold check lives in
	// TestBailBoundaries).
	itp, cpl := buildPair(t, machine.Grid(2, 1, 1), p, setup)
	for i := 0; i < 320; i++ {
		itp.Step()
		cpl.Step()
		if i%16 == 15 {
			compare(t, itp, cpl, "fuzz stepLock")
		}
	}
	compare(t, itp, cpl, "fuzz stepLock end")
	itp2, cpl2 := buildPair(t, machine.Grid(2, 1, 1), p, setup)
	batchLock(t, itp2, cpl2, 320)
	runLock(t, p, plan)
}

// hookPeriods are the periodic hook horizons the run-loop plan draws
// from (0: no hook): one cycle, the quiet window, and both sides of the
// 64-cycle invariant cadence.
var hookPeriods = [...]int64{0, 1, 7, 63, 64, 65}

// runLock drives both tiers through a run-loop plan drawn from plan.
// Every run-loop return is an observation point: cycle, digest, fatal
// state and the returned error must agree. Node 0 runs the program from
// boot; node 1 runs it from boot or from whichever later step starts it
// (a host action between loops), so one node can be mid-window when the
// other's state ends a loop. A periodic no-op hook bounds windows by
// its horizon, as the chaos and reliable-delivery hooks do.
func runLock(t *testing.T, p *asm.Program, plan uint64) {
	r := rand.New(rand.NewSource(int64(plan)))
	period := hookPeriods[r.Intn(len(hookPeriods))]
	start1 := r.Intn(2) == 0
	main := p.Entry("main")
	setup := func(m *machine.Machine) {
		for i := range 2 {
			if err := m.Nodes[i].Mem.Write(100, m.Net.NodeWord(1-i)); err != nil {
				panic(err)
			}
		}
		m.Nodes[0].StartBackground(main)
		if start1 {
			m.Nodes[1].StartBackground(main)
		}
		if period > 0 {
			m.AddCycleHook(func(int64) {}, func(now int64) int64 { return (now/period + 1) * period })
		}
	}
	itp, cpl := buildPair(t, machine.Grid(2, 1, 1), p, setup)
	for step := 0; step < 8; step++ {
		max := int64(1 + r.Intn(200))
		var op string
		var run func(m *machine.Machine) error
		switch r.Intn(5) {
		case 0:
			op = fmt.Sprintf("StepN(%d)", max)
			run = func(m *machine.Machine) error { m.StepN(max); return nil }
		case 1:
			node, addr := r.Intn(2), int32(64+r.Intn(8))
			op = fmt.Sprintf("RunWhile(node %d word %d unchanged, %d)", node, addr, max)
			run = func(m *machine.Machine) error {
				w0, _ := m.Nodes[node].Mem.Read(addr)
				return m.RunWhile(func(m *machine.Machine) bool {
					w, _ := m.Nodes[node].Mem.Read(addr)
					return w == w0
				}, max)
			}
		case 2:
			op = fmt.Sprintf("RunUntilHalt(0, %d)", max)
			run = func(m *machine.Machine) error { return m.RunUntilHalt(0, max) }
		case 3:
			op = fmt.Sprintf("RunQuiescent(%d)", max)
			run = func(m *machine.Machine) error { return m.RunQuiescent(max) }
		default:
			op = "start node 1"
			run = func(m *machine.Machine) error {
				if n := m.Nodes[1]; !n.Halted() && !n.Ctx(mdp.LvlBG).Running {
					n.StartBackground(main)
				}
				return nil
			}
		}
		when := fmt.Sprintf("step %d %s, hook period %d", step, op, period)
		ie, ce := run(itp), run(cpl)
		if fmt.Sprint(ie) != fmt.Sprint(ce) {
			t.Fatalf("%s: interpreter returned %v, compiled %v", when, ie, ce)
		}
		compare(t, itp, cpl, when)
	}
}

// opcodeSeed projects a real program onto the generator's input
// alphabet: each instruction contributes its opcode and A-register
// bytes, so the seed inherits the corpus program's instruction mix.
func opcodeSeed(p *asm.Program) []byte {
	var out []byte
	for _, in := range p.Instrs {
		out = append(out, byte(in.Op), byte(in.A))
	}
	return out
}

// rtLibProgram assembles just the runtime library (plus a trivial
// main), the other half of the issue's seeding corpus.
func rtLibProgram() *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").Halt()
	rt.BuildLib(b)
	return b.MustAssemble()
}

// fuzzSeeds is the shared seed corpus: every generator production,
// the handcrafted stress streams, and the opcode streams of the real
// corpus (rt library and application kernels).
func fuzzSeeds() [][]byte {
	var all []byte
	for sel := 0; sel < genProdCount; sel++ {
		all = append(all, byte(sel), byte(sel*7+3))
	}
	seeds := [][]byte{
		all,
		{},
		{24, 0, 24, 1, 0, 0, 24, 2}, // send-heavy
		{6, 0, 20, 1, 18, 2, 15, 3}, // fault-heavy: mod, xlate, wtag
	}
	for _, p := range []*asm.Program{
		rtLibProgram(),
		lcs.BuildProgram(),
		radix.BuildProgram(),
		nqueens.BuildProgram(),
		tsp.BuildProgram(),
	} {
		seeds = append(seeds, opcodeSeed(p))
	}
	return seeds
}

func FuzzCompiledVsInterpreter(f *testing.F) {
	for i, data := range fuzzSeeds() {
		f.Add(data, uint64(i))
	}
	f.Fuzz(fuzzDiff)
}

// fuzzCertifier is the certificate-soundness body: the same generated
// programs, run on a plain interpreter machine, checking the
// certifier's dynamic claim (asm.Certs.SendDist) against the observed
// traffic. From an instruction boundary about to execute ip, at least
// SendDist[ip] boundaries retire before any send, and boundaries are a
// cycle or more apart; the next boundary is no earlier than the node's
// NextEvent. Node 0 receives nothing in this rig, so each cycle's
// bound, floor + SendDist over its running contexts, is a standing
// promise that no later send may break.
func fuzzCertifier(t *testing.T, data []byte) {
	p := genProg(data)
	tr, err := asm.Translate(p)
	if err != nil {
		var ef *asm.ErrFindings
		if errors.As(err, &ef) {
			t.Skip("generated program outside the Check-clean domain")
		}
		t.Fatal(err)
	}
	m, err := machine.New(machine.Grid(2, 1, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	var sends []trace.Event
	m.Nodes[0].Watch = func(e trace.Event) {
		if e.Kind == trace.Send {
			sends = append(sends, e)
		}
	}
	if err := m.Nodes[0].Mem.Write(100, m.Net.NodeWord(1)); err != nil {
		t.Fatal(err)
	}
	n := m.Nodes[0]
	n.StartBackground(p.Entry("main"))

	dist := tr.Certs.SendDist
	promise := int64(-1 << 62)
	for i := 0; i < 400; i++ {
		if floor := n.NextEvent(); floor != mdp.NoEvent {
			bound := mdp.NoEvent
			for l := 0; l < mdp.NumLevels; l++ {
				ctx := n.Ctx(l)
				if !ctx.Running {
					continue
				}
				b := floor // outside the code segment: take the immediate bound
				if ctx.IP >= 0 && int(ctx.IP) < len(dist) {
					if dist[ctx.IP] >= asm.InfDist {
						continue
					}
					b += int64(dist[ctx.IP])
				}
				bound = min(bound, b)
			}
			promise = max(promise, bound)
		}
		m.Step()
		for _, e := range sends {
			if e.Cycle < promise {
				t.Fatalf("node 0 injected at cycle %d, but the certificate bound promised >= %d",
					e.Cycle, promise)
			}
		}
		sends = sends[:0]
		if m.FatalErr() != nil {
			// No rt fault policy is attached, so a serviced fault without
			// a handler is a legal terminal state (as in fuzzDiff): the
			// node is dead and provably sends nothing more.
			break
		}
	}
}

// FuzzCertifier drives fuzzCertifier from the shared corpus: the
// effect certifier's send-distance tables are checked for dynamic
// soundness on the same program distribution the differential fuzz
// uses for execution equivalence.
func FuzzCertifier(f *testing.F) {
	for _, data := range fuzzSeeds() {
		f.Add(data)
	}
	f.Fuzz(fuzzCertifier)
}
