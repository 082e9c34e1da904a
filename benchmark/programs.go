package main

// The workload programs. The benchmark owns them — built here from
// asm.Builder rather than borrowed from internal/bench — so that a
// reorganisation of that package cannot change what is measured.

import (
	"math/rand"

	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/mdp"
	"jmachine/internal/rt"
	"jmachine/internal/word"
)

// Exchange/compute loop layout (words relative to rt.AppBase) and the
// random-partner table every node indexes.
const (
	loopOffMask  = 0 // table index mask
	loopOffIdle  = 1 // idle-loop iterations between exchanges
	loopOffIters = 2 // completed iterations
	loopOffFlag  = 3 // ack-arrived flag
	loopOffSkew  = 4 // start-up delay iterations (decorrelates phases)

	partnerTable     = 3000
	partnerTableSize = 256

	exchangeWords = 8  // message length, request and ack
	loopIdleIters = 16 // offered load: the paper's Figure 3 "idle 16" point
)

// loopProgram assembles the Figure 3 loop. With sends, every iteration
// sends an exchangeWords-long message to the next table partner and
// spins until the priority-1 ack raises the flag; the image links the
// runtime library. Without sends it is the paper's base-case
// calibration loop assembled standalone: no handler, no library, hence
// no SEND anywhere in the image, which is what lets the compiled tier
// certify it send-free and fuse to the horizon.
func loopProgram(sends bool) *asm.Program {
	b := asm.NewBuilder()
	app := int32(rt.AppBase)
	b.Label("main").
		MoveI(isa.A2, app).
		MoveI(isa.R2, 0).
		Move(isa.R3, asm.Mem(isa.A2, loopOffSkew)).
		Bf(isa.R3, "loop").
		Label("skew").
		Sub(isa.R3, asm.Imm(1)).
		Bt(isa.R3, "skew")
	b.Label("loop").
		St(isa.ZERO, asm.Mem(isa.A2, loopOffFlag)).
		MoveI(isa.A0, partnerTable).
		Move(isa.R0, asm.MemR(isa.A0, isa.R2))
	if sends {
		b.Send(asm.R(isa.R0)).
			MoveHdr(isa.R1, "echo", exchangeWords).
			Send(asm.R(isa.R1)).
			Send(asm.R(isa.NNR))
		for i := 0; i < exchangeWords-3; i++ {
			b.Send(asm.R(isa.ZERO))
		}
		b.SendE(asm.R(isa.ZERO)).
			Label("spin").
			Move(isa.R1, asm.Mem(isa.A2, loopOffFlag)).
			Bf(isa.R1, "spin")
	}
	b.Move(isa.R3, asm.Mem(isa.A2, loopOffIdle)).
		Bf(isa.R3, "afteridle").
		Label("idle").
		Sub(isa.R3, asm.Imm(1)).
		Bt(isa.R3, "idle").
		Label("afteridle").
		Add(isa.R2, asm.Imm(1)).
		And(isa.R2, asm.Mem(isa.A2, loopOffMask)).
		Move(isa.R1, asm.Mem(isa.A2, loopOffIters)).
		Add(isa.R1, asm.Imm(1)).
		St(isa.R1, asm.Mem(isa.A2, loopOffIters)).
		Lt(isa.R1, asm.Imm(1<<30)). // never reached: the loop runs until the benchmark stops stepping
		Bt(isa.R1, "loop").
		Halt()
	if !sends {
		return b.MustAssemble()
	}
	// echo: [hdr, sender, pads...] — return an ack at priority 1, the
	// mechanism that keeps replies from deadlocking behind requests.
	b.Label("echo").
		Send1(asm.Mem(isa.A3, 1)).
		MoveHdr(isa.R1, "ack", exchangeWords).
		Send1(asm.R(isa.R1))
	for i := 0; i < exchangeWords-2; i++ {
		b.Send1(asm.R(isa.ZERO))
	}
	b.SendE1(asm.R(isa.ZERO)).
		Suspend()
	b.Label("ack").
		MoveI(isa.A0, app).
		MoveI(isa.R0, 1).
		St(isa.R0, asm.Mem(isa.A0, loopOffFlag)).
		Suspend()
	rt.BuildLib(b)
	return b.MustAssemble()
}

// seedLoop writes the loop's per-node parameters: seeded random
// partners and a seeded start-up skew.
func seedLoop(m *machine.Machine, rng *rand.Rand) {
	period := 4*loopIdleIters + 120
	for _, n := range m.Nodes {
		poke(n, rt.AppBase+loopOffMask, word.Int(partnerTableSize-1))
		poke(n, rt.AppBase+loopOffIdle, word.Int(loopIdleIters))
		poke(n, rt.AppBase+loopOffSkew, word.Int(int32(rng.Intn(period/2+1))))
		for i := 0; i < partnerTableSize; i++ {
			poke(n, partnerTable+int32(i), m.Net.NodeWord(rng.Intn(m.NumNodes())))
		}
	}
}

// poke writes one word of a node's memory image. The addresses are
// this file's constants, so a failure is a bug here, not an input.
func poke(n *mdp.Node, addr int32, w word.Word) {
	if err := n.Mem.Write(addr, w); err != nil {
		panic(err)
	}
}

func bootExchange(m *machine.Machine, p *asm.Program, rng *rand.Rand) {
	seedLoop(m, rng)
	rt.StartAll(m, p, "main")
}

func bootCompute(m *machine.Machine, p *asm.Program, rng *rand.Rand) {
	seedLoop(m, rng)
	entry := p.Entry("main")
	for _, n := range m.Nodes {
		n.StartBackground(entry)
	}
}

// Token-ring layout (words relative to rt.AppBase).
const (
	ringOffSlot  = 0 // cfut slot the token lands in
	ringOffCount = 1 // visits this node has forwarded
	ringOffNext  = 2 // router word of the ring successor

	ringTokens = 4
)

// ringProgram assembles the token ring: every node suspends reading a
// presence-tagged slot; a token's arrival wakes it, it re-arms the
// slot, forwards the token to its successor's synchronizing-write
// handler and suspends again.
func ringProgram() *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, rt.AppBase).
		Label("main.loop").
		Move(isa.R0, asm.Mem(isa.A0, ringOffSlot)). // suspends: slot is cfut
		MoveI(isa.R1, 0).
		Wtag(isa.R1, asm.Imm(int32(word.TagCfut))).
		St(isa.R1, asm.Mem(isa.A0, ringOffSlot)).
		Move(isa.R2, asm.Mem(isa.A0, ringOffCount)).
		Add(isa.R2, asm.Imm(1)).
		St(isa.R2, asm.Mem(isa.A0, ringOffCount)).
		Move(isa.R1, asm.Mem(isa.A0, ringOffNext)).
		Send(asm.R(isa.R1)).
		MoveHdr(isa.R1, "pass", 2).
		Send2E(isa.R1, asm.R(isa.R0)).
		// Never false; the static verifier wants a sending loop to have
		// an exit that depends on something the loop changes.
		Lt(isa.R2, asm.Imm(1<<30)).
		Bt(isa.R2, "main.loop").
		Halt()
	b.Label("pass").
		MoveI(isa.A0, rt.AppBase).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Bsr(isa.R3, rt.LWriteSync).
		Suspend()
	rt.BuildLib(b)
	return b.MustAssemble()
}

// bootRing links the nodes into one ring in seeded random order, so a
// token's hops cross the mesh at seeded distances, and drops the
// tokens at evenly spaced ring positions.
func bootRing(m *machine.Machine, p *asm.Program, rng *rand.Rand) {
	nodes := m.NumNodes()
	order := rng.Perm(nodes)
	for i, id := range order {
		n := m.Nodes[id]
		if err := n.Mem.FillCfut(rt.AppBase+ringOffSlot, 1); err != nil {
			panic(err)
		}
		poke(n, rt.AppBase+ringOffNext, m.Net.NodeWord(order[(i+1)%nodes]))
	}
	rt.StartAll(m, p, "main")
	for k := 0; k < ringTokens; k++ {
		n := m.Nodes[order[k*nodes/ringTokens]]
		n.Queues[0].Push(word.MsgHeader(p.Entry("pass"), 2))
		n.Queues[0].Push(word.Int(1))
	}
}
