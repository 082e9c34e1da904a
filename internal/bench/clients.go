package bench

import (
	"jmachine/internal/asm"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
)

// Micro-benchmark client programs. Each client runs on node 0, issues
// one remote operation against a target node held at AppBase, and
// suspends; the runtime's ack/reply handler timestamps completion in
// AddrFlag. Departure is timestamped at AppBase+3 so round-trip times
// are exact (not quantized by a polling loop).

// buildPingClient emits "main": a null RPC — two-word request, one-word
// acknowledgement (the Figure 2 "Ping" line).
func buildPingClient(b *asm.Builder) {
	b.Label("main").
		MoveI(isa.A0, rt.AppBase).
		Move(isa.R2, asm.R(isa.CYC)).
		St(isa.R2, asm.Mem(isa.A0, 3)).
		Send(asm.Mem(isa.A0, 0)).
		MoveHdr(isa.R1, rt.LPing, 2).
		Send(asm.R(isa.R1)).
		SendE(asm.R(isa.NNR)).
		Suspend()
}

// buildReadClient emits "main": a remote read of 1 or 6 words (handler
// selects which) from the address held at AppBase+1.
func buildReadClient(handler string) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Label("main").
			MoveI(isa.A0, rt.AppBase).
			Move(isa.R2, asm.R(isa.CYC)).
			St(isa.R2, asm.Mem(isa.A0, 3)).
			Send(asm.Mem(isa.A0, 0)).
			MoveHdr(isa.R1, handler, 3).
			Send(asm.R(isa.R1)).
			Send(asm.Mem(isa.A0, 1)).
			SendE(asm.R(isa.NNR)).
			Suspend()
	}
}

// buildMicroProgram assembles a client plus the runtime library.
func buildMicroProgram(build func(b *asm.Builder)) *asm.Program {
	b := asm.NewBuilder()
	build(b)
	rt.BuildLib(b)
	return b.MustAssemble()
}

// runRoundTrip boots the client on node 0 of a machine run under sc,
// targeting the given node, and returns the measured round-trip cycles.
func runRoundTrip(sc sim.Config, p *asm.Program, cfg machine.Config, target int,
	setup func(m *machine.Machine)) (int64, error) {
	m, err := machine.New(cfg, p)
	if err != nil {
		return 0, err
	}
	r := rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
	run, err := sc.Attach(m, r)
	if err != nil {
		return 0, err
	}
	defer stopRun(run)
	if err := m.Nodes[0].Mem.Write(rt.AppBase, m.Net.NodeWord(target)); err != nil {
		return 0, err
	}
	if setup != nil {
		setup(m)
	}
	rt.StartNode(m, p, 0, "main")
	if err := run.PreRun(); err != nil {
		return 0, err
	}
	err = m.RunWhile(func(m *machine.Machine) bool {
		w, _ := m.Nodes[0].Mem.Read(rt.AddrFlag)
		return !w.Truthy()
	}, 1_000_000)
	if err != nil {
		return 0, err
	}
	flag, _ := m.Nodes[0].Mem.Read(rt.AddrFlag)
	start, _ := m.Nodes[0].Mem.Read(rt.AppBase + 3)
	return int64(flag.Data() - start.Data()), nil
}

// hopTargets returns, for each distance 0..max, a node id at exactly
// that Manhattan distance from node 0 on the given mesh.
func hopTargets(m *machine.Machine, max int) []int {
	var out []int
	for d := 0; d <= max; d++ {
		found := -1
		for id := 0; id < m.NumNodes() && found < 0; id++ {
			x, y, z := m.Net.NodeCoords(id)
			if x+y+z == d {
				found = id
			}
		}
		if found < 0 {
			break
		}
		out = append(out, found)
	}
	return out
}

// ememAddr returns an address in external memory for a machine config.
func ememAddr() int32 { return 8192 }

// imemAddr returns an address in internal memory.
func imemAddr() int32 { return 600 }
