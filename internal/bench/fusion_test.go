package bench

import (
	"math/rand"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/compiled"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/mdp"
	"jmachine/internal/rt"
	"jmachine/internal/word"
)

// TestCertifiedFusionCoverage pins what the fusion licences buy the
// compiled tier, on two shapes run from boot by StepN both compiled and
// interpreted, to the same digest:
//
//   - send-free, the Figure 3 idle loop assembled standalone (no echo
//     handler, no runtime library): the image certifies send-free,
//     so windows run to the published limit and one window per node
//     covers the whole run. Under the quiet rule's 7-cycle window alone
//     the share would sit near 0.76.
//   - fig3-exchange, the loaded loop: its windows end at the SEND
//     instructions, which have no closure. The shape is code-bound, so
//     no licence could extend them.
func TestCertifiedFusionCoverage(t *testing.T) {
	const nodes, cycles, idleIters = 16, 30_000, 16
	sendFree := func() *machine.Machine {
		b := asm.NewBuilder()
		b.Label("main").
			MoveI(isa.A2, int32(rt.AppBase)).
			Label("loop").
			Move(isa.R3, asm.Mem(isa.A2, fig3OffIdle)).
			Label("idle").
			Sub(isa.R3, asm.Imm(1)).
			Bt(isa.R3, "idle").
			Move(isa.R1, asm.Mem(isa.A2, fig3OffIters)).
			Add(isa.R1, asm.Imm(1)).
			St(isa.R1, asm.Mem(isa.A2, fig3OffIters)).
			Br("loop")
		m := machine.MustNew(machine.GridForNodes(nodes), b.MustAssemble())
		for i, n := range m.Nodes {
			n.Mem.Write(rt.AppBase+fig3OffIdle, word.Int(int32(idleIters+i)))
			n.StartBackground(0)
		}
		return m
	}
	exchange := func() *machine.Machine {
		p := buildFig3Program(8, true, 1<<30)
		m := machine.MustNew(machine.GridForNodes(nodes), p)
		rt.Attach(m, rt.Info(p), rt.DefaultPolicy())
		seedFig3(m, idleIters, rand.New(rand.NewSource(3)))
		rt.StartAll(m, p, "main")
		return m
	}
	// run steps a fresh machine from boot and returns its digest, its
	// fusion accounting and the share of retired instructions fused.
	run := func(build func() *machine.Machine, compile bool) (uint64, mdp.FusionStats, float64) {
		m := build()
		if compile {
			cp, err := compiled.Compile(m.Node(0).Prog)
			if err != nil {
				t.Fatal(err)
			}
			m.SetCompiled(cp)
		}
		m.StepN(cycles)
		if err := m.FatalErr(); err != nil {
			t.Fatal(err)
		}
		var instrs int64
		for _, n := range m.Nodes {
			instrs += int64(n.Stats.Instrs)
		}
		if instrs == 0 {
			t.Fatal("no instruction retired")
		}
		fs := m.FusionStats()
		return m.StateDigest(), fs, float64(fs.Fused) / float64(instrs)
	}
	shape := func(name string, build func() *machine.Machine) (mdp.FusionStats, float64) {
		want, _, _ := run(build, false)
		got, fs, share := run(build, true)
		ends := map[string]int64{}
		for i, reason := range mdp.FuseEndReasonNames {
			ends[reason] = fs.End[i]
		}
		t.Logf("%s: fused share %.4f, %d windows, ends %v, %d of %d boundaries without licence",
			name, share, fs.Windows, ends, fs.NoLicense, fs.Boundaries)
		if got != want {
			t.Errorf("%s: compiled digest %#x, interpreted %#x", name, got, want)
		}
		if fs.Boundaries == 0 || fs.Windows == 0 {
			t.Errorf("%s: vacuous run (%d boundaries, %d windows)", name, fs.Boundaries, fs.Windows)
		}
		return fs, share
	}

	fs, share := shape("send-free", sendFree)
	if share < 0.999 {
		t.Errorf("send-free: fused share %.4f, want >= 0.999", share)
	}
	if fs.Windows != nodes || fs.End[mdp.FuseEndLimit] != fs.Windows {
		t.Errorf("send-free: %d windows, %d ending at the limit; want one per node (%d), all at the limit",
			fs.Windows, fs.End[mdp.FuseEndLimit], nodes)
	}
	fs, _ = shape("fig3-exchange", exchange)
	if notCompiled := fs.End[mdp.FuseEndNotCompiled]; notCompiled*10 < fs.Windows*9 {
		t.Errorf("fig3-exchange: %d of %d windows end at an instruction without a closure, want >= 90%%",
			notCompiled, fs.Windows)
	}
}
