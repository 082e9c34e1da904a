package compiled_test

// Send-free image tests. A program the static verifier certifies
// send-free — no instruction, reachable or not, can reach the network —
// compiles to an image with CompiledProgram.SendFree set, licensing the
// compiled tier to extend fusion windows to the full fuse limit instead
// of the 7-cycle quiet window. These tests pin down (a) the bit and the
// per-instruction certificate it is computed from — infinite distance
// exactly on instructions from which no path reaches a SEND, zero on
// the sends themselves — and (b) the differential contract under the
// giant windows it enables, including the nastiest external edge: host
// Inject between run loops, which must land on the same cycle in both
// tiers even though the compiled machine executed thousands of
// boundaries eagerly.

import (
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/compiled"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/word"
)

// buildNoSendProgram is an endless send-free compute loop exercising
// the shapes the compiled tier specializes — stores, indexed loads,
// immediate ALU ops, branches — plus a send-free message handler so
// host-injected traffic has somewhere to dispatch.
func buildNoSendProgram(withSend bool) *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, 128).
		MoveI(isa.R2, 0).
		Label("loop").
		Move(isa.R0, asm.Mem(isa.A0, 0)).
		Add(isa.R0, asm.Imm(1)).
		St(isa.R0, asm.Mem(isa.A0, 0)).
		Move(isa.R1, asm.MemR(isa.A0, isa.R2)).
		Add(isa.R1, asm.Mem(isa.A0, 1)).
		Add(isa.R2, asm.Imm(1)).
		And(isa.R2, asm.Imm(7)).
		Bt(isa.R0, "loop").
		Halt()
	// acc: [hdr, payload] — fold the payload into an accumulator.
	b.Label("acc").
		MoveI(isa.A1, 64).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Add(isa.R0, asm.Mem(isa.A1, 0)).
		St(isa.R0, asm.Mem(isa.A1, 0)).
		Suspend()
	if withSend {
		// An unreachable echo handler: nothing ever invokes it, but its
		// SEND must still void the certificate.
		b.Label("echo").
			Send1(asm.Mem(isa.A3, 1)).
			SendE1(asm.R(isa.ZERO)).
			Suspend()
	}
	return b.MustAssemble()
}

// seedNoSend gives every node a distinct memory image so digests are
// sensitive to any cross-node mixup, and primes the accumulator and
// the indexed-load table.
func seedNoSend(m *machine.Machine) {
	for id, n := range m.Nodes {
		n.Mem.Write(64, word.Int(0))
		for i := int32(0); i < 8; i++ {
			n.Mem.Write(128+i, word.Int(int32(id)*100+i+1))
		}
	}
	p := m.Node(0).Prog
	entry := p.Entry("main")
	for _, n := range m.Nodes {
		n.StartBackground(entry)
	}
}

// TestNoSendCertificate: the image bit follows the certificate — every
// instruction of the send-free build carries an infinite send distance
// and the image is SendFree; adding a SEND handler, even an unreachable
// one, zeroes the distance there and clears the bit, while the compute
// loop and acc handler keep their infinite distances.
func TestNoSendCertificate(t *testing.T) {
	p := buildNoSendProgram(false)
	cp, err := compiled.Compile(p)
	if err != nil {
		t.Fatalf("compile send-free: %v", err)
	}
	if !cp.SendFree {
		t.Error("send-free image: SendFree = false")
	}
	for ip, d := range translate(t, p).Certs.SendDist {
		if d < asm.InfDist {
			t.Errorf("send-free image: SendDist[%d] = %d, want InfDist", ip, d)
		}
	}
	p = buildNoSendProgram(true)
	cp, err = compiled.Compile(p)
	if err != nil {
		t.Fatalf("compile with unreachable send: %v", err)
	}
	if cp.SendFree {
		t.Error("image with an unreachable SEND: SendFree = true")
	}
	dist := translate(t, p).Certs.SendDist
	if d := dist[p.Entry("echo")]; d != 0 {
		t.Errorf("SEND instruction: SendDist = %d, want 0", d)
	}
	for _, label := range []string{"main", "loop", "acc"} {
		if d := dist[p.Entry(label)]; d < asm.InfDist {
			t.Errorf("send-free handler %q: SendDist = %d, want InfDist", label, d)
		}
	}
}

func translate(t *testing.T, p *asm.Program) *asm.Translation {
	t.Helper()
	tr, err := asm.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestNoSendWindowEquivalence drives both tiers through StepN batches
// large enough that the send-free image's unbounded windows dominate —
// thousands of boundaries fused per window, far past the 7-cycle quiet
// cap — and requires digest equality at every observation point.
func TestNoSendWindowEquivalence(t *testing.T) {
	itp, cpl := buildPair(t, machine.GridForNodes(8), buildNoSendProgram(false), seedNoSend)
	sizes := []int64{1, 777, 5000, 3, 2048, 64, 5000}
	for _, n := range sizes {
		itp.StepN(n)
		cpl.StepN(n)
		compare(t, itp, cpl, "nosend batch")
	}
	// Vacuity guard: the windows must actually have fused nearly every
	// retired instruction, not fallen back to per-boundary execution.
	total, fused := int64(0), cpl.FusedInstructions()
	for _, n := range cpl.Nodes {
		total += int64(n.Stats.Instrs)
	}
	if total == 0 || float64(fused) < 0.9*float64(total) {
		t.Errorf("fused %d of %d instructions; no-send windows did not engage", fused, total)
	}
}

// TestNoSendInjectEquivalence exercises the external-mutation fence:
// the host injects messages between run loops while the compiled
// machine is fusing whole-horizon windows. Injection can only land
// after the previous loop's cap — which every fused boundary respects —
// so delivery, dispatch, and the handler's stores must hit the same
// cycles in both tiers.
func TestNoSendInjectEquivalence(t *testing.T) {
	p := buildNoSendProgram(false)
	itp, cpl := buildPair(t, machine.GridForNodes(8), p, seedNoSend)
	hdr := word.MsgHeader(p.Entry("acc"), 2)
	for i, n := range []int64{400, 1500, 9, 2500} {
		msg := []word.Word{hdr, word.Int(int32(i + 1))}
		node := (i * 3) % 8
		if ok1, ok2 := itp.Inject(node, 0, msg), cpl.Inject(node, 0, msg); !ok1 || !ok2 {
			t.Fatalf("inject %d refused: interpreter=%v compiled=%v", i, ok1, ok2)
		}
		itp.StepN(n)
		cpl.StepN(n)
		compare(t, itp, cpl, "nosend inject")
	}
	w, err := cpl.Nodes[0].Mem.Read(64)
	if err != nil {
		t.Fatal(err)
	}
	if w.Data() != 1 {
		t.Errorf("node 0 accumulator = %d, want 1 (first injected payload)", w.Data())
	}
}
