package bench

// The token ring: a sync-heavy program over cfut suspends. Every node
// blocks reading a presence-tagged slot; the holder of a token re-arms
// its slot, forwards the token to its ring successor's
// synchronizing-write handler, and suspends again. At any instant all
// but a handful of nodes are idle — the Figure 6 shape for
// synchronization-bound programs, and the case the event-horizon
// stepper exists for — so the tests below drive it to pin the work the
// step loops do, the rendezvous the engine takes and what a large mesh
// costs.

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"jmachine/internal/asm"
	"jmachine/internal/engine"
	"jmachine/internal/isa"
	"jmachine/internal/machine"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
	"jmachine/internal/sim"
	"jmachine/internal/word"
)

const (
	idleOffSlot  = 0 // cfut slot the token lands in
	idleOffCount = 1 // visits this node has forwarded
	idleOffNext  = 2 // router word of the ring successor
)

// buildIdleRingProgram assembles the token-ring loop.
func buildIdleRingProgram() *asm.Program {
	b := asm.NewBuilder()
	b.Label("main").
		MoveI(isa.A0, rt.AppBase).
		Label("main.loop").
		Move(isa.R0, asm.Mem(isa.A0, idleOffSlot)). // suspends: slot is cfut
		// Re-arm the slot for the token's next visit.
		MoveI(isa.R1, 0).
		Wtag(isa.R1, asm.Imm(int32(word.TagCfut))).
		St(isa.R1, asm.Mem(isa.A0, idleOffSlot)).
		// Count the visit.
		Move(isa.R2, asm.Mem(isa.A0, idleOffCount)).
		Add(isa.R2, asm.Imm(1)).
		St(isa.R2, asm.Mem(isa.A0, idleOffCount)).
		// Forward the token to the successor's writesync handler.
		Move(isa.R1, asm.Mem(isa.A0, idleOffNext)).
		Send(asm.R(isa.R1)).
		MoveHdr(isa.R1, "pass", 2).
		Send2E(isa.R1, asm.R(isa.R0)).
		Br("main.loop")
	b.Label("pass").
		MoveI(isa.A0, rt.AppBase).
		Move(isa.R0, asm.Mem(isa.A3, 1)).
		Bsr(isa.R3, rt.LWriteSync).
		Suspend()
	rt.BuildLib(b)
	return b.MustAssemble()
}

// newIdleRing builds a token-ring machine run under sc, with tokens
// seeded evenly around the ring. The caller must stopRun the returned
// run.
func newIdleRing(sc sim.Config, nodes, tokens int) (*machine.Machine, *sim.Run, error) {
	p := buildIdleRingProgram()
	m, err := machine.New(machine.GridForNodes(nodes), p)
	if err != nil {
		return nil, nil, err
	}
	run, err := sc.Attach(m, rt.Attach(m, rt.Info(p), rt.DefaultPolicy()))
	if err != nil {
		return nil, nil, err
	}
	for i, n := range m.Nodes {
		err := n.Mem.FillCfut(rt.AppBase+idleOffSlot, 1)
		if err == nil {
			err = n.Mem.Write(rt.AppBase+idleOffNext, m.Net.NodeWord((i+1)%nodes))
		}
		if err != nil {
			stopRun(run)
			return nil, nil, err
		}
	}
	rt.StartAll(m, p, "main")
	for k := 0; k < tokens; k++ {
		seed := m.Nodes[k*nodes/tokens]
		seed.Queues[0].Push(word.MsgHeader(p.Entry("pass"), 2))
		seed.Queues[0].Push(word.Int(1))
	}
	if err := run.PreRun(); err != nil {
		stopRun(run)
		return nil, nil, err
	}
	return m, run, nil
}

// ringRun is what one stepped ring leaves behind.
type ringRun struct {
	digest uint64
	// stepped counts the cycles the machine stepped rather than
	// skipped: the engine's rendezvous when sharded, the sequential
	// loop's cycle bodies otherwise.
	stepped int64
	visits  int64 // token forwards, summed over the ring
	// heap is the host heap building the machine took (GC-settled
	// before and after), runHeap the host heap it holds after the run,
	// when every node has suspended on its slot, and image its
	// simulated-memory footprint (mem.Memory.HeapBytes), all per node.
	heap, runHeap, image int64
}

// stepRing builds a ring under sc, on the engine when shards > 1, steps
// it for cycles and checks its bookkeeping. The machine is garbage once
// it returns.
func stepRing(t *testing.T, sc sim.Config, shards, nodes, tokens int, cycles int64) ringRun {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, run, err := newIdleRing(sc, nodes, tokens)
	if err != nil {
		t.Fatal(err)
	}
	defer stopRun(run)
	runtime.GC()
	runtime.ReadMemStats(&after)
	r := ringRun{heap: (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(nodes)}
	for _, n := range m.Nodes {
		r.image += n.Mem.HeapBytes()
	}
	r.image /= int64(nodes)
	eng := engine.Attach(m, shards)
	defer eng.Stop()
	count := &countingStepper{}
	if shards <= 1 {
		m.SetStepper(count)
	}
	m.StepN(cycles)
	if err := m.FatalErr(); err != nil {
		t.Fatalf("%d nodes, %+v: %v", nodes, sc, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%d nodes, %+v: %v", nodes, sc, err)
	}
	r.digest, r.stepped = m.StateDigest(), count.nodePhases
	if shards > 1 {
		r.stepped = eng.Rendezvous()
	}
	for _, n := range m.Nodes {
		w, _ := n.Mem.Read(rt.AppBase + idleOffCount)
		r.visits += int64(w.Data())
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.runHeap = (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(nodes)
	runtime.KeepAlive(m)
	return r
}

// TestRingEquivalence re-proves the determinism contract on the ring:
// the reference loop, the fast path and both of them on the engine end
// the same run in byte-identical machine states.
func TestRingEquivalence(t *testing.T) {
	const nodes, tokens, cycles = 16, 2, 3500
	want := stepRing(t, sim.Config{Reference: true}, 1, nodes, tokens, cycles)
	if want.visits == 0 {
		t.Fatal("the tokens never moved")
	}
	for _, c := range []struct {
		name   string
		sc     sim.Config
		shards int
	}{
		{"fast", sim.Config{}, 1},
		{"shards-4", sim.Config{}, 4},
		{"reference/shards-4", sim.Config{Reference: true}, 4},
	} {
		if got := stepRing(t, c.sc, c.shards, nodes, tokens, cycles); got.digest != want.digest {
			t.Errorf("%s: digest %#x, reference %#x", c.name, got.digest, want.digest)
		}
	}
}

// TestRendezvousPerSteppedCycle pins the engine's synchronization cost:
// exactly one rendezvous per cycle the machine steps and none for the
// cycles it skips, on the ring and on the Figure 2 pingpong, fast and
// reference. The stepped count is taken from a sequential twin, by
// counting its cycle bodies; both are functions of simulated state
// alone.
func TestRendezvousPerSteppedCycle(t *testing.T) {
	const nodes, shards, tokens, cycles = 64, 4, 4, 20_000
	ping := func(sc sim.Config, shards int) (stepped int64, digest uint64) {
		p := buildMicroProgram(buildPingClient)
		m, err := machine.New(machine.GridForNodes(nodes), p)
		if err != nil {
			t.Fatal(err)
		}
		run, err := sc.Attach(m, rt.Attach(m, rt.Info(p), rt.DefaultPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		defer stopRun(run)
		if err := m.Nodes[0].Mem.Write(rt.AppBase, m.Net.NodeWord(m.NumNodes()-1)); err != nil {
			t.Fatal(err)
		}
		rt.StartNode(m, p, 0, "main")
		eng := engine.Attach(m, shards)
		defer eng.Stop()
		count := &countingStepper{}
		if shards <= 1 {
			m.SetStepper(count)
		}
		m.StepN(cycles)
		if err := m.FatalErr(); err != nil {
			t.Fatal(err)
		}
		if shards > 1 {
			return eng.Rendezvous(), m.StateDigest()
		}
		return count.nodePhases, m.StateDigest()
	}
	for _, sc := range []sim.Config{{}, {Reference: true}} {
		seqRing := stepRing(t, sc, 1, nodes, tokens, cycles)
		ring := stepRing(t, sc, shards, nodes, tokens, cycles)
		seqPing, seqDigest := ping(sc, 1)
		pingRendezvous, pingDigest := ping(sc, shards)
		t.Logf("reference=%v: ring %d rendezvous, pingpong %d, over %d cycles at %d shards",
			sc.Reference, ring.stepped, pingRendezvous, cycles, shards)
		if ring.stepped != seqRing.stepped || ring.digest != seqRing.digest {
			t.Errorf("reference=%v ring: %d rendezvous, digest %#x; sequential stepped %d cycles, digest %#x",
				sc.Reference, ring.stepped, ring.digest, seqRing.stepped, seqRing.digest)
		}
		if pingRendezvous != seqPing || pingDigest != seqDigest {
			t.Errorf("reference=%v pingpong: %d rendezvous, digest %#x; sequential stepped %d cycles, digest %#x",
				sc.Reference, pingRendezvous, pingDigest, seqPing, seqDigest)
		}
		// The oracle steps every cycle; the fast path skips the
		// pingpong's idle tail, so the two counts are told apart.
		if sc.Reference && (seqRing.stepped != cycles || seqPing != cycles) {
			t.Errorf("oracle stepped %d ring and %d pingpong cycles of %d", seqRing.stepped, seqPing, cycles)
		}
		if !sc.Reference && seqPing >= cycles {
			t.Errorf("fast pingpong stepped all %d cycles; nothing was skipped", cycles)
		}
	}
}

// TestLargeMeshRing steps the ring at 4,096 nodes and, without -short,
// at 16,384: at 4 shards and then sequentially, to the same digest and
// the same stepped-cycle count, with the simulated-memory image per
// node and the host heap per node, built and after the run, pinned.
// One machine is alive at a time: a 16K-node machine is about 82 MiB
// of heap, which the race pass (-short) would multiply.
func TestLargeMeshRing(t *testing.T) {
	const (
		shards, tokens, cycles = 4, 4, 1500
		// memImage is the page table plus materialized pages per node,
		// fully deterministic: a 16-entry table over internal memory
		// (8 B an entry) and the one 2 KiB page the ring's words sit in.
		memImage = 2176
		maxHeap  = 8 << 10
		// maxRunHeap bounds the heap after the run, when every node
		// holds a suspension record and a handler table: 5,369 B/node
		// at 4,096 nodes with both as ordered slices, 6,431 B/node when
		// they were maps.
		maxRunHeap = 5632
	)
	sizes := []int{4096, 16384}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, nodes := range sizes {
		sharded := stepRing(t, sim.Config{}, shards, nodes, tokens, cycles)
		t.Logf("%d nodes: %d B/node host heap built, %d B/node after the run, %d B/node memory image, %d rendezvous, digest %#x",
			nodes, sharded.heap, sharded.runHeap, sharded.image, sharded.stepped, sharded.digest)
		if sharded.image != memImage {
			t.Errorf("%d nodes: memory image %d B/node, want %d", nodes, sharded.image, memImage)
		}
		if sharded.heap >= maxHeap {
			t.Errorf("%d nodes: building the machine took %d B/node of host heap, want < %d", nodes, sharded.heap, maxHeap)
		}
		seq := stepRing(t, sim.Config{}, 1, nodes, tokens, cycles)
		for _, r := range []ringRun{sharded, seq} {
			if r.runHeap >= maxRunHeap {
				t.Errorf("%d nodes: the machine held %d B/node of host heap after the run, want < %d", nodes, r.runHeap, maxRunHeap)
			}
		}
		if seq.digest != sharded.digest || seq.stepped != sharded.stepped {
			t.Errorf("%d nodes: %d shards end in digest %#x after %d rendezvous, sequential in %#x after %d stepped cycles",
				nodes, shards, sharded.digest, sharded.stepped, seq.digest, seq.stepped)
		}
	}
}

// countingStepper is the machine's sequential cycle body, call for
// call, counting the network steps and node phases it runs so the
// visit counters can be set against them.
type countingStepper struct{ netSteps, nodePhases int64 }

func (c *countingStepper) StepCycle(m *machine.Machine) {
	if m.FastPathActive() && m.Net.Quiet() {
		m.Net.SkipCycles(1)
	} else {
		m.Net.Step()
		c.netSteps++
	}
	m.PublishNetQuiet()
	m.StepNodeRangeInfo(0, m.NumNodes())
	c.nodePhases++
}

// newSeededRing builds a 4-token ring of nodes linked in seeded random
// order, so the tokens' hops cross the mesh at seeded distances.
func newSeededRing(t *testing.T, nodes int) (*machine.Machine, *sim.Run) {
	t.Helper()
	m, run, err := newIdleRing(sim.Config{}, nodes, 4)
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(11)).Perm(nodes)
	for i, id := range order {
		if err := m.Nodes[id].Mem.Write(rt.AppBase+idleOffNext, m.Net.NodeWord(order[(i+1)%nodes])); err != nil {
			stopRun(run)
			t.Fatal(err)
		}
	}
	return m, run
}

// ringVisits runs a 4-token ring linked in seeded random order, so the
// tokens' hops cross the mesh at seeded distances, for 20,000 measured
// cycles stepped as slices calls of StepN, and returns the router visits
// per network step, the node visits per node phase and the final digest.
// The bookkeeping is checked after every slice.
func ringVisits(t *testing.T, nodes, slices int) (perNetStep, perNodePhase float64, digest uint64) {
	t.Helper()
	m, run := newSeededRing(t, nodes)
	defer stopRun(run)
	m.StepN(2000)
	c := &countingStepper{}
	m.SetStepper(c)
	routers, visited := m.Net.RouterVisits(), m.NodeVisits()
	for k := 0; k < slices; k++ {
		m.StepN(20_000 / int64(slices))
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%d nodes, slice %d of %d: %v", nodes, k+1, slices, err)
		}
	}
	m.SetStepper(nil)
	if err := m.FatalErr(); err != nil {
		t.Fatal(err)
	}
	if c.netSteps < 5000 {
		t.Fatalf("%d nodes: only %d of 20000 cycles stepped the network; the tokens are not moving", nodes, c.netSteps)
	}
	return float64(m.Net.RouterVisits()-routers) / float64(c.netSteps),
		float64(m.NodeVisits()-visited) / float64(c.nodePhases), m.StateDigest()
}

// TestVisitsFollowTokensNotMeshSize pins the work the step loops do on
// a nearly idle mesh: with four tokens in flight a network step
// examines a few dozen routers and a node phase a few nodes, at 512
// nodes and at 4,096 alike. The sweeps this replaced examined 2×nodes
// routers and nodes nodes per cycle. The counts are exact at the seed.
func TestVisitsFollowTokensNotMeshSize(t *testing.T) {
	const maxRouters, maxNodes = 64, 32
	for _, nodes := range []int{512, 4096} {
		r, n, _ := ringVisits(t, nodes, 1)
		t.Logf("%d nodes: %.2f router visits per network step, %.2f node visits per node phase", nodes, r, n)
		if r >= maxRouters || n >= maxNodes {
			t.Errorf("%d nodes: %.1f router visits per network step (want < %d), %.1f node visits per node phase (want < %d)",
				nodes, r, maxRouters, n, maxNodes)
		}
		if r2, n2, _ := ringVisits(t, nodes, 1); r2 != r || n2 != n {
			t.Errorf("%d nodes: visits not repeatable: %v, %v then %v, %v", nodes, r, n, r2, n2)
		}
	}
}

// TestObservedRingVisits pins the work an observed run does: the
// recorder's cycle hook declares its next sample as its horizon, so a
// 512-node ring with four tokens and a recorder sampling every 64
// cycles parks and skips as the unobserved run does, and ends in its
// digest, where a loop stepping every node every cycle would visit 512
// nodes a cycle. The counts are exact at the seed.
func TestObservedRingVisits(t *testing.T) {
	const nodes, cycles = 512, 4000
	type work struct{ visits, nodePhases int64 }
	ring := func(o *obs.Options) (work, uint64) {
		m, run, err := newIdleRing(sim.Config{Obs: o}, nodes, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer stopRun(run)
		c := &countingStepper{}
		m.SetStepper(c)
		visited := m.NodeVisits()
		m.StepN(cycles)
		m.SetStepper(nil)
		if err := m.FatalErr(); err != nil {
			t.Fatal(err)
		}
		return work{m.NodeVisits() - visited, c.nodePhases}, m.StateDigest()
	}
	unobserved, want := ring(nil)
	dir := t.TempDir()
	got, digest := ring(&obs.Options{
		PerfettoPath: filepath.Join(dir, "trace.json"),
		MetricsPath:  filepath.Join(dir, "metrics.jsonl"),
		Every:        64,
	})
	t.Logf("observed: %d node visits over %d node phases (%.2f each); unobserved: %d over %d (%.2f each)",
		got.visits, got.nodePhases, float64(got.visits)/float64(got.nodePhases),
		unobserved.visits, unobserved.nodePhases, float64(unobserved.visits)/float64(unobserved.nodePhases))
	if digest != want {
		t.Errorf("observed ring ends in digest %#x, unobserved in %#x", digest, want)
	}
	if wantWork := (work{16528, 1727}); got != wantWork {
		t.Errorf("observed ring: %d node visits over %d node phases, want %d over %d",
			got.visits, got.nodePhases, wantWork.visits, wantWork.nodePhases)
	}
}

// TestSlicedSteppingDoesNoExtraWork pins the bulk-step boundary: the
// same 20,000 cycles stepped as ten StepN calls examine exactly the
// nodes and routers one call does, and end in the same state. Entry to
// StepN re-derives parked nodes' wakes instead of re-stepping them all,
// so a slice boundary costs the active set nothing.
func TestSlicedSteppingDoesNoExtraWork(t *testing.T) {
	const nodes = 4096
	r1, n1, d1 := ringVisits(t, nodes, 1)
	r10, n10, d10 := ringVisits(t, nodes, 10)
	t.Logf("one StepN: %.2f node visits per node phase; ten: %.2f", n1, n10)
	if n10 != n1 || r10 != r1 {
		t.Errorf("ten slices: %v node visits per node phase, %v router visits per network step; one call: %v, %v",
			n10, r10, n1, r1)
	}
	if d10 != d1 {
		t.Errorf("ten slices end in digest %#x, one call in %#x", d10, d1)
	}
}

// TestExternalPushBetweenSlices pins the contract the boundary relies
// on: a message pushed straight into a parked node's queue between two
// StepN calls, with no wake signal, is noticed at the next call's entry
// exactly as the reference loop notices it.
func TestExternalPushBetweenSlices(t *testing.T) {
	const nodes = 512
	p := buildIdleRingProgram()
	var target int
	run := func(sc sim.Config) uint64 {
		m, run, err := newIdleRing(sc, nodes, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer stopRun(run)
		m.StepN(2000)
		if !sc.Reference {
			// Pick a node parked on traffic: nothing but a wake or an
			// external mutation would step it again.
			target = -1
			for _, pd := range m.Diagnose().Parked {
				if !pd.NeedWake && pd.WakeAt == machine.NoEvent {
					target = pd.Node
					break
				}
			}
			if target < 0 {
				t.Fatal("no node is parked on traffic after 2000 cycles")
			}
		}
		m.Nodes[target].Queues[0].Push(word.MsgHeader(p.Entry("pass"), 2))
		m.Nodes[target].Queues[0].Push(word.Int(1))
		m.StepN(3000)
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := m.FatalErr(); err != nil {
			t.Fatal(err)
		}
		w, _ := m.Nodes[target].Mem.Read(rt.AppBase + idleOffCount)
		if w.Data() == 0 {
			t.Fatalf("node %d never forwarded the pushed token", target)
		}
		return m.StateDigest()
	}
	fast := run(sim.Config{})
	if ref := run(sim.Config{Reference: true}); fast != ref {
		t.Errorf("digest %#x after the push, reference %#x", fast, ref)
	}
}
