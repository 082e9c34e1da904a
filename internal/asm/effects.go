package asm

import (
	"fmt"
	"sort"
	"strings"

	"jmachine/internal/isa"
	"jmachine/internal/word"
)

// This file is the effect and resource certifier: a whole-program
// abstract interpretation over the checker's CFG that proves, per
// handler, how soon and how much a dispatched activation can talk to
// the network. The certificates feed two consumers:
//
//   - the compiled execution tier (asm.Translate → internal/compiled →
//     mdp.CompiledProgram.SendFree): an image whose every instruction
//     has infinite send distance cannot inject at all, which extends
//     quiet-rule fusion windows past the fixed 7-cycle lookahead;
//   - four diagnostics over the cross-handler send graph: ASM009
//     (unbounded send loop), ASM010 (cross-priority clobber of shared
//     static state), ASM011 (amplifying handler send cycle that can
//     deadlock a full-queue mesh), ASM012 (stale allowance — reported
//     from Check's allowance filter using these certificates).
//
// Soundness of the send-distance bound. dist[i] is a lower bound on
// the number of instruction boundaries retired, starting from a
// boundary about to execute instruction i, before any effect can leave
// the thread for the network. Effect points are distance 0:
//
//   - the SEND family (the injection itself);
//   - TRAP (system-software services may enqueue local messages —
//     rt.pushLocal — or resume a suspended context at an arbitrary IP);
//   - a register-target JMP (the target is dynamic, so any code,
//     including a SEND, may be next).
//
// Every other instruction is 1 + the minimum over its CFG successors;
// SUSPEND and HALT end the thread (the machine separately accounts for
// what dispatches next), so paths through them contribute nothing.
// Fault service cannot escape this bound: ActRetry re-executes the same
// instruction, ActAdvance is the fall-through edge, ActSuspend ends the
// thread, and ActResume is only reachable from a TRAP — which is
// already distance 0.

// InfDist is the send-distance value for "send-free": no path from
// here reaches an effect point. It is small enough that sums with
// instruction counts and cycle offsets cannot overflow int32.
const InfDist = int32(1) << 28

// HandlerCert is the per-handler effect and resource certificate.
type HandlerCert struct {
	Entry int32  // entry address
	Label string // label at the entry, "" if unnamed

	// Subroutine marks a register-contract entry: a label nothing in
	// the image references that ends in a register JMP — a library
	// subroutine linked but not called here, entered (if ever) with
	// caller-provided registers rather than a message dispatch.
	Subroutine bool

	// Pri records the dispatch priorities this handler was observed at:
	// the priorities of traced sends naming it, or priority 0 for
	// host-dispatched entries nothing sends to.
	Pri [2]bool

	// SendDist is the minimum number of instructions any activation
	// retires before its first possible network effect (InfDist =
	// certified send-free).
	SendDist int32

	// MaxMsgWords is the longest statically-traced complete message the
	// handler can inject, in words including the destination; 0 when it
	// sends nothing traceable.
	MaxMsgWords int

	// MaxOpenWords is the peak length of a half-built message across
	// the handler's reachable code, per the block-local scan; -1 when a
	// loop makes it unbounded.
	MaxOpenWords int

	// MinSends and MaxSends bound the complete messages injected per
	// activation, assuming fault-free execution. MaxSends is -1 when a
	// send sits inside a reachable CFG cycle (unbounded).
	MinSends int
	MaxSends int

	// Targets are the handler entries this handler's traced sends
	// dispatch, ascending and distinct.
	Targets []int32
}

// Certs is the whole-program certificate set.
type Certs struct {
	// SendDist is the per-instruction send-distance table (see the file
	// comment); it covers every instruction, reachable or not, because
	// a register JMP can dynamically reach any address.
	SendDist []int32
	// Handlers are the per-entry certificates, ascending by entry.
	Handlers []HandlerCert
}

// Handler returns the certificate whose entry is at or nearest before
// addr, or nil when the program has no entries at or before it.
func (c *Certs) Handler(addr int32) *HandlerCert {
	i := sort.Search(len(c.Handlers), func(i int) bool { return c.Handlers[i].Entry > addr })
	if i == 0 {
		return nil
	}
	return &c.Handlers[i-1]
}

// Certify computes the effect/resource certificates for a program
// without running the full verifier. Check and Translate compute the
// same certificates as part of their passes.
func Certify(p *Program) *Certs {
	c := &checker{p: p, labelAt: labelIndex(p)}
	c.recoverHeaders()
	c.buildCFG()
	c.certify()
	return c.eff.certs
}

// sendSite is one statically-recovered complete send (an ending SEND).
type sendSite struct {
	instr  int32
	pri    int
	words  int   // message words including the destination, -1 untraced
	target int32 // recovered handler entry, -1 untraced
}

// storeSite is one store through a statically-known absolute address.
type storeSite struct {
	instr int32
	addr  int32
	blind bool // no load of the same address earlier in the block
}

// effectState is the certifier's working state, attached to checker.
type effectState struct {
	certs     *Certs
	subr      map[int32]bool // entry -> subroutine-classified
	entryAddr []int32        // all entries, ascending
	sites     []sendSite
	stores    []storeSite
	siteAt    map[int32]*sendSite // instr -> site
	openPeak  [][2]int            // per instruction: block-local open-send peak
}

// isEffect reports the distance-0 instructions: network injection and
// the two dynamic escape hatches (TRAP services, register jumps).
func isEffect(in isa.Instr) bool {
	if in.Op.IsSend() || in.Op == isa.TRAP {
		return true
	}
	return in.Op == isa.JMP && in.B.Mode != isa.ModeImm
}

// certify runs every certificate pass. recoverHeaders and buildCFG
// must have run.
func (c *checker) certify() {
	c.eff.certs = &Certs{SendDist: c.sendDistances()}
	c.classifyEntries()
	c.scanSites()
	for _, e := range c.eff.entryAddr {
		c.eff.certs.Handlers = append(c.eff.certs.Handlers, c.handlerCert(e))
	}
}

// sendDistances computes the per-instruction send-distance table by
// fixpoint over the CFG: values start at InfDist and only decrease, so
// reverse sweeps converge in at most longest-path iterations.
func (c *checker) sendDistances() []int32 {
	ins := c.p.Instrs
	n := len(ins)
	dist := make([]int32, n)
	for i := range dist {
		if isEffect(ins[i]) {
			dist[i] = 0
		} else {
			dist[i] = InfDist
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			if dist[i] == 0 {
				continue
			}
			best := InfDist
			for _, s := range c.succs[i] {
				if d := dist[s]; d < best {
					best = d
				}
			}
			if best < InfDist {
				best++
			}
			if best < dist[i] {
				dist[i] = best
				changed = true
			}
		}
	}
	return dist
}

// classifyEntries fixes the entry list (recovered headers plus orphan
// labels, mirroring checkFlow's seeding) and classifies orphan labels
// whose reachable region ends in register JMPs and never suspends as
// subroutine contracts: library code linked but not called, entered
// with caller-provided registers, not by a message dispatch.
func (c *checker) classifyEntries() {
	n := len(c.p.Instrs)
	c.eff.subr = make(map[int32]bool)
	set := make(map[int32]bool, len(c.entries))
	for a := range c.entries {
		set[a] = true
	}
	for _, a := range c.p.Labels {
		if int(a) < n && c.preds[a] == 0 && !c.entries[a] {
			set[a] = true
			if c.subroutineShaped(a) {
				c.eff.subr[a] = true
			}
		}
	}
	if len(set) == 0 && n > 0 {
		set[0] = true
	}
	c.eff.entryAddr = c.eff.entryAddr[:0]
	for a := range set {
		c.eff.entryAddr = append(c.eff.entryAddr, a)
	}
	sort.Slice(c.eff.entryAddr, func(i, j int) bool { return c.eff.entryAddr[i] < c.eff.entryAddr[j] })
}

// subroutineShaped reports whether the region reachable from addr
// returns via a register JMP on some path and never reaches SUSPEND: a
// message handler ends its thread with SUSPEND, a subroutine returns.
func (c *checker) subroutineShaped(addr int32) bool {
	seen := make(map[int32]bool)
	work := []int32{addr}
	hasReturn := false
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[i] {
			continue
		}
		seen[i] = true
		in := c.p.Instrs[i]
		switch in.Op {
		case isa.SUSPEND:
			return false
		case isa.JMP:
			if in.B.Mode != isa.ModeImm {
				hasReturn = true
			}
		}
		work = append(work, c.succs[i]...)
	}
	return hasReturn
}

// scanSites re-runs the block-local value tracking (the same leader set
// checkBlocks uses) to recover complete send sites — priority, traced
// target handler, message length — absolute-address stores for the
// cross-priority clobber check, and the per-instruction open-send peak.
func (c *checker) scanSites() {
	ins := c.p.Instrs
	n := len(ins)
	c.eff.sites = nil
	c.eff.stores = nil
	c.eff.siteAt = make(map[int32]*sendSite)
	c.eff.openPeak = make([][2]int, n)

	boundary := make([]bool, n+1)
	boundary[0] = true
	for _, addr := range c.p.Labels {
		if int(addr) < len(boundary) {
			boundary[addr] = true
		}
	}
	for i, in := range ins {
		for _, s := range c.succs[i] {
			if s != int32(i+1) {
				boundary[s] = true
			}
		}
		if in.Op.IsBranch() || in.Op == isa.SUSPEND || in.Op == isa.HALT {
			boundary[i+1] = true
		}
	}

	hdrRegs := make(map[isa.Reg]word.Word) // MoveHdr-built header constants
	addrRegs := make(map[isa.Reg]int32)    // MoveI-built absolute addresses
	loaded := make(map[int32]bool)         // block-local loads by address
	var open [2]int                        // block-local open-send words
	var target [2]int32
	var known [2]bool
	reset := func() {
		hdrRegs = make(map[isa.Reg]word.Word)
		addrRegs = make(map[isa.Reg]int32)
		loaded = make(map[int32]bool)
		open = [2]int{}
		target = [2]int32{-1, -1}
		known = [2]bool{}
	}
	reset()

	for i, in := range ins {
		if boundary[i] {
			reset()
		}

		// Absolute-address loads and stores (MoveI base + Mem offset).
		if base, ok := addrRegs[in.B.Reg]; ok && in.B.Mode == isa.ModeMem {
			addr := base + in.B.Imm
			switch in.Op {
			case isa.MOVE:
				loaded[addr] = true
			case isa.ST:
				c.eff.stores = append(c.eff.stores, storeSite{
					instr: int32(i), addr: addr, blind: !loaded[addr],
				})
			}
		}

		if in.Op.IsSend() {
			pri := in.Op.SendPriority()
			prev := open[pri]
			open[pri] += in.Op.SendWords()
			if prev <= 1 && open[pri] >= 2 && !known[pri] {
				// This instruction supplies slot 1: the message header.
				var src isa.Reg
				have := false
				if in.Op.SendWords() == 2 && prev == 1 {
					src, have = in.A, true
				} else if in.B.Mode == isa.ModeReg {
					src, have = in.B.Reg, true
				}
				if have {
					if hdr, ok := hdrRegs[src]; ok {
						target[pri] = hdr.HeaderIP()
						known[pri] = true
					}
				}
			}
			if in.Op.SendEnds() {
				site := sendSite{instr: int32(i), pri: pri, words: open[pri], target: -1}
				if known[pri] {
					if t := target[pri]; t >= 0 && int(t) < n {
						site.target = t
					}
				}
				c.eff.sites = append(c.eff.sites, site)
				open[pri] = 0
				target[pri] = -1
				known[pri] = false
			}
		}
		c.eff.openPeak[i] = open

		// Track register state for the rest of the block.
		if w := writesReg(in); w >= 0 {
			r := isa.Reg(w)
			delete(hdrRegs, r)
			delete(addrRegs, r)
			switch {
			case in.Op == isa.MOVE && in.B.Mode == isa.ModeImm:
				addrRegs[r] = in.B.Imm
			case in.Op == isa.WTAG && in.B.Mode == isa.ModeImm &&
				word.Tag(in.B.Imm&0xF) == word.TagMsg:
				if hdr, ok := c.headers[i-1]; ok && i > 0 && in.A == ins[i-1].A {
					hdrRegs[r] = hdr
				}
			}
		}
	}
	for i := range c.eff.sites {
		c.eff.siteAt[c.eff.sites[i].instr] = &c.eff.sites[i]
	}
}

// reachableFrom marks the instructions reachable from addr.
func (c *checker) reachableFrom(addr int32) []bool {
	seen := make([]bool, len(c.p.Instrs))
	work := []int32{addr}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[i] {
			continue
		}
		seen[i] = true
		work = append(work, c.succs[i]...)
	}
	return seen
}

// handlerCert assembles one entry's certificate.
func (c *checker) handlerCert(entry int32) HandlerCert {
	cert := HandlerCert{
		Entry:      entry,
		Label:      c.labelAt[entry],
		Subroutine: c.eff.subr[entry],
		SendDist:   c.eff.certs.SendDist[entry],
	}
	reach := c.reachableFrom(entry)
	targets := make(map[int32]bool)
	for _, s := range c.eff.sites {
		if !reach[s.instr] {
			continue
		}
		if s.words > cert.MaxMsgWords {
			cert.MaxMsgWords = s.words
		}
		if s.target >= 0 {
			targets[s.target] = true
		}
	}
	for t := range targets {
		cert.Targets = append(cert.Targets, t)
	}
	sort.Slice(cert.Targets, func(i, j int) bool { return cert.Targets[i] < cert.Targets[j] })
	for i, peak := range c.eff.openPeak {
		if !reach[i] {
			continue
		}
		for pri := 0; pri < 2; pri++ {
			if peak[pri] > cert.MaxOpenWords {
				cert.MaxOpenWords = peak[pri]
			}
		}
	}
	cert.MinSends = c.minSendsFrom(entry, nil)
	cert.MaxSends = c.maxSendsFrom(entry, reach)
	// Dispatch priorities: traced senders' priorities, else host (P0).
	for _, s := range c.eff.sites {
		if s.target == entry {
			cert.Pri[s.pri] = true
		}
	}
	if !cert.Pri[0] && !cert.Pri[1] {
		cert.Pri[0] = true
	}
	return cert
}

// minSendsFrom is the minimum number of complete sends any fault-free
// path from entry retires before the thread ends. When inSet is
// non-nil, only sends whose traced target is in the set count (the
// ASM011 cycle-amplification weight).
func (c *checker) minSendsFrom(entry int32, inSet map[int32]bool) int {
	ins := c.p.Instrs
	n := len(ins)
	const inf = int32(1) << 28
	weight := func(i int32) int32 {
		if !ins[i].Op.IsSend() || !ins[i].Op.SendEnds() {
			return 0
		}
		if inSet == nil {
			return 1
		}
		if s := c.eff.siteAt[i]; s != nil && s.target >= 0 && inSet[s.target] {
			return 1
		}
		return 0
	}
	val := make([]int32, n)
	for i := range val {
		val[i] = inf
	}
	// Relax to fixpoint: terminal instructions (no successors) cost
	// their own weight; everything else is weight + min over successors.
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			v := weight(int32(i))
			if len(c.succs[i]) > 0 {
				best := inf
				for _, s := range c.succs[i] {
					if val[s] < best {
						best = val[s]
					}
				}
				if best == inf {
					v = inf
				} else {
					v += best
				}
			}
			if v < val[i] {
				val[i] = v
				changed = true
			}
		}
	}
	if val[entry] >= inf {
		return 0
	}
	return int(val[entry])
}

// maxSendsFrom bounds the complete sends per activation from entry:
// the longest path over the SCC condensation, or -1 (unbounded) when a
// reachable cycle contains an ending send.
func (c *checker) maxSendsFrom(entry int32, reach []bool) int {
	ins := c.p.Instrs
	comp, nComp := c.cfgSCC()
	cyclic := make([]bool, nComp)
	size := make([]int, nComp)
	for i := range ins {
		size[comp[i]]++
	}
	for i := range ins {
		for _, s := range c.succs[i] {
			if comp[s] == comp[i] {
				cyclic[comp[i]] = true
			}
		}
	}
	weight := make([]int, nComp)
	for i, in := range ins {
		if !reach[i] {
			continue
		}
		if in.Op.IsSend() && in.Op.SendEnds() {
			if cyclic[comp[i]] || size[comp[i]] > 1 {
				return -1
			}
			weight[comp[i]]++
		}
	}
	// Longest path on the condensation DAG from entry's component,
	// restricted to reachable code: memoized DFS (acyclic by SCC).
	compSuccs := make(map[int32]map[int32]bool)
	for i := range ins {
		if !reach[i] {
			continue
		}
		for _, s := range c.succs[i] {
			if comp[s] != comp[i] {
				m := compSuccs[comp[i]]
				if m == nil {
					m = make(map[int32]bool)
					compSuccs[comp[i]] = m
				}
				m[comp[s]] = true
			}
		}
	}
	memo := make(map[int32]int)
	var longest func(cc int32) int
	longest = func(cc int32) int {
		if v, ok := memo[cc]; ok {
			return v
		}
		best := 0
		for s := range compSuccs[cc] {
			if v := longest(s); v > best {
				best = v
			}
		}
		v := weight[cc] + best
		memo[cc] = v
		return v
	}
	return longest(comp[entry])
}

// cfgSCC computes strongly connected components of the instruction CFG
// (iterative Tarjan). Returns the component index per instruction and
// the component count.
func (c *checker) cfgSCC() ([]int32, int) {
	n := len(c.p.Instrs)
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	var nComp int32
	next := int32(0)
	type frame struct {
		v  int32
		si int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: int32(root)}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.si < len(c.succs[f.v]) {
				w := c.succs[f.v][f.si]
				f.si++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp, int(nComp)
}

// checkEffects reports the send-graph diagnostics: ASM009 (unbounded
// send loop), ASM010 (cross-priority blind store), ASM011 (amplifying
// handler send cycle). certify must have run.
func (c *checker) checkEffects() {
	c.checkSendLoops()
	c.checkPriorityClobbers()
	c.checkSendCycles()
}

// checkSendLoops reports ASM009: a SEND inside a CFG cycle whose every
// exit test is loop-invariant (no conditional branch leaving the cycle
// tests a register the cycle writes) cannot stop sending.
func (c *checker) checkSendLoops() {
	ins := c.p.Instrs
	comp, nComp := c.cfgSCC()
	cyclic := make([]bool, nComp)
	size := make([]int, nComp)
	for i := range ins {
		size[comp[i]]++
		for _, s := range c.succs[i] {
			if comp[s] == comp[i] {
				cyclic[comp[i]] = true
			}
		}
	}
	firstSend := make([]int32, nComp)
	for i := range firstSend {
		firstSend[i] = -1
	}
	written := make([]uint16, nComp) // registers the SCC writes
	bounded := make([]bool, nComp)
	for i, in := range ins {
		cc := comp[i]
		if !cyclic[cc] && size[cc] <= 1 {
			continue
		}
		if in.Op.IsSend() && firstSend[cc] == -1 {
			firstSend[cc] = int32(i)
		}
		if w := writesReg(in); w >= 0 {
			written[cc] |= uint16(1) << w
		}
	}
	for i, in := range ins {
		cc := comp[i]
		if in.Op != isa.BT && in.Op != isa.BF {
			continue
		}
		exits := false
		for _, s := range c.succs[i] {
			if comp[s] != cc {
				exits = true
			}
		}
		if exits && written[cc]&(uint16(1)<<in.A) != 0 {
			bounded[cc] = true
		}
	}
	for cc := 0; cc < nComp; cc++ {
		if firstSend[cc] >= 0 && !bounded[cc] {
			c.report("ASM009", firstSend[cc],
				"SEND inside a loop with no varying exit condition: no conditional branch leaving the loop tests a register the loop writes, so once entered it sends forever")
		}
	}
}

// entryClasses returns, for every entry, its dispatch-priority class:
// the priorities of traced sends naming it, defaulting to priority 0
// for host-dispatched entries. Subroutine-classified entries get no
// class of their own — their code is attributed to callers by
// reachability.
func (c *checker) entryClasses() map[int32][2]bool {
	cls := make(map[int32][2]bool, len(c.eff.entryAddr))
	for _, cert := range c.eff.certs.Handlers {
		if cert.Subroutine {
			continue
		}
		cls[cert.Entry] = cert.Pri
	}
	return cls
}

// checkPriorityClobbers reports ASM010: a handler dispatched at
// priority 1 blindly stores (no read-modify-write) to a statically-
// known absolute address that priority-0-level code also stores.
// Because priority 1 preempts priority 0 between any two instructions,
// the interleaved activations can lose one side's update.
func (c *checker) checkPriorityClobbers() {
	if len(c.eff.stores) == 0 {
		return
	}
	type access struct {
		p0, p1           bool // any store reachable from the class
		p0Blind, p1Blind int32
	}
	byAddr := make(map[int32]*access)
	for entry, pri := range c.entryClasses() {
		reach := c.reachableFrom(entry)
		for _, st := range c.eff.stores {
			if !reach[st.instr] {
				continue
			}
			a := byAddr[st.addr]
			if a == nil {
				a = &access{p0Blind: -1, p1Blind: -1}
				byAddr[st.addr] = a
			}
			if pri[0] {
				a.p0 = true
				if st.blind && a.p0Blind == -1 {
					a.p0Blind = st.instr
				}
			}
			if pri[1] {
				a.p1 = true
				if st.blind && a.p1Blind == -1 {
					a.p1Blind = st.instr
				}
			}
		}
	}
	addrs := make([]int32, 0, len(byAddr))
	for addr := range byAddr {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		a := byAddr[addr]
		if a.p1Blind >= 0 && a.p0 {
			c.report("ASM010", a.p1Blind,
				"priority-1 handler blindly stores to address %d, which priority-0 code also stores: the handlers share this word without a read-modify-write, so a preempting activation can lose an update", addr)
		}
	}
}

// checkSendCycles reports ASM011: handlers on a send-graph cycle that
// unconditionally inject two or more messages into the cycle per
// activation amplify traffic without bound — on a mesh with full
// delivery queues the back-pressured sends deadlock against the very
// messages they would consume.
func (c *checker) checkSendCycles() {
	// Handler send graph over traced targets.
	adj := make(map[int32][]int32)
	for _, cert := range c.eff.certs.Handlers {
		adj[cert.Entry] = cert.Targets
	}
	// SCCs of the handler graph (tiny: simple Kosaraju-style via
	// repeated DFS is overkill — reuse label propagation by Tarjan on a
	// dense relabeling).
	idx := make(map[int32]int)
	var nodes []int32
	for _, cert := range c.eff.certs.Handlers {
		idx[cert.Entry] = len(nodes)
		nodes = append(nodes, cert.Entry)
	}
	n := len(nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next, nComp := 0, 0
	type frame struct {
		v, si int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succ := adj[nodes[f.v]]
			if f.si < len(succ) {
				wEntry := succ[f.si]
				f.si++
				w, ok := idx[wEntry]
				if !ok {
					continue
				}
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	// A component is a cycle when it has >1 member or a self edge.
	for cc := 0; cc < nComp; cc++ {
		members := make(map[int32]bool)
		for i, c2 := range comp {
			if c2 == cc {
				members[nodes[i]] = true
			}
		}
		cyclic := len(members) > 1
		if !cyclic {
			for e := range members {
				for _, t := range adj[e] {
					if t == e {
						cyclic = true
					}
				}
			}
		}
		if !cyclic {
			continue
		}
		names := make([]string, 0, len(members))
		for e := range members {
			names = append(names, c.entryName(e))
		}
		sort.Strings(names)
		for e := range members {
			if min := c.minSendsFrom(e, members); min >= 2 {
				c.report("ASM011", e,
					"handler is on a send cycle (%s) and unconditionally injects %d messages into it per activation: the amplification can deadlock a full-queue mesh",
					strings.Join(names, " → "), min)
			}
		}
	}
}

// entryName names an entry for diagnostics: its label, or @addr.
func (c *checker) entryName(addr int32) string {
	if name, ok := c.labelAt[addr]; ok {
		return name
	}
	return fmt.Sprintf("@%d", addr)
}

// attributeHandlers fills each finding's Handler and HandlerOff from
// the entry at or nearest before its address (the handler region the
// instruction belongs to, by address).
func (c *checker) attributeHandlers() {
	if c.eff.certs == nil {
		return
	}
	for i := range c.findings {
		f := &c.findings[i]
		if f.Addr < 0 {
			f.HandlerOff = -1
			continue
		}
		if h := c.eff.certs.Handler(f.Addr); h != nil {
			f.Handler = c.entryName(h.Entry)
			f.HandlerOff = f.Addr - h.Entry
		} else {
			f.HandlerOff = -1
		}
	}
}
