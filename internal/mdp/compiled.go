// Compiled execution tier: the contract between the interpreter and
// the ahead-of-time translated handler code in internal/compiled.
//
// The translator (internal/compiled, fed by asm.Translate's CFG
// recovery) emits one specialized Go closure per instruction. At an
// instruction boundary the node first offers the boundary to the
// compiled tier (runCompiled); the closure either executes the
// instruction natively — byte-identically to the interpreter — or
// bails (ok=false) having mutated nothing, in which case the
// interpreter executes that boundary instead. Bail reasons are the
// scheduler-visible operations: the SEND family (network injection and
// back-pressure), SUSPEND/HALT/TRAP, any condition that would fault,
// and RGN writes. Dispatch, fault service, freeze/kill, and checkpoint
// capture never enter runCompiled at all — they happen outside
// execOne — so the interpreter remains the only code that performs
// them (docs/COMPILED.md describes the tier contract).
//
// # Instruction fusion and the segmented charge plan
//
// Beyond removing the interpreter's per-instruction dispatch, the
// compiled tier executes whole straightline runs eagerly: when the
// machine can prove that no scheduler decision, hook, observation, or
// network delivery can land between two instruction boundaries, the
// second instruction executes in the same host call as the first
// ("fusion"). Its cycle charges are NOT applied eagerly: each fused
// instruction contributes one segment (cycles, category) to a charge
// plan that Step and SkipTo consume one simulated cycle at a time, so
// the cumulative per-category statistics equal the reference
// interpreter's at EVERY cycle, and (stall, stallCat) collapse to the
// reference scalar representation as soon as only the final
// instruction's tail remains. Any still-segmented tail is folded into
// StateDigest, so a contract violation surfaces as a digest mismatch
// rather than silent divergence.
//
// Fusion is admitted under two rules, both decided from state that is
// identical in sequential and sharded runs:
//
//   - P1 rule: the node is running a priority-1 thread and the
//     software overflow queue is disabled. The P1-running scheduler
//     case wins every inner boundary regardless of queue arrivals, and
//     only bailing operations can end the thread, so the window may
//     extend to the machine's published fuse limit. Instructions that
//     read delivery-queue occupancy (QLEN) do not fuse under this rule
//     (their value could change mid-window); they execute solo at
//     their real boundary.
//   - Quiet rule: the coordinator certified the network quiet at this
//     cycle's network/processor phase boundary (FuseCtl.QuietCycle).
//     A message enqueued at or after that point cannot complete a word
//     into any delivery queue before fuseQuietWindow cycles elapse, so
//     inner boundaries are admitted through cycle+6. A send-free image
//     (CompiledProgram.SendFree: the static verifier proves no
//     instruction reaches the network, asm.Certs) can enqueue nothing,
//     so its windows extend to the full limit.
//
// The machine bounds every window with FuseCtl.Limit: the next cycle at
// which anything can observe machine state — a cycle hook's event
// horizon (exclusive), the run loop's next check, a public Step — as
// folded by Machine.publishFuseLimit. A loop that evaluates an opaque
// condition every cycle (RunWhile, RunUntilHalt) therefore grants no
// window at all. Observations — digests, run-loop conditions, watchdog
// scans, checkpoint captures — happen only at cycles where the fused
// state has collapsed to the reference representation.
package mdp

import (
	"jmachine/internal/stats"
	"jmachine/internal/word"
)

// InstrFn is one compiled MDP instruction. It executes the instruction
// against ctx (which belongs to n's current level) and reports the
// interpreter-identical cycle cost, statistics category, and next IP.
// off is the instruction's boundary offset from the node's current
// cycle: 0 for the boundary instruction, positive for fused
// instructions whose architectural boundary is cycle+off (CYC reads
// use it). quiet reports whether the network was certified quiet for
// this cycle (the quiet fusion rule); closures reading
// delivery-arrival-dependent state (QLEN) must bail when off > 0 and
// the certification is absent. A closure that returns ok=false must
// have mutated NOTHING: the interpreter (for off == 0) or the node's
// real boundary (for off > 0) will execute the instruction instead.
type InstrFn func(n *Node, ctx *Context, off int32, quiet bool) (cost int32, cat stats.Cat, next int32, ok bool)

// CompiledProgram is a translated program image: one closure per code
// address, nil where the translator declined (instructions that always
// bail compile to nil rather than a closure that always says no).
type CompiledProgram struct {
	Fns []InstrFn
	// SendFree reports that no instruction of the image can reach the
	// network: every asm.Certs.SendDist entry is asm.InfDist. It lifts
	// the quiet rule's fixed window to the full fuse limit.
	SendFree bool
}

// FuseCtl is the machine-owned fusion control block, shared by every
// node through a pointer. The machine's coordinator writes it at
// points ordered before the processor phase (the worker-release send
// or the network-phase barrier), so shard workers read stable values.
type FuseCtl struct {
	// Limit is the highest cycle at which a fused (non-boundary)
	// instruction may start: the run loop's next check, capped by every
	// hook horizon - 1 (Machine.publishFuseLimit).
	// A limit at or below the current cycle disables fusion, leaving
	// single-instruction compiled execution, which is exact per
	// boundary.
	Limit int64
	// QuietCycle names the cycle for which the coordinator certified
	// Net.Quiet() at the network/processor phase boundary; any other
	// value (stale cycles included) means "not certified".
	QuietCycle int64
}

// fuseQuietWindow is the quiet rule's lookahead: after a
// quiet-certified phase boundary at cycle c, no network activity can
// complete a word into (or otherwise alter) a delivery queue before
// cycle c+7, so fused boundaries are admitted at c+1..c+6. Derivation
// from internal/network, taking the self-send with zero launch latency
// and no checksum as the minimum: quiet counts outbox-queued messages
// (actMsgs), so the earliest new message is enqueued by a SEND in the
// processor phase of cycle e >= c; feedInjection streams one phit per
// cycle starting with the network phase of e+1, so wire phit k enters
// its buffer at e+1+k; stepRouter skips phits that arrived this cycle
// (head.arrived >= cyc), so phit k retires at e+2+k at the earliest;
// and the first phit that completes a word into a delivery queue is
// wire phit 5 (two destination phits, two framing phits, then the odd
// phit of the first payload word — phitRef.payloadWord), which
// therefore retires no earlier than cycle e+7 >= c+7. Launch latency,
// checksum phits, and mesh hops only push delivery later.
const fuseQuietWindow = 7

// fuseSeg is one charge-plan segment: left simulated cycles charged to
// cat. The active plan is fuseSegs[fuseHead:]; invariants while
// active: at least two segments remain, stall equals the sum of the
// remaining lefts, and stallCat mirrors the head segment's category.
type fuseSeg struct {
	left int32
	cat  stats.Cat
}

// SetCompiled installs (or, with nil, removes) the compiled program
// tier on this node. fuse is the machine's shared fusion control
// block; a nil fuse keeps the tier exact-per-boundary with no fusion
// (unit tests drive nodes without a machine this way).
func (n *Node) SetCompiled(cp *CompiledProgram, fuse *FuseCtl) {
	n.compiled = cp
	n.fuse = fuse
	n.fuseSegs = n.fuseSegs[:0]
	n.fuseHead = 0
}

// CompiledActive reports whether the compiled tier is installed.
func (n *Node) CompiledActive() bool { return n.compiled != nil }

// FusedInstructions returns the number of instructions this node
// executed as fused (non-boundary) members of compiled windows — a
// diagnostic for benchmarks and the equivalence suite's vacuity guard.
// It is excluded from StateDigest and checkpoints: fusion depth
// depends on host-side scheduling (run caps, hook horizons) that
// results must not.
func (n *Node) FusedInstructions() int64 { return n.fusedInstrs }

// Fusion-window end reasons, indexing FusionStats.End: why the fusion
// loop stopped extending a window.
const (
	FuseEndLimit       = iota // the window reached FuseCtl.Limit (or its quiet cap)
	FuseEndRange              // next IP left the code segment
	FuseEndNotCompiled        // next instruction has no closure (bail-set member)
	FuseEndBailed             // next instruction's closure bailed (fault path, stale queue read)
	NumFuseEndReasons
)

// FuseEndReasonNames names the FusionStats.End indices, for reports.
var FuseEndReasonNames = [NumFuseEndReasons]string{
	"limit", "ip-range", "not-compiled", "bailed",
}

// FusionStats aggregates the compiled tier's boundary and window
// accounting for one node. Like FusedInstructions, every field is
// excluded from StateDigest and checkpoints: the counts depend on
// host-side scheduling (run caps, hook horizons, shard phasing) that
// simulated results must not.
type FusionStats struct {
	// Boundaries counts instruction boundaries offered to the compiled
	// tier (runCompiled calls).
	Boundaries int64
	// InterpNoClosure and InterpBailed count boundaries handed back to
	// the interpreter: no closure for the IP (bail-set member,
	// unreachable code, IP out of range) vs. a closure that bailed
	// (fault path, send back-pressure state, stale queue read).
	InterpNoClosure int64
	InterpBailed    int64
	// NoLicense counts compiled boundaries executed exactly (no fusion
	// license: limit reached, or neither the P1 nor the quiet rule
	// held).
	NoLicense int64
	// Windows counts fusion windows entered (licensed boundaries);
	// Fused counts instructions executed as non-boundary members, so
	// the mean window length is (Windows+Fused)/Windows.
	Windows int64
	Fused   int64
	// End histograms why each window stopped extending, by FuseEnd*.
	End [NumFuseEndReasons]int64
}

// Add accumulates other into s.
func (s *FusionStats) Add(o FusionStats) {
	s.Boundaries += o.Boundaries
	s.InterpNoClosure += o.InterpNoClosure
	s.InterpBailed += o.InterpBailed
	s.NoLicense += o.NoLicense
	s.Windows += o.Windows
	s.Fused += o.Fused
	for i := range s.End {
		s.End[i] += o.End[i]
	}
}

// FusionStats returns this node's compiled-tier accounting.
func (n *Node) FusionStats() FusionStats {
	s := n.fuseStats
	s.Fused = n.fusedInstrs
	return s
}

// NNR returns the Node Number Register (this node's router address).
// Exported for the compiled tier's register-read closures.
func (n *Node) NNR() word.Word { return n.nnr }

// RegionCat returns the current statistics-region category (CatComp,
// or CatNNR while an RGN write has redirected attribution). Exported
// for the compiled tier.
func (n *Node) RegionCat() stats.Cat { return n.region }

// runCompiled offers the current instruction boundary to the compiled
// tier. It returns false — having changed nothing — when the boundary
// must be interpreted (no closure, or the closure bailed); on success
// it has executed one instruction plus any fusable successors and
// charged the first cycle, with the remainder scheduled as a stall
// (plus a charge plan when more than one instruction fused).
func (n *Node) runCompiled() bool {
	cp := n.compiled
	ctx := &n.ctx[n.cur]
	n.fuseStats.Boundaries++
	if ctx.IP < 0 || int(ctx.IP) >= len(cp.Fns) {
		n.fuseStats.InterpNoClosure++
		return false // interpreter raises the fatal IP diagnostic
	}
	fn := cp.Fns[ctx.IP]
	if fn == nil {
		n.fuseStats.InterpNoClosure++
		return false
	}
	quiet := n.fuse != nil && n.fuse.QuietCycle == n.cycle
	cost, cat, next, ok := fn(n, ctx, 0, quiet)
	if !ok {
		n.fuseStats.InterpBailed++
		return false
	}
	ctx.IP = next
	n.Stats.CountInstr()
	if n.Cfg.CodeInEmem {
		cost += n.Cfg.Timing.EmemFetch
	}

	limit := n.cycle // no machine: exact per-boundary, no fusion
	if n.fuse != nil {
		limit = n.fuse.Limit
	}
	if limit > n.cycle+(1<<30) {
		// Send-free windows reach the run loop's whole horizon; keep the
		// window's cost accumulators (off, stall) within int32.
		limit = n.cycle + (1 << 30)
	}
	p1 := n.cur == LvlP1 && ctx.Running && !n.Cfg.SoftQueue.Enable
	if limit <= n.cycle || !(p1 || quiet) {
		n.fuseStats.NoLicense++
		n.chargeFirst(cost, cat)
		return true
	}
	if !p1 && !cp.SendFree {
		// Quiet rule: no message can complete a word into a delivery
		// queue before fuseQuietWindow cycles have passed. A send-free
		// image injects nothing, and externals are already fenced by Limit.
		if qc := n.cycle + fuseQuietWindow - 1; qc < limit {
			limit = qc
		}
	}
	n.fuseStats.Windows++
	endReason := FuseEndLimit

	// Fusion loop: execute successors whose boundaries fall at or
	// before limit, accumulating charge segments. Adjacent segments of
	// the same category coalesce — charging c1 then c2 cycles to one
	// category is cumulative-identical to charging c1+c2 — so a
	// single-category window (the common case) collapses to one segment
	// and from there to the scalar (stall, stallCat) representation,
	// keeping fuseTick/fuseSkip off the hot path entirely.
	fns := cp.Fns
	fetch := int32(0)
	if n.Cfg.CodeInEmem {
		fetch = n.Cfg.Timing.EmemFetch
	}
	segs := append(n.fuseSegs[:0], fuseSeg{left: cost - 1, cat: cat})
	off := cost
	fused := int64(0)
	for n.cycle+int64(off) <= limit {
		ip := ctx.IP
		if ip < 0 || int(ip) >= len(fns) {
			endReason = FuseEndRange
			break
		}
		f2 := fns[ip]
		if f2 == nil {
			endReason = FuseEndNotCompiled
			break
		}
		c2, cat2, nx2, ok2 := f2(n, ctx, off, quiet)
		if !ok2 {
			endReason = FuseEndBailed
			break
		}
		ctx.IP = nx2
		fused++
		c2 += fetch
		if last := &segs[len(segs)-1]; last.cat == cat2 {
			last.left += c2
		} else {
			segs = append(segs, fuseSeg{left: c2, cat: cat2})
		}
		off += c2
	}
	n.fuseStats.End[endReason]++
	n.fuseSegs = segs
	if fused > 0 {
		// Batched: the thread class is loop-invariant (dispatch and
		// suspend both end the window).
		n.Stats.CountInstrN(uint64(fused))
		n.fusedInstrs += fused
	}

	// Charge the boundary cycle and install the plan remainder.
	n.Stats.Add(cat)
	n.stall = off - 1
	n.fuseHead = 0
	if segs[0].left == 0 {
		n.fuseHead = 1 // a one-cycle boundary instruction is fully paid
	}
	if len(segs)-n.fuseHead <= 1 {
		// Zero or one segment left: the scalar (stall, stallCat)
		// representation already covers it — reference-identical state.
		n.stallCat = cat
		if len(segs) > n.fuseHead {
			n.stallCat = segs[n.fuseHead].cat
		}
		n.fuseSegs = segs[:0]
		n.fuseHead = 0
	} else {
		n.stallCat = segs[n.fuseHead].cat
	}
	return true
}

// fuseTick consumes one stall cycle's worth of the charge plan. The
// caller (Step's stall branch) has already charged the cycle to
// stallCat and decremented stall.
func (n *Node) fuseTick() {
	s := &n.fuseSegs[n.fuseHead]
	s.left--
	if s.left > 0 {
		return
	}
	n.fuseHead++
	n.stallCat = n.fuseSegs[n.fuseHead].cat
	if n.fuseHead == len(n.fuseSegs)-1 {
		// Only the final segment remains: collapse to the scalar
		// representation (stall and stallCat now carry it exactly).
		n.fuseSegs = n.fuseSegs[:0]
		n.fuseHead = 0
	}
}

// fuseSkip consumes s stall cycles of the charge plan in bulk,
// charging each segment's cycles to its own category — the SkipTo
// counterpart of fuseTick. s never exceeds the plan's remaining total
// (the caller caps it at the stall counter, which equals it).
func (n *Node) fuseSkip(s int64) {
	for s > 0 && n.fuseHead < len(n.fuseSegs) {
		seg := &n.fuseSegs[n.fuseHead]
		t := int64(seg.left)
		if t > s {
			t = s
		}
		n.Stats.AddN(seg.cat, t)
		seg.left -= int32(t)
		s -= t
		if seg.left == 0 {
			n.fuseHead++
		}
	}
	if n.fuseHead < len(n.fuseSegs) {
		n.stallCat = n.fuseSegs[n.fuseHead].cat
		if n.fuseHead == len(n.fuseSegs)-1 {
			n.fuseSegs = n.fuseSegs[:0]
			n.fuseHead = 0
		}
	} else {
		// Plan fully consumed (s reached the final segment's end): the
		// final category is already in stallCat only if the last
		// segment was entered; set it explicitly to be exact.
		if len(n.fuseSegs) > 0 {
			n.stallCat = n.fuseSegs[len(n.fuseSegs)-1].cat
		}
		n.fuseSegs = n.fuseSegs[:0]
		n.fuseHead = 0
	}
}

// fuseDigest folds any still-segmented charge-plan tail into the node
// digest. At every legal observation cycle the plan has collapsed and
// this contributes nothing, keeping digests comparable with the
// interpreter; a fusion-contract violation therefore shows up as a
// digest mismatch instead of silently passing.
func (n *Node) fuseDigest(h uint64) uint64 {
	for i := n.fuseHead; i < len(n.fuseSegs); i++ {
		h = mix(h, uint64(uint32(n.fuseSegs[i].left))|uint64(n.fuseSegs[i].cat)<<32)
	}
	return h
}
