package rt

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/mdp"
	"jmachine/internal/word"
)

// Checkpoint sections for the system software. The runtime and the
// reliable-delivery layer satisfy internal/ckpt's Saver interface
// structurally — this package imports only the wire codec, never the
// orchestrator. Every table is encoded in ascending key order so
// identical state always produces identical bytes: the runtime's
// per-node tables are kept in that order, and the reliable layer's
// maps are sorted before encoding. Decoders require that order.

const (
	rtFormat  = 1
	relFormat = 1
)

// CkptName names the runtime's checkpoint section.
func (r *Runtime) CkptName() string { return "rt" }

// CkptSave serializes the per-node runtime state: suspended threads
// awaiting presence-tag values, the waiter-id counter, and the
// memory-resident name tables.
func (r *Runtime) CkptSave(e *wire.Encoder) {
	e.U32(rtFormat)
	e.Int(len(r.nodes))
	for i := range r.nodes {
		ns := &r.nodes[i]
		e.I32(ns.nextWaiter)
		e.Int(len(ns.saved))
		for _, w := range ns.saved {
			e.I32(w.id)
			e.Int(w.level)
			for _, reg := range w.ctx.Regs {
				e.U64(uint64(reg))
			}
			e.I32(w.ctx.IP)
			e.Bool(w.ctx.Running)
			e.I32(w.ctx.HandlerIP)
		}
		e.Int(len(ns.names))
		for _, b := range ns.names {
			e.U64(uint64(b.key))
			e.U64(uint64(b.val))
		}
	}
}

// CkptRestore rebuilds the per-node runtime state.
func (r *Runtime) CkptRestore(d *wire.Decoder) error {
	if f := d.U32(); f != rtFormat {
		return fmt.Errorf("rt: checkpoint section format %d, want %d", f, rtFormat)
	}
	if n := d.Int(); n != len(r.nodes) {
		return fmt.Errorf("rt: checkpoint has %d nodes, runtime has %d", n, len(r.nodes))
	}
	for i := range r.nodes {
		ns := &r.nodes[i]
		ns.nextWaiter = d.I32()
		ns.saved = make([]waiter, d.Count(1+8*8))
		for j := range ns.saved {
			w := &ns.saved[j]
			w.id = d.I32()
			w.level = d.Int()
			for reg := range w.ctx.Regs {
				w.ctx.Regs[reg] = word.Word(d.U64())
			}
			w.ctx.IP = d.I32()
			w.ctx.Running = d.Bool()
			w.ctx.HandlerIP = d.I32()
			if w.level < 0 || w.level >= mdp.NumLevels {
				return fmt.Errorf("rt: saved thread %d has level %d out of range", w.id, w.level)
			}
			if j > 0 && w.id <= ns.saved[j-1].id {
				return fmt.Errorf("rt: saved thread id %d follows %d in checkpoint; want strictly ascending", w.id, ns.saved[j-1].id)
			}
		}
		ns.names = make([]binding, d.Count(16))
		for j := range ns.names {
			b := &ns.names[j]
			b.key = word.Word(d.U64())
			b.val = word.Word(d.U64())
			if j > 0 && uint64(b.key) <= uint64(ns.names[j-1].key) {
				return fmt.Errorf("rt: name %x follows %x in checkpoint; want strictly ascending", uint64(b.key), uint64(ns.names[j-1].key))
			}
		}
	}
	return d.Err()
}

// CkptName names the reliable-delivery checkpoint section.
func (rel *Reliable) CkptName() string { return "rt.reliable" }

// CkptSave serializes the protocol state: per-node sequence counters
// and pending retransmission records, the delivery-side duplicate
// filter, the counters, and any surfaced failure. The configuration is
// included and verified on restore — timeouts and retry budgets shape
// every recorded deadline.
func (rel *Reliable) CkptSave(e *wire.Encoder) {
	e.U32(relFormat)
	e.I64(rel.cfg.TimeoutCycles)
	e.Int(rel.cfg.MaxRetries)
	e.I64(rel.cfg.ScanInterval)
	e.Int(len(rel.nodes))
	for i := range rel.nodes {
		rn := &rel.nodes[i]
		e.I32(rn.count)
		seqs := make([]int32, 0, len(rn.pending))
		for seq := range rn.pending { //jm:maporder keys are collected then sorted before encoding; order cannot leak
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
		e.Int(len(seqs))
		for _, seq := range seqs {
			p := rn.pending[seq]
			e.I32(seq)
			e.Int(p.src)
			e.U8(uint8(p.destX))
			e.U8(uint8(p.destY))
			e.U8(uint8(p.destZ))
			e.U8(uint8(p.pri))
			e.Int(len(p.words))
			for _, w := range p.words {
				e.U64(uint64(w))
			}
			e.I64(p.deadline)
			e.Int(p.attempts)
		}
	}
	seqs := make([]int32, 0, len(rel.seen))
	for seq := range rel.seen { //jm:maporder keys are collected then sorted before encoding; order cannot leak
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	e.Int(len(seqs))
	for _, seq := range seqs {
		e.I32(seq)
		e.I64(rel.seen[seq])
	}
	s := rel.Stats()
	for _, v := range [...]uint64{s.Tracked, s.AcksSent, s.AcksReceived, s.Retries, s.DupAcked, s.Failures} {
		e.U64(v)
	}
	if rel.err != nil {
		e.Bool(true)
		e.String(rel.err.Error())
	} else {
		e.Bool(false)
	}
}

// CkptRestore rebuilds the protocol state. A surfaced failure is
// restored as a fresh error with the identical message — Err's only
// consumers treat it as opaque.
func (rel *Reliable) CkptRestore(d *wire.Decoder) error {
	if f := d.U32(); f != relFormat {
		return fmt.Errorf("rt: reliable checkpoint section format %d, want %d", f, relFormat)
	}
	to, mr, si := d.I64(), d.Int(), d.I64()
	if to != rel.cfg.TimeoutCycles || mr != rel.cfg.MaxRetries || si != rel.cfg.ScanInterval {
		return fmt.Errorf("rt: reliable checkpoint config (timeout %d, retries %d, scan %d) != configured (%d, %d, %d)",
			to, mr, si, rel.cfg.TimeoutCycles, rel.cfg.MaxRetries, rel.cfg.ScanInterval)
	}
	if n := d.Int(); n != len(rel.nodes) {
		return fmt.Errorf("rt: reliable checkpoint has %d nodes, machine has %d", n, len(rel.nodes))
	}
	for i := range rel.nodes {
		rn := &rel.nodes[i]
		rn.count = d.I32()
		nPending := d.Count(4 + 8)
		rn.pending = nil
		if nPending > 0 {
			rn.pending = make(map[int32]*pendingMsg, nPending)
		}
		for j := 0; j < nPending; j++ {
			seq := d.I32()
			p := &pendingMsg{src: d.Int()}
			p.destX = int8(d.U8())
			p.destY = int8(d.U8())
			p.destZ = int8(d.U8())
			p.pri = int8(d.U8())
			nw := d.Count(8)
			p.words = make([]word.Word, nw)
			for w := range p.words {
				p.words[w] = word.Word(d.U64())
			}
			p.deadline = d.I64()
			p.attempts = d.Int()
			if err := d.Err(); err != nil {
				return err
			}
			if rel.seqNode(seq) != i {
				return fmt.Errorf("rt: pending seq %d recorded under node %d, stripes to node %d", seq, i, rel.seqNode(seq))
			}
			if _, dup := rn.pending[seq]; dup {
				return fmt.Errorf("rt: duplicate pending seq %d in checkpoint", seq)
			}
			rn.pending[seq] = p
		}
	}
	nSeen := d.Count(4 + 8)
	rel.seen = make(map[int32]int64, nSeen)
	for i := 0; i < nSeen; i++ {
		seq := d.I32()
		at := d.I64()
		if _, dup := rel.seen[seq]; dup {
			return fmt.Errorf("rt: duplicate delivered seq %d in checkpoint", seq)
		}
		rel.seen[seq] = at
	}
	atomic.StoreUint64(&rel.stats.Tracked, d.U64())
	atomic.StoreUint64(&rel.stats.AcksSent, d.U64())
	atomic.StoreUint64(&rel.stats.AcksReceived, d.U64())
	atomic.StoreUint64(&rel.stats.Retries, d.U64())
	atomic.StoreUint64(&rel.stats.DupAcked, d.U64())
	atomic.StoreUint64(&rel.stats.Failures, d.U64())
	rel.err = nil
	if d.Bool() {
		rel.err = errors.New(d.String())
	}
	return d.Err()
}
