package mdp

import (
	"errors"
	"fmt"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/stats"
	"jmachine/internal/word"
)

// SaveState serializes the node's complete architectural state — the
// same field set StateDigest folds — plus its memory, translation
// table, delivery queues and statistics. Configuration
// (Cfg, Prog, coordinates) is rebuilt by the restoring process and
// only cross-checked here.
func (n *Node) SaveState(e *wire.Encoder) {
	for l := range n.ctx {
		c := &n.ctx[l]
		for _, r := range c.Regs {
			e.U64(uint64(r))
		}
		e.I32(c.IP)
		e.Bool(c.Running)
		e.I32(c.HandlerIP)
	}
	e.Int(n.cur)
	e.I32(n.stall)
	e.U8(uint8(n.stallCat))
	e.U8(uint8(n.region))
	for l := range n.building {
		for v := 0; v < 2; v++ {
			e.Int(len(n.building[l][v]))
			for _, w := range n.building[l][v] {
				e.U64(uint64(w))
			}
			e.Int(n.pendingLen[l][v])
		}
	}
	e.Int(len(n.softQ))
	for _, sm := range n.softQ {
		e.I32(sm.addr)
		e.Int(sm.words)
	}
	e.I32(n.softAlloc)
	e.Int(n.softUsed)
	e.Bool(n.p0Soft)
	e.Bool(n.halted)
	e.Bool(n.frozen)
	e.Bool(n.killed)
	if n.fatal != nil {
		e.Bool(true)
		e.String(n.fatal.Error())
	} else {
		e.Bool(false)
	}
	e.I64(n.cycle)
	e.U64(uint64(n.nnr))

	n.Mem.SaveState(e)
	n.Xl.SaveState(e)
	n.Queues[0].SaveState(e)
	n.Queues[1].SaveState(e)
	n.Stats.SaveState(e)
	// The absent-marker a node without an event ring wrote; kept so the
	// pinned checkpoint bytes still match.
	e.Bool(false)
}

// RestoreState rebuilds the node in place. A fatal error is restored
// as a fresh error with the identical message — the digest folds only
// the message text, and every consumer treats the error as opaque.
func (n *Node) RestoreState(d *wire.Decoder) error {
	for l := range n.ctx {
		c := &n.ctx[l]
		for r := range c.Regs {
			c.Regs[r] = word.Word(d.U64())
		}
		c.IP = d.I32()
		c.Running = d.Bool()
		c.HandlerIP = d.I32()
	}
	n.cur = d.Int()
	if n.cur < 0 || n.cur >= NumLevels {
		return fmt.Errorf("mdp: checkpoint level %d out of range", n.cur)
	}
	n.stall = d.I32()
	n.stallCat = stats.Cat(d.U8())
	n.region = stats.Cat(d.U8())
	for l := range n.building {
		for v := 0; v < 2; v++ {
			cnt := d.Count(8)
			buf := n.building[l][v][:0]
			for i := 0; i < cnt; i++ {
				buf = append(buf, word.Word(d.U64()))
			}
			n.building[l][v] = buf
			n.pendingLen[l][v] = d.Int()
		}
	}
	sq := d.Count(12)
	n.softQ = n.softQ[:0]
	for i := 0; i < sq; i++ {
		n.softQ = append(n.softQ, softMsg{addr: d.I32(), words: d.Int()})
	}
	n.softAlloc = d.I32()
	n.softUsed = d.Int()
	n.p0Soft = d.Bool()
	n.halted = d.Bool()
	n.frozen = d.Bool()
	n.killed = d.Bool()
	n.fatal = nil
	if d.Bool() {
		n.fatal = errors.New(d.String())
	}
	n.cycle = d.I64()
	// A checkpoint is always captured at a cycle where any fused
	// window's charge plan has collapsed to the scalar (stall,
	// stallCat) pair serialized above, so the plan itself is never on
	// the wire; clear any live remnant in the node being overwritten.
	n.fuseSegs = n.fuseSegs[:0]
	n.fuseHead = 0
	if nnr := word.Word(d.U64()); nnr != n.nnr {
		return fmt.Errorf("mdp: checkpoint node address %x != configured %x (topology mismatch)", nnr, n.nnr)
	}
	if err := d.Err(); err != nil {
		return err
	}

	if err := n.Mem.RestoreState(d); err != nil {
		return fmt.Errorf("node %d: %w", n.ID, err)
	}
	if err := n.Xl.RestoreState(d); err != nil {
		return fmt.Errorf("node %d: %w", n.ID, err)
	}
	for pri := 0; pri < 2; pri++ {
		if err := n.Queues[pri].RestoreState(d); err != nil {
			return fmt.Errorf("node %d pri %d: %w", n.ID, pri, err)
		}
	}
	if err := n.Stats.RestoreState(d); err != nil {
		return fmt.Errorf("node %d: %w", n.ID, err)
	}
	// The trace marker, kept so the pinned checkpoint bytes still
	// match. Nodes keep no event ring, so a checkpoint with one is refused.
	if d.Bool() {
		return fmt.Errorf("node %d: checkpoint carries a trace ring; nodes keep none", n.ID)
	}
	return d.Err()
}
