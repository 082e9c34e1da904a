package network

import (
	"fmt"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

// Checkpoint serialization. In-flight messages are shared by pointer
// between router buffers (one phitRef per buffered phit) and outboxes
// (a message being streamed sits in msgs[0] while its head phits are
// already in the mesh), so the codec first builds a message table —
// every distinct in-flight *Message in a deterministic walk order —
// and then encodes buffers and outboxes as indices into it. Restore
// rebuilds the table with fresh un-pooled messages and re-links the
// same sharing structure.

// saveMessage serializes every wire-visible and NI field (the same set
// Message.digest folds; pooled is allocator bookkeeping and is not
// restored — restored messages are hand-built and never re-pooled).
func saveMessage(e *wire.Encoder, m *Message) {
	e.U8(uint8(m.DestX))
	e.U8(uint8(m.DestY))
	e.U8(uint8(m.DestZ))
	e.U8(uint8(m.Pri))
	e.I32(m.Src)
	e.Int(len(m.Words))
	for _, w := range m.Words {
		e.U64(uint64(w))
	}
	e.I64(m.EnqueueCycle)
	e.I64(m.DeliverCycle)
	e.Bool(m.Returning)
	e.Bool(m.absorb)
	e.I32(m.Returns)
	e.U8(uint8(m.origX))
	e.U8(uint8(m.origY))
	e.U8(uint8(m.origZ))
	e.I32(m.Seq)
	e.Bool(m.Ctl)
	e.Bool(m.HasCheck)
	e.U32(m.Check)
	e.I32(m.CorruptWord)
	e.U32(m.CorruptMask)
	e.Bool(m.drop)
	e.U8(uint8(m.dropReason))
}

func restoreMessage(d *wire.Decoder) *Message {
	m := &Message{}
	m.DestX = int8(d.U8())
	m.DestY = int8(d.U8())
	m.DestZ = int8(d.U8())
	m.Pri = int8(d.U8())
	m.Src = d.I32()
	nw := d.Count(8)
	m.Words = make([]word.Word, nw)
	for i := range m.Words {
		m.Words[i] = word.Word(d.U64())
	}
	m.EnqueueCycle = d.I64()
	m.DeliverCycle = d.I64()
	m.Returning = d.Bool()
	m.absorb = d.Bool()
	m.Returns = d.I32()
	m.origX = int8(d.U8())
	m.origY = int8(d.U8())
	m.origZ = int8(d.U8())
	m.Seq = d.I32()
	m.Ctl = d.Bool()
	m.HasCheck = d.Bool()
	m.Check = d.U32()
	m.CorruptWord = d.I32()
	m.CorruptMask = d.U32()
	m.drop = d.Bool()
	m.dropReason = DropReason(d.U8())
	return m
}

// collectMessages walks every buffer slot (logical order) and outbox in
// index order, assigning each distinct in-flight message a table index.
func (n *Network) collectMessages() (table []*Message, index map[*Message]int) {
	index = make(map[*Message]int)
	add := func(m *Message) {
		if _, ok := index[m]; !ok {
			index[m] = len(table)
			table = append(table, m)
		}
	}
	for ri := range n.routers {
		r := &n.routers[ri]
		for v := 0; v < 2; v++ {
			for q := 0; q < NumPorts; q++ {
				b := &r.in[v][q]
				for i := 0; i < int(b.n); i++ {
					add(b.slots[(int(b.head)+i)%bufCap].m)
				}
			}
		}
	}
	for ri := range n.out {
		for v := 0; v < 2; v++ {
			for _, m := range n.out[ri][v].msgs {
				add(m)
			}
		}
	}
	return table, index
}

// SaveState serializes the network's complete dynamic state: cycle,
// the in-flight message table, every router's buffers, worm ownership
// and link stamps, every outbox, the round-robin offsets, the
// incremental in-flight counters, and the accumulated stats.
// Within-cycle scratch (pushStamp/pushedNew) is dead between
// cycles and deliberately excluded, matching StateDigest; so are the
// active set and the occupied-port masks, which RestoreState rebuilds.
func (n *Network) SaveState(e *wire.Encoder) {
	e.Int(len(n.routers))
	e.I64(n.cycle)
	table, index := n.collectMessages()
	e.Int(len(table))
	for _, m := range table {
		saveMessage(e, m)
	}
	for ri := range n.routers {
		r := &n.routers[ri]
		e.I32(r.occ)
		for v := 0; v < 2; v++ {
			for q := 0; q < NumPorts; q++ {
				e.U8(uint8(r.outOwner[v][q]))
				e.U8(uint8(r.inRoute[v][q]))
				b := &r.in[v][q]
				e.U8(uint8(b.n))
				e.I64(b.popStamp)
				for i := 0; i < int(b.n); i++ {
					p := &b.slots[(int(b.head)+i)%bufCap]
					e.U32(uint32(index[p.m]))
					e.I32(p.idx)
					e.I64(p.arrived)
				}
			}
		}
		for q := 0; q < NumPorts; q++ {
			e.I64(r.linkStamp[q])
		}
		e.U8(n.rr[ri])
		for v := 0; v < 2; v++ {
			ob := &n.out[ri][v]
			e.Int(len(ob.msgs))
			for _, m := range ob.msgs {
				e.U32(uint32(index[m]))
			}
			e.I32(ob.phitIdx)
			e.Int(ob.words)
		}
	}
	e.I64(n.actPhits)
	e.I64(n.actMsgs.Load())
	n.saveStats(e)
}

func (n *Network) saveStats(e *wire.Encoder) {
	s := &n.stats
	e.U64(s.PhitHops)
	e.U64(s.BisectionPhits)
	for v := 0; v < 2; v++ {
		e.U64(s.DeliveredMsgs[v])
		e.U64(s.DeliveredWords[v])
		e.U64(s.LatencySum[v])
	}
	e.U64(s.DeliveryStalls)
	e.U64(s.ReturnedMsgs)
	e.U64(s.Retransmits)
	e.U64(s.DroppedMsgs)
	e.U64(s.CorruptDrops)
	e.U64(s.DupDrops)
	e.U64(s.StallsInjected)
}

func (n *Network) restoreStats(d *wire.Decoder) {
	s := &n.stats
	s.PhitHops = d.U64()
	s.BisectionPhits = d.U64()
	for v := 0; v < 2; v++ {
		s.DeliveredMsgs[v] = d.U64()
		s.DeliveredWords[v] = d.U64()
		s.LatencySum[v] = d.U64()
	}
	s.DeliveryStalls = d.U64()
	s.ReturnedMsgs = d.U64()
	s.Retransmits = d.U64()
	s.DroppedMsgs = d.U64()
	s.CorruptDrops = d.U64()
	s.DupDrops = d.U64()
	s.StallsInjected = d.U64()
}

// RestoreState rebuilds the network in place: router and outbox arrays
// are mutated, never reallocated. Buffers land rebased to ring offset zero,
// which is unobservable (all access is logical from head).
func (n *Network) RestoreState(d *wire.Decoder) error {
	if r := d.Int(); r != len(n.routers) {
		return fmt.Errorf("network: checkpoint has %d routers, machine has %d", r, len(n.routers))
	}
	n.cycle = d.I64()
	nm := d.Count(1)
	table := make([]*Message, nm)
	for i := range table {
		table[i] = restoreMessage(d)
		if err := d.Err(); err != nil {
			return err
		}
	}
	msgAt := func(i uint32) (*Message, error) {
		if int(i) >= len(table) {
			return nil, fmt.Errorf("network: message index %d out of range (%d in table)", i, len(table))
		}
		return table[i], nil
	}
	for ri := range n.routers {
		r := &n.routers[ri]
		r.occ = d.I32()
		r.busy = [2]uint8{}
		for v := 0; v < 2; v++ {
			for q := 0; q < NumPorts; q++ {
				r.outOwner[v][q] = int8(d.U8())
				r.inRoute[v][q] = int8(d.U8())
				b := &r.in[v][q]
				cnt := int(int8(d.U8()))
				if cnt < 0 || cnt > bufCap {
					return fmt.Errorf("network: buffer occupancy %d out of range", cnt)
				}
				b.head = 0
				b.n = int8(cnt)
				if cnt > 0 {
					r.busy[v] |= 1 << q
				}
				b.popStamp = d.I64()
				for i := 0; i < cnt; i++ {
					m, err := msgAt(d.U32())
					if err != nil {
						return err
					}
					b.slots[i] = phitRef{m: m, idx: d.I32(), arrived: d.I64()}
				}
				for i := cnt; i < bufCap; i++ {
					b.slots[i] = phitRef{}
				}
			}
		}
		for q := 0; q < NumPorts; q++ {
			r.linkStamp[q] = d.I64()
		}
		r.pushStamp, r.pushedNew = 0, 0
		n.rr[ri] = d.U8()
		for v := 0; v < 2; v++ {
			ob := &n.out[ri][v]
			cnt := d.Count(4)
			msgs := ob.msgs[:0]
			for i := 0; i < cnt; i++ {
				m, err := msgAt(d.U32())
				if err != nil {
					return err
				}
				msgs = append(msgs, m)
			}
			ob.msgs = msgs
			ob.phitIdx = d.I32()
			ob.words = d.Int()
		}
		n.act.Put(ri, !n.idle(ri))
	}
	n.actPhits = d.I64()
	n.actMsgs.Store(d.I64())
	n.restoreStats(d)
	return d.Err()
}
