package network

// State digesting for the equivalence suites: a 64-bit FNV-style fold
// over the network's complete dynamic state, so runs under different
// configurations can be compared byte-for-byte without serializing
// anything. Within-cycle scratch fields (pushStamp/pushedNew) are
// excluded: they are dead between cycles and never read across a
// cycle boundary.

// digestMix folds one value into a running 64-bit digest.
func digestMix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	h ^= h >> 29
	return h
}

// digest folds the message's full wire-visible and NI state.
func (m *Message) digest(h uint64) uint64 {
	h = digestMix(h, uint64(uint8(m.DestX))|uint64(uint8(m.DestY))<<8|
		uint64(uint8(m.DestZ))<<16|uint64(uint8(m.Pri))<<24)
	h = digestMix(h, uint64(uint32(m.Src)))
	h = digestMix(h, uint64(len(m.Words)))
	for _, w := range m.Words {
		h = digestMix(h, uint64(w))
	}
	h = digestMix(h, uint64(m.EnqueueCycle))
	h = digestMix(h, uint64(m.DeliverCycle))
	var flags uint64
	if m.Returning {
		flags |= 1
	}
	if m.absorb {
		flags |= 2
	}
	if m.drop {
		flags |= 4
	}
	if m.Ctl {
		flags |= 8
	}
	if m.HasCheck {
		flags |= 16
	}
	h = digestMix(h, flags|uint64(m.dropReason)<<8)
	h = digestMix(h, uint64(uint32(m.Returns)))
	h = digestMix(h, uint64(uint8(m.origX))|uint64(uint8(m.origY))<<8|uint64(uint8(m.origZ))<<16)
	h = digestMix(h, uint64(uint32(m.Seq)))
	h = digestMix(h, uint64(m.Check))
	h = digestMix(h, uint64(uint32(m.CorruptWord))|uint64(m.CorruptMask)<<32)
	return h
}

// digestBuf folds input q's buffer at priority v: its phits, head
// first, and its pop stamp.
func (r *router) digestBuf(h uint64, v, q int) uint64 {
	b := &r.in[v][q]
	h = digestMix(h, uint64(b.n))
	h = digestMix(h, uint64(b.popStamp))
	for i := 0; i < int(b.n); i++ {
		p := &r.blk[v][q][i]
		h = digestMix(h, uint64(uint32(p.idx)))
		h = digestMix(h, uint64(p.arrived))
		h = p.m.digest(h)
	}
	return h
}

// digest folds the stats counters.
func (s *Stats) digest(h uint64) uint64 {
	h = digestMix(h, uint64(s.Cycles))
	h = digestMix(h, s.PhitHops)
	h = digestMix(h, s.BisectionPhits)
	for v := 0; v < 2; v++ {
		h = digestMix(h, s.DeliveredMsgs[v])
		h = digestMix(h, s.DeliveredWords[v])
		h = digestMix(h, s.LatencySum[v])
	}
	h = digestMix(h, s.DeliveryStalls)
	h = digestMix(h, s.ReturnedMsgs)
	h = digestMix(h, s.Retransmits)
	h = digestMix(h, s.DroppedMsgs)
	h = digestMix(h, s.CorruptDrops)
	h = digestMix(h, s.DupDrops)
	h = digestMix(h, s.StallsInjected)
	return h
}

// StateDigest folds the network's complete dynamic state — cycle,
// every router's buffers, worm bookkeeping and link stamps, every
// outbox, and the accumulated stats — into a 64-bit digest. Two runs
// with equal digests at the same cycle have byte-identical network
// state.
func (n *Network) StateDigest() uint64 {
	h := uint64(0xcbf29ce484222325)
	h = digestMix(h, uint64(n.cycle))
	for ri := range n.routers {
		r := &n.routers[ri]
		h = digestMix(h, uint64(uint32(r.occ)))
		for v := 0; v < 2; v++ {
			for q := 0; q < NumPorts; q++ {
				h = digestMix(h, uint64(uint8(r.outOwner[v][q]))|uint64(uint8(r.inRoute[v][q]))<<8)
				h = r.digestBuf(h, v, q)
			}
		}
		for q := 0; q < NumPorts; q++ {
			h = digestMix(h, uint64(r.linkStamp[q]))
		}
		h = digestMix(h, uint64(n.rr[ri]))
		for v := 0; v < 2; v++ {
			ob := &n.out[ri][v]
			h = digestMix(h, uint64(len(ob.msgs))|uint64(uint32(ob.phitIdx))<<32)
			h = digestMix(h, uint64(ob.words))
			for _, m := range ob.msgs {
				h = m.digest(h)
			}
		}
	}
	st := n.Stats()
	return st.digest(h)
}
