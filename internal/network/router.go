package network

// Port numbering. Inputs: the six mesh directions plus local injection.
// Outputs: the six mesh directions plus local delivery. A message enters
// on the input port opposite to the output port its upstream router used.
const (
	PortXP    = iota // +X
	PortXM           // -X
	PortYP           // +Y
	PortYM           // -Y
	PortZP           // +Z
	PortZM           // -Z
	PortLocal        // injection (input) / delivery (output)
	NumPorts
)

// opposite maps an output direction to the neighbour's input port.
var opposite = [6]int{PortXM, PortXP, PortYM, PortYP, PortZM, PortZP}

// bufCap is the per-input-buffer capacity in phits. A word and a half
// of elasticity per channel is faithful to the MDP's router and
// reproduces the paper's observation that random traffic saturates the
// network at under half the bisection capacity.
const bufCap = 3

// buf is the bookkeeping of a fixed-capacity FIFO of in-flight phits
// whose slots live in the router's slotBlock, head first: the head is
// always slot 0, so finding it needs no load of the buffer. Each buffer
// has exactly one producer (the upstream link or the local outbox) and
// one consumer, so a popStamp suffices to reconstruct the occupancy at
// the start of the cycle: producers admit a phit only if space existed
// then, keeping throughput independent of router sweep order.
type buf struct {
	n        int8
	popStamp int64 // cycle of the most recent pop
}

// slotBlock holds the phit slots of a router's input buffers, per
// priority and input port. A router holds one only while it is active
// (docs/PERF.md, "Compact node state"): it takes a block from the
// network's free list when its first phit arrives and hands it back
// when the priority-0 pass removes it from the active set. Slots past a
// buffer's n are clear (pop moves the phits behind the head toward slot
// 0 and clears the last slot), so a block on the free list is all zero
// and keeps no message alive.
type slotBlock [2][NumPorts][bufCap]phitRef

// startOcc is the buffer's occupancy at the start of cycle cyc: its one
// consumer pops at most one phit a cycle, and a producer admits a phit
// only while this is below bufCap.
func (b *buf) startOcc(cyc int64) int { return int(b.n) + b2i(b.popStamp == cyc) }

// b2i is 1 for true and 0 for false; the compiler emits a SETcc, not a
// branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

const noPort = int8(-1)

// router is one node's wormhole router: per priority, an input buffer
// per input port, ownership of each output port, and the output port
// assigned to the worm currently flowing through each input. Everything
// a neighbour reads to admit a phit is inline; only the phit slots are
// in blk.
type router struct {
	x, y, z int8
	// cross has bit o set iff output o's link crosses the mid-X plane,
	// so a hop adds cross>>o&1 to Stats.BisectionPhits. Topology.
	cross uint8

	// busy[v] has bit q set iff in[v][q] holds a phit, so stepping visits
	// occupied inputs without touching the empty buffers. Maintained by
	// push and pop; derived state, like Network.act.
	busy [2]uint8

	// occ counts the phits buffered here; a router with occ == 0 and
	// empty outboxes leaves the active set.
	occ int32

	// pushStamp/pushedNew count the phits pushed into this router during
	// the current cycle (by neighbours or the local outbox), so that
	// effOcc can leave out same-cycle pushes, whose visibility depends
	// on visit order, when RoundRobin decides whether rr advances.
	pushedNew int32
	pushStamp int64

	// blk holds the buffers' phit slots: non-nil whenever occ > 0, nil
	// whenever the router is outside the active set. It sits with the
	// other fields a push writes, ahead of the buffers.
	blk *slotBlock

	in       [2][NumPorts]buf
	outOwner [2][NumPorts]int8 // input port owning the output, or noPort
	inRoute  [2][NumPorts]int8 // output port assigned to this input's worm

	// linkStamp[o] == current cycle when output o's physical channel has
	// already carried a phit this cycle (shared across priorities).
	linkStamp [NumPorts]int64
}

// push appends p to input q at priority v during cycle cyc. The phit
// cannot move until the next cycle, so effOcc does not count it. The
// router holds a slot block.
func (r *router) push(v, q int, p phitRef, cyc int64) {
	b := &r.in[v][q]
	r.blk[v][q][b.n] = p
	b.n++
	r.busy[v] |= 1 << q
	r.pushedNew = r.pushedNew*int32(b2i(r.pushStamp == cyc)) + 1
	r.pushStamp = cyc
	r.occ++
}

// pop removes the head phit of input q at priority v, whose slots s the
// caller has already indexed to look at the head, during cycle cyc: the
// phits behind it move one slot toward slot 0 and the last slot
// (bufCap is 3) is cleared.
func (r *router) pop(v, q int, s *[bufCap]phitRef, cyc int64) phitRef {
	p := s[0]
	s[0], s[1], s[2] = s[1], s[2], phitRef{}
	b := &r.in[v][q]
	b.n--
	b.popStamp = cyc
	r.busy[v] &^= uint8(b2i(b.n == 0)) << q
	r.occ--
	return p
}

// effOcc returns the router's phit occupancy excluding phits that
// arrived this cycle: start-of-cycle occupancy minus this cycle's pops.
// Only RoundRobin reads it, to decide whether a router's rr cursor
// advances.
func (r *router) effOcc(cyc int64) int32 {
	return r.occ - r.pushedNew*int32(b2i(r.pushStamp == cyc))
}

func (r *router) init(x, y, z, midX int) {
	r.x, r.y, r.z = int8(x), int8(y), int8(z)
	if x == midX-1 {
		r.cross |= 1 << PortXP
	}
	if x == midX {
		r.cross |= 1 << PortXM
	}
	for v := 0; v < 2; v++ {
		for p := 0; p < NumPorts; p++ {
			r.outOwner[v][p] = noPort
			r.inRoute[v][p] = noPort
		}
	}
}

// route computes the e-cube output port for the worm whose head phit is
// p at this router: correct X, then Y, then Z, then deliver. The three
// comparisons index a table instead of branching.
func (r *router) route(p *phitRef) int8 {
	return ecube[13+sign(int(p.dx)-int(r.x))+3*sign(int(p.dy)-int(r.y))+9*sign(int(p.dz)-int(r.z))]
}

// sign is the sign of d: -1, 0 or 1.
func sign(d int) int { return d>>63 | int(uint(-d)>>63) }

// ecube maps 13 + sx + 3·sy + 9·sz, for the signs of the offsets still to
// travel in X, Y and Z, to the e-cube output port.
var ecube = func() (t [27]int8) {
	for k := range t {
		sx, sy, sz := k%3-1, k/3%3-1, k/9-1
		switch {
		case sx > 0:
			t[k] = PortXP
		case sx < 0:
			t[k] = PortXM
		case sy > 0:
			t[k] = PortYP
		case sy < 0:
			t[k] = PortYM
		case sz > 0:
			t[k] = PortZP
		case sz < 0:
			t[k] = PortZM
		default:
			t[k] = PortLocal
		}
	}
	return t
}()
