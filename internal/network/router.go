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

// buf is a fixed-capacity ring of in-flight phits. Each buffer has
// exactly one producer (the upstream link or the local outbox) and one
// consumer, so a popStamp suffices to reconstruct the occupancy at the
// start of the cycle: producers admit a phit only if space existed then,
// keeping throughput independent of router sweep order.
type buf struct {
	slots    [bufCap]phitRef
	head     int8
	n        int8
	popStamp int64 // cycle of the most recent pop
}

func (b *buf) push(p phitRef) {
	b.slots[(int(b.head)+int(b.n))%bufCap] = p
	b.n++
}

func (b *buf) peek() *phitRef { return &b.slots[b.head] }

func (b *buf) pop() phitRef {
	p := b.slots[b.head]
	b.head = (b.head + 1) % bufCap
	b.n--
	return p
}

const noPort = int8(-1)

// router is one node's wormhole router: per priority, an input buffer
// per input port, ownership of each output port, and the output port
// assigned to the worm currently flowing through each input.
type router struct {
	x, y, z int8

	// busy[v] has bit q set iff in[v][q] holds a phit, so stepping visits
	// occupied inputs without touching the empty buffers. Maintained by
	// push and pop; derived state, like Network.act.
	busy [2]uint8

	in       [2][NumPorts]buf
	outOwner [2][NumPorts]int8 // input port owning the output, or noPort
	inRoute  [2][NumPorts]int8 // output port assigned to this input's worm

	// linkStamp[o] == current cycle when output o's physical channel has
	// already carried a phit this cycle (shared across priorities).
	linkStamp [NumPorts]int64

	// occ counts phits buffered here plus pending local work; zero means
	// the router can be skipped entirely this cycle.
	occ int32

	// pushStamp/pushedNew track phits pushed into this router during the
	// current cycle (by neighbours or the local outbox). The stepping
	// skip check subtracts them from occ so that whether a same-cycle
	// push has already landed — which depends on sweep order — never
	// changes which routers are stepped. The resulting effective
	// occupancy is start-of-cycle phits minus this cycle's pops.
	pushStamp int64
	pushedNew int32
}

// push appends p to input q at priority v during cycle cyc. The phit
// cannot move until the next cycle, so the skip check must not count
// it (effOcc).
func (r *router) push(v, q int, p phitRef, cyc int64) {
	r.in[v][q].push(p)
	r.busy[v] |= 1 << q
	if r.pushStamp != cyc {
		r.pushStamp, r.pushedNew = cyc, 0
	}
	r.pushedNew++
	r.occ++
}

// pop removes the head phit of input q at priority v during cycle cyc.
func (r *router) pop(v, q int, cyc int64) phitRef {
	b := &r.in[v][q]
	p := b.pop()
	b.popStamp = cyc
	if b.n == 0 {
		r.busy[v] &^= 1 << q
	}
	r.occ--
	return p
}

// effOcc returns the router's phit occupancy excluding phits that
// arrived this cycle: start-of-cycle occupancy minus this cycle's pops.
func (r *router) effOcc(cyc int64) int32 {
	o := r.occ
	if r.pushStamp == cyc {
		o -= r.pushedNew
	}
	return o
}

func (r *router) init(x, y, z int) {
	r.x, r.y, r.z = int8(x), int8(y), int8(z)
	for v := 0; v < 2; v++ {
		for p := 0; p < NumPorts; p++ {
			r.outOwner[v][p] = noPort
			r.inRoute[v][p] = noPort
		}
	}
}

// route computes the e-cube output port for m at this router: correct X,
// then Y, then Z, then deliver.
func (r *router) route(m *Message) int8 {
	switch {
	case m.DestX > r.x:
		return PortXP
	case m.DestX < r.x:
		return PortXM
	case m.DestY > r.y:
		return PortYP
	case m.DestY < r.y:
		return PortYM
	case m.DestZ > r.z:
		return PortZP
	case m.DestZ < r.z:
		return PortZM
	default:
		return PortLocal
	}
}
