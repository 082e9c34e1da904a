// Package network simulates the J-Machine's 3-D mesh interconnect at the
// phit level.
//
// Messages are routed with deterministic e-cube wormhole routing: a
// message fully traverses the X dimension, then Y, then Z, then is
// delivered. Channels carry one phit (half of a 36-bit word) per cycle,
// giving the paper's channel bandwidth of 0.5 words/cycle, and a head
// phit advances one hop per cycle, giving the minimum latency of 1
// cycle/hop. Two message priorities share each physical link; priority 1
// receives preference during channel arbitration. Output-channel
// arbitration among competing inputs is at a fixed priority — the source
// of the injection unfairness the paper observed in radix sort — with a
// round-robin option for the fairness ablation.
package network

import "jmachine/internal/word"

// Message is one network message: destination coordinates plus payload
// words (header first). On the wire the message is preceded by a
// destination word, so a message of L words occupies 2·(L+1) phits.
type Message struct {
	DestX, DestY, DestZ int8
	Pri                 int8
	Src                 int32 // source node id, for statistics and return-to-sender
	Words               []word.Word

	// EnqueueCycle is the cycle at which injection was requested (SENDE
	// retired); DeliverCycle is when the last word entered the
	// destination queue. Both are maintained by the network for latency
	// statistics.
	EnqueueCycle int64
	DeliverCycle int64

	// Return-to-sender flow control (the paper's critique proposes it:
	// "a 'return-to-sender' protocol that refuses messages when the
	// queue is above a certain threshold by returning them to the
	// sending node"). Returning marks a refused message on its way
	// back; absorb marks a worm being drained at a delivery port
	// without entering the queue.
	Returning bool
	absorb    bool
	Returns   int32 // times this message has been refused
	// origX/Y/Z preserve the true destination while the message is on
	// its way back to the sender.
	origX, origY, origZ int8

	// Seq is a network-interface sequence number used by the reliable-
	// delivery runtime (package rt): zero means untracked. Ctl marks
	// protocol control traffic (acknowledgements) that must not itself
	// be tracked. Both are side-band NI metadata, not wire words.
	Seq int32
	Ctl bool

	// Checksum protection. When Config.Checksum is enabled the sender's
	// network interface stamps Check over the payload and the message
	// carries one extra checksum word on the wire (two phits); the
	// delivery port verifies it and discards corrupted worms.
	HasCheck bool
	Check    uint32

	// CorruptWord/CorruptMask model a transient in-flight bit flip
	// injected by package chaos: while the message is on the wire, the
	// payload word at index CorruptWord reads XOR CorruptMask. A zero
	// mask means the message is clean. Retransmitted copies are fresh
	// sends and do not inherit the fault.
	CorruptWord int32
	CorruptMask uint32

	// drop marks a worm being drained for permanent discard (checksum
	// failure, duplicate suppression, or exceeding MaxReturns).
	drop       bool
	dropReason DropReason

	// pooled marks a message leased from the recycling pool via
	// NewMessage; the network returns it there when it permanently
	// retires. Hand-built messages (tests, external injectors) stay
	// un-pooled and may be inspected after delivery. Not part of the
	// state digest: it is allocator bookkeeping, invisible on the wire.
	pooled bool
}

// DropReason classifies why the network permanently discarded a message.
type DropReason uint8

const (
	// DropCorrupt: the delivery port's checksum verification failed.
	DropCorrupt DropReason = iota
	// DropMaxReturns: a refused message exceeded Config.MaxReturns.
	DropMaxReturns
	// DropFiltered: the delivery filter hook refused the message
	// (duplicate suppression by the reliable-delivery runtime).
	DropFiltered
)

var dropNames = [...]string{"corrupt", "max-returns", "filtered"}

// String names the drop reason.
func (r DropReason) String() string {
	if int(r) < len(dropNames) {
		return dropNames[r]
	}
	return "drop?"
}

// WirePhits returns the number of phits the message occupies on a
// channel: two per payload word, two for the destination word, two
// framing phits (the hardware's route/length control phits), and two
// more for the checksum word when checksum protection is on.
func (m *Message) WirePhits() int32 {
	n := int32(2*len(m.Words) + 4)
	if m.HasCheck {
		n += 2
	}
	return n
}

// payloadBase returns the phit index of the first payload phit: the
// checksum word (when present) rides between the framing phits and the
// payload, so it is verified before any payload word is committed.
func (m *Message) payloadBase() int32 {
	if m.HasCheck {
		return 6
	}
	return 4
}

// WireWord returns payload word i as it reads on the wire, with any
// in-flight corruption applied.
func (m *Message) WireWord(i int) word.Word {
	w := m.Words[i]
	if m.CorruptMask != 0 && int(m.CorruptWord) == i {
		w ^= word.Word(m.CorruptMask)
	}
	return w
}

// checksum folds payload words into a 32-bit check value (a simple
// multiply-rotate hash standing in for the CRC a real NI would use).
// The read function selects clean memory words (sender stamp) or wire
// words with corruption applied (receiver verify).
func checksum(m *Message, read func(int) word.Word) uint32 {
	var h uint64 = 0x9E3779B97F4A7C15
	for i := range m.Words {
		h ^= uint64(read(i))
		h *= 0x100000001B3
		h ^= h >> 29
	}
	return uint32(h) ^ uint32(h>>32)
}

// StampChecksum records the sender-side checksum over the clean payload
// (called at injection when Config.Checksum is on): the NI reads the
// words from memory, so any in-flight corruption happens after the
// stamp regardless of when the fault was armed.
func (m *Message) StampChecksum() {
	m.HasCheck = true
	m.Check = checksum(m, func(i int) word.Word { return m.Words[i] })
}

// CheckOK verifies the stamped checksum against the wire words.
func (m *Message) CheckOK() bool {
	return !m.HasCheck || checksum(m, m.WireWord) == m.Check
}

// phitRef locates one phit of an in-flight message. Besides the
// message and the phit's index it carries two derived facts, so that a
// hop never loads the Message: whether it is the tail, and the
// destination the head phit routes by. Both sit in idx's padding, so a
// phitRef stays 24 bytes; newPhit sets them where a phit enters the
// mesh (feedInjection), and RestoreState recomputes them. The
// destination cannot go stale: it changes only when a refused or
// homecoming message is requeued, after its tail has left the mesh.
type phitRef struct {
	m          *Message
	idx        int32 // 0,1 = destination word; 2,3 = framing; then payload (see payloadBase)
	tail       bool  // idx == m.WirePhits()-1
	dx, dy, dz int8  // m.DestX, m.DestY, m.DestZ
	arrived    int64 // cycle the phit entered its current buffer
}

// newPhit returns phit idx of m, entering a buffer at cycle arrived.
func newPhit(m *Message, idx int32, arrived int64) phitRef {
	return phitRef{m: m, idx: idx, tail: idx == m.WirePhits()-1,
		dx: m.DestX, dy: m.DestY, dz: m.DestZ, arrived: arrived}
}

// payloadWord returns (word, true) when the phit completes a payload
// word at the delivery port; destination, framing, and checksum phits
// yield false.
func (p phitRef) payloadWord() (word.Word, bool) {
	base := p.m.payloadBase()
	if p.idx&1 == 0 || p.idx < base+1 {
		return 0, false
	}
	return p.m.WireWord(int((p.idx - base - 1) / 2)), true
}
