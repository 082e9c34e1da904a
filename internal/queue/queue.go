// Package queue models the MDP's hardware message queues.
//
// Arriving messages are buffered in a fixed-size hardware queue per
// priority. A message's words arrive contiguously (wormhole delivery);
// the first word is the header carrying the handler address and message
// length. When a complete message reaches the head of the queue the
// processor dispatches a task for it in four cycles, addressing the
// message body through address register A3.
//
// The paper configures the priority-0 queue for 128 minimum-length
// (4-word) messages in Tuned-J out of a hardware maximum of 256; the
// default capacity here matches that 512-word configuration. When the
// queue fills, delivery back-pressure propagates into the network — the
// behaviour whose consequences the paper's critique discusses.
package queue

import "jmachine/internal/word"

// DefaultCapWords is the default queue capacity in words (the Tuned-J
// configuration: 128 four-word messages).
const DefaultCapWords = 512

// minRing is the ring's length in words when it is first allocated.
const minRing = 16

// Queue is one hardware message queue.
//
// The backing ring holds what the queue has buffered, not what it could
// buffer: it is allocated at minRing words on the first word pushed and
// doubles whenever a push finds it full, so it is always a power of two
// and indexed by mask. On large meshes most nodes never receive a
// message on one of the two priorities, and most that do never buffer
// more than a few short messages. Capacity, squeeze and back-pressure
// are set by capWords and limit alone; the ring never constrains them.
type Queue struct {
	buf      []word.Word // ring storage, a power of two long; nil until a word is buffered
	capWords int         // hardware capacity in words
	limit    int         // fault-injected capacity squeeze in words (0 = none)
	head     int         // ring index of the head message's header
	used     int         // words currently buffered (complete + arriving)

	arriving  int // words of the incomplete message received so far
	expecting int // total words of the incomplete message (0 = none)
	msgs      int // complete messages buffered

	// Statistics.
	maxUsed   int
	delivered uint64 // complete messages received
	rejected  uint64 // words refused because the queue was full

	// readyFn, when non-nil, is called once each time a message
	// completes, after it is counted, whoever pushed its words: the
	// mesh's delivery port, a host injection or system software. It is
	// how a scheduler that parks an idle node learns the node has work.
	readyFn func()
}

// New returns a queue of the given capacity in words (0 selects the
// default).
func New(capWords int) *Queue {
	if capWords <= 0 {
		capWords = DefaultCapWords
	}
	return &Queue{capWords: capWords}
}

// SetReadyFn installs the message-completion hook (see readyFn); nil
// removes it.
func (q *Queue) SetReadyFn(fn func()) { q.readyFn = fn }

// Cap returns the effective capacity in words: the hardware size, or
// the squeezed limit while a capacity fault is injected.
func (q *Queue) Cap() int {
	if q.limit > 0 && q.limit < q.capWords {
		return q.limit
	}
	return q.capWords
}

// HardCap returns the hardware capacity in words, ignoring any squeeze.
func (q *Queue) HardCap() int { return q.capWords }

// SetLimit squeezes the effective capacity to limit words (a chaos
// fault modelling partial buffer failure); 0 restores the full size.
// Words already buffered beyond the limit stay until consumed — only
// admission is constrained.
func (q *Queue) SetLimit(limit int) { q.limit = limit }

// Used returns the number of buffered words.
func (q *Queue) Used() int { return q.used }

// Free returns the number of free words under the effective capacity.
func (q *Queue) Free() int {
	if f := q.Cap() - q.used; f > 0 {
		return f
	}
	return 0
}

// RingWords returns the length of the backing ring in words: 0 until a
// word is buffered, then a power of two that only grows.
func (q *Queue) RingWords() int { return len(q.buf) }

// Messages returns the number of complete messages buffered.
func (q *Queue) Messages() int { return q.msgs }

// Push delivers one word from the network. The first word of each
// message must be a MSG-tagged header whose length field covers the
// whole message including the header itself. Push reports false — and
// the word must be retried — when the queue is full.
func (q *Queue) Push(w word.Word) bool {
	if q.used >= q.Cap() {
		q.rejected++
		return false
	}
	if q.expecting == 0 {
		// Header word of a new message.
		n := w.HeaderLen()
		if w.Tag() != word.TagMsg || n < 1 {
			// Malformed traffic: frame it as a 1-word message so the
			// fault surfaces at dispatch rather than wedging the queue.
			w = word.MsgHeader(w.Data(), 1)
			n = 1
		}
		q.expecting = n
		q.arriving = 0
	}
	if q.used == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.used)&(len(q.buf)-1)] = w
	q.used++
	q.arriving++
	if q.used > q.maxUsed {
		q.maxUsed = q.used
	}
	if q.arriving == q.expecting {
		q.msgs++
		q.delivered++
		q.expecting = 0
		q.arriving = 0
		if q.readyFn != nil {
			q.readyFn()
		}
	}
	return true
}

// grow replaces a full (or absent) ring with one twice as long, copying
// the buffered words to its start.
func (q *Queue) grow() {
	buf := make([]word.Word, max(minRing, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// HeadReady reports whether a complete message is available at the head.
func (q *Queue) HeadReady() bool { return q.msgs > 0 }

// HeadLen returns the length in words of the head message. It must only
// be called when HeadReady.
func (q *Queue) HeadLen() int { return q.buf[q.head].HeaderLen() }

// WordAt reads word i of the head message (0 = header). Reads beyond the
// head message's extent return an integer zero; the processor's segment
// checks fault before that can happen in well-formed programs.
func (q *Queue) WordAt(i int) word.Word {
	if i < 0 || !q.HeadReady() || i >= q.HeadLen() {
		return word.Int(0)
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Pop consumes the head message, freeing its words.
func (q *Queue) Pop() {
	if !q.HeadReady() {
		return
	}
	n := q.HeadLen()
	q.head = (q.head + n) & (len(q.buf) - 1)
	q.used -= n
	q.msgs--
}

// PopTo removes the head message, copying it into dst (which must have
// room); used by the software queue-overflow handler to relocate
// messages into memory.
func (q *Queue) PopTo(dst []word.Word) int {
	if !q.HeadReady() {
		return 0
	}
	n := q.HeadLen()
	for i := 0; i < n && i < len(dst); i++ {
		dst[i] = q.WordAt(i)
	}
	q.Pop()
	return n
}

// Stats reports queue counters.
type Stats struct {
	MaxUsedWords  int
	Delivered     uint64
	RejectedWords uint64
}

// Stats returns accumulated counters.
func (q *Queue) Stats() Stats {
	return Stats{MaxUsedWords: q.maxUsed, Delivered: q.delivered, RejectedWords: q.rejected}
}
