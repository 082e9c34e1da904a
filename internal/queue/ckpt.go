package queue

import (
	"fmt"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

// SaveState serializes the queue's complete dynamic state for a
// checkpoint: buffered words in logical (head-first) order, arrival
// bookkeeping, the squeeze limit, and statistics. The hardware
// capacity is written only to be verified on restore — it is
// configuration, rebuilt by the restoring process.
func (q *Queue) SaveState(e *wire.Encoder) {
	e.Int(q.capWords)
	e.Int(q.limit)
	e.Int(q.used)
	e.Int(q.arriving)
	e.Int(q.expecting)
	e.Int(q.msgs)
	e.Int(q.maxUsed)
	e.U64(q.delivered)
	e.U64(q.rejected)
	for i := 0; i < q.used; i++ {
		e.U64(uint64(q.buf[(q.head+i)&(len(q.buf)-1)]))
	}
}

// RestoreState rebuilds the queue from a checkpoint. The buffered
// words land at offset zero of a fresh ring sized to hold them (the
// shortest power of two of at least minRing words): the digest and all
// queue operations address contents logically from head, so neither the
// physical rotation nor the ring's length is observable. The Queue
// itself is updated in place, since the network and the node share it
// by pointer.
func (q *Queue) RestoreState(d *wire.Decoder) error {
	if hc := d.Int(); hc != q.capWords {
		return fmt.Errorf("queue: checkpoint capacity %d != configured %d", hc, q.capWords)
	}
	q.limit = d.Int()
	used := d.Int()
	if used < 0 || used > q.capWords {
		return fmt.Errorf("queue: checkpoint used %d out of range", used)
	}
	q.arriving = d.Int()
	q.expecting = d.Int()
	q.msgs = d.Int()
	q.maxUsed = d.Int()
	q.delivered = d.U64()
	q.rejected = d.U64()
	q.head = 0
	q.used = used
	q.buf = nil // restore an idle queue to its lazy state
	if used > 0 {
		n := minRing
		for n < used {
			n *= 2
		}
		q.buf = make([]word.Word, n)
		for i := range used {
			q.buf[i] = word.Word(d.U64())
		}
	}
	if q.msgs < 0 || q.arriving < 0 || q.expecting < 0 || q.maxUsed < 0 {
		return fmt.Errorf("queue: negative checkpoint counters")
	}
	return d.Err()
}
