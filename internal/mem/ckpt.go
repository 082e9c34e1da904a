package mem

import (
	"fmt"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

// runEnd returns the first address after at whose word differs from v,
// fast-forwarding across whole unmaterialized pages and blocks when v is
// zero (and straight to the end past the directory) so the encoder stays
// O(materialized words) on sparse images.
func (m *Memory) runEnd(at int, v word.Word) int {
	j := at + 1
	for j < m.size {
		pi := j >> pageShift
		if pi >= len(m.pages) {
			if v != 0 {
				return j
			}
			return m.size
		}
		lf := m.pages[pi]
		if lf == nil {
			if v != 0 {
				return j
			}
			j = (pi + 1) << pageShift
			continue
		}
		b := lf[j>>blockShift&leafMask]
		if b == nil {
			if v != 0 {
				return j
			}
			j = (j>>blockShift + 1) << blockShift
			continue
		}
		if b[j&blockMask] != v {
			return j
		}
		j++
	}
	return m.size
}

// SaveState serializes the memory image run-length encoded: node
// memories are dominated by long runs of identical words (untouched
// zeroed DRAM, cfut-filled frames), so a (count, word) stream is far
// smaller than the raw image while staying byte-exact. Runs are maximal
// over the logical image, so the encoding is independent of block
// materialization — a lazily zero block and an explicit one serialize
// identically.
func (m *Memory) SaveState(e *wire.Encoder) {
	e.Int(m.size)
	e.Int(m.imemWords)
	i := 0
	for i < m.size {
		v := m.get(i)
		j := m.runEnd(i, v)
		e.U32(uint32(j - i))
		e.U64(uint64(v))
		i = j
	}
}

// RestoreState rebuilds the memory image from the checkpoint over a
// fresh directory that covers internal memory only, so zero runs
// restore to lazy blocks. The configured geometry must match the
// checkpoint exactly.
func (m *Memory) RestoreState(d *wire.Decoder) error {
	if n := d.Int(); n != m.size {
		return fmt.Errorf("mem: checkpoint size %d words != configured %d", n, m.size)
	}
	if iw := d.Int(); iw != m.imemWords {
		return fmt.Errorf("mem: checkpoint imem %d words != configured %d", iw, m.imemWords)
	}
	m.pages = make([]*leaf, pagesFor(m.imemWords))
	at := 0
	for at < m.size {
		run := int(d.U32())
		w := word.Word(d.U64())
		if err := d.Err(); err != nil {
			return err
		}
		if run <= 0 || at+run > m.size {
			return fmt.Errorf("mem: checkpoint run of %d words overflows image at %d", run, at)
		}
		if w != 0 {
			for i := 0; i < run; i++ {
				m.set(at+i, w)
			}
		}
		at += run
	}
	return d.Err()
}
