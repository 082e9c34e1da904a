package xlate

import (
	"fmt"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

// SaveState serializes the translation table: geometry (verified on
// restore), every way's key/value/valid triple, the per-set LRU state,
// and the counters. An unallocated table writes the zeros of an
// allocated empty one.
func (t *Table) SaveState(e *wire.Encoder) {
	e.Int(t.sets)
	e.Int(t.ways)
	for i := range t.sets * t.ways {
		key, val, valid := t.entry(i)
		e.U64(uint64(key))
		e.U64(uint64(val))
		e.Bool(valid)
	}
	for s := range t.sets {
		e.U8(t.lruOf(s))
	}
	e.U64(t.hits)
	e.U64(t.misses)
	e.U64(t.inserts)
	e.U64(t.evictions)
}

// RestoreState rebuilds the table in place. The entries are allocated
// only when the checkpoint holds a non-zero one, so an empty table
// restores unallocated.
func (t *Table) RestoreState(d *wire.Decoder) error {
	if s, w := d.Int(), d.Int(); s != t.sets || w != t.ways {
		return fmt.Errorf("xlate: checkpoint geometry %d×%d != configured %d×%d", s, w, t.sets, t.ways)
	}
	t.keys, t.vals, t.valid, t.lru = nil, nil, nil, nil
	for i := range t.sets * t.ways {
		key, val, valid := word.Word(d.U64()), word.Word(d.U64()), d.Bool()
		if t.keys == nil && (key != 0 || val != 0 || valid) {
			t.alloc()
		}
		if t.keys != nil {
			t.keys[i], t.vals[i], t.valid[i] = key, val, valid
		}
	}
	for s := range t.sets {
		w := d.U8()
		if t.keys == nil && w != 0 {
			t.alloc()
		}
		if t.keys != nil {
			t.lru[s] = w
		}
	}
	t.hits = d.U64()
	t.misses = d.U64()
	t.inserts = d.U64()
	t.evictions = d.U64()
	return d.Err()
}
