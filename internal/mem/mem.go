// Package mem models one J-Machine node's two-level memory.
//
// Each node pairs the MDP's 4K-word on-chip SRAM (internal memory, 2-cycle
// operand access) with 1 MByte of ECC DRAM (external memory, ~6-cycle
// latency). The two live in a single word address space: internal memory
// at [0, ImemWords) and external memory above it. Every word carries a
// 4-bit tag, so presence tags (cfut/fut) are first-class in memory exactly
// as in the register file.
//
// Local memory is referenced via segment descriptors that specify the
// base and length of each memory object; indexed accesses are bounds
// checked against the descriptor. System code may also use raw integer
// addresses (unchecked), which is how the tuned assembly applications
// address large arrays.
//
// The backing store is paged and lazily materialized: a nil page reads as
// integer zero, and pages are only allocated on the first non-zero write.
// The page table itself starts over internal memory alone and is extended
// over external memory on the first non-zero write there. Programs execute
// from the assembled image held machine-wide, so a node that only touches
// a few dozen data words costs one 1 KiB page and a 32-entry table rather
// than the full 70K-word image — the difference between a 16K-node mesh
// fitting in memory or not.
package mem

import (
	"errors"
	"fmt"

	"jmachine/internal/word"
)

// Defaults mirror the prototype: a 4K-word SRAM and 1 MByte of DRAM.
// The DRAM default here is smaller than the hardware's so that 512-node
// simulations stay cheap; paper-scale memory is a Config away.
const (
	DefaultImemWords = 4096
	DefaultEmemWords = 65536
)

// Page geometry. 128 words (1 KiB) per page: the runtime's boot words
// (0–4) and an application's words at rt.AppBase (64) sit in one page,
// the default SRAM needs a 32-entry table, and a node that writes DRAM
// extends it to 544 entries. Halving the page again would split those
// words over two pages and double the table: on a large idle mesh that
// costs more than the smaller pages save (docs/PERF.md, "Compact node
// state").
const (
	pageShift = 7
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// Config sizes a node memory.
type Config struct {
	ImemWords int // on-chip SRAM words (0 = DefaultImemWords)
	EmemWords int // off-chip DRAM words (0 = DefaultEmemWords)
}

func (c Config) withDefaults() Config {
	if c.ImemWords == 0 {
		c.ImemWords = DefaultImemWords
	}
	if c.EmemWords == 0 {
		c.EmemWords = DefaultEmemWords
	}
	return c
}

// ErrBounds is returned for accesses outside the node's address space or
// outside a segment descriptor's extent.
var ErrBounds = errors.New("mem: address out of bounds")

// page is one materialized page of the backing store.
type page = [pageWords]word.Word

// Memory is one node's storage.
type Memory struct {
	// pages is the page table: it covers internal memory from New and
	// the whole address space once a non-zero word is written past it.
	// A nil page, or one past the table, reads as word.Int(0).
	pages     []*page
	size      int // addressable words
	imemWords int
}

// New allocates a node memory. All words start as integer zero; no page
// is materialized until written.
func New(cfg Config) *Memory {
	cfg = cfg.withDefaults()
	return &Memory{
		pages:     make([]*page, pagesFor(cfg.ImemWords)),
		size:      cfg.ImemWords + cfg.EmemWords,
		imemWords: cfg.ImemWords,
	}
}

// pagesFor returns the number of pages that cover words words.
func pagesFor(words int) int { return (words + pageWords - 1) / pageWords }

// Size returns the total number of addressable words.
func (m *Memory) Size() int { return m.size }

// ImemWords returns the size of internal memory; external memory begins
// at this address.
func (m *Memory) ImemWords() int { return m.imemWords }

// IsInternal reports whether addr falls in on-chip SRAM. Access cost
// modelling in the processor core keys off this.
func (m *Memory) IsInternal(addr int32) bool {
	return addr >= 0 && int(addr) < m.imemWords
}

// Read returns the word at addr.
func (m *Memory) Read(addr int32) (word.Word, error) {
	if addr < 0 || int(addr) >= m.size {
		return 0, ErrBounds
	}
	return m.get(int(addr)), nil
}

// Write stores w at addr, replacing both data and tag. Writing integer
// zero to an unmaterialized page is a no-op — the page stays lazy.
func (m *Memory) Write(addr int32, w word.Word) error {
	if addr < 0 || int(addr) >= m.size {
		return ErrBounds
	}
	m.set(int(addr), w)
	return nil
}

// set stores w at a bounds-checked word index, materializing the page
// (and extending the page table over the whole address space) only for
// non-zero words.
func (m *Memory) set(addr int, w word.Word) {
	pi := addr >> pageShift
	if pi >= len(m.pages) {
		if w == 0 {
			return
		}
		pages := make([]*page, pagesFor(m.size))
		copy(pages, m.pages)
		m.pages = pages
	}
	pg := m.pages[pi]
	if pg == nil {
		if w == 0 {
			return
		}
		pg = new(page)
		m.pages[pi] = pg
	}
	pg[addr&pageMask] = w
}

// get returns the word at a bounds-checked word index.
func (m *Memory) get(addr int) word.Word {
	if pi := addr >> pageShift; pi < len(m.pages) {
		if pg := m.pages[pi]; pg != nil {
			return pg[addr&pageMask]
		}
	}
	return 0
}

// Load copies ws into memory starting at addr (host/loader operation,
// free of simulated cost).
func (m *Memory) Load(addr int32, ws []word.Word) error {
	if addr < 0 || int(addr)+len(ws) > m.size {
		return fmt.Errorf("%w: load [%d,%d) into %d words", ErrBounds, addr, int(addr)+len(ws), m.size)
	}
	for i, w := range ws {
		m.set(int(addr)+i, w)
	}
	return nil
}

// FillCfut marks n words starting at addr as awaiting values.
func (m *Memory) FillCfut(addr int32, n int) error {
	if addr < 0 || int(addr)+n > m.size {
		return ErrBounds
	}
	for i := 0; i < n; i++ {
		m.set(int(addr)+i, word.Cfut(0))
	}
	return nil
}

// Footprint reports the backing store's allocation: the page table's
// entries and the pages materialized under it.
func (m *Memory) Footprint() (tableEntries, pages int) {
	for _, pg := range m.pages {
		if pg != nil {
			pages++
		}
	}
	return len(m.pages), pages
}

// HeapBytes is the heap the backing store holds: one pointer per page
// table entry plus every materialized page. The large-mesh tests pin it
// per node.
func (m *Memory) HeapBytes() int64 {
	entries, pages := m.Footprint()
	return int64(entries)*8 + int64(pages)*pageWords*8
}

// Segment descriptors.
//
// An ADDR-tagged word encodes a memory object: base address in the low 20
// bits and object length (words) in the high 12 bits. Objects may be
// relocated at will — heap compaction only requires re-ENTERing the
// descriptor under the object's global name.

const (
	segBaseBits = 20
	segBaseMask = 1<<segBaseBits - 1
	// SegMaxLen is the largest object a descriptor can describe.
	SegMaxLen = 1<<12 - 1
	// SegMaxBase is the largest base address a descriptor can hold.
	SegMaxBase = segBaseMask
)

// Seg builds a segment descriptor word.
func Seg(base int32, length int) word.Word {
	return word.New(word.TagAddr, int32(length)<<segBaseBits|base&segBaseMask)
}

// SegBase extracts the base address of a descriptor.
func SegBase(w word.Word) int32 { return w.Data() & segBaseMask }

// SegLen extracts the length of a descriptor.
func SegLen(w word.Word) int { return int(w.UData() >> segBaseBits) }

// SegAddr resolves an indexed access through a descriptor, enforcing
// bounds: reading slot i of an object of length n faults unless 0 ≤ i < n.
func SegAddr(desc word.Word, index int32) (int32, error) {
	if index < 0 || int(index) >= SegLen(desc) {
		return 0, fmt.Errorf("%w: index %d in segment of %d", ErrBounds, index, SegLen(desc))
	}
	return SegBase(desc) + index, nil
}
