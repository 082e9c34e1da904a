package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

func TestDefaults(t *testing.T) {
	m := New(Config{})
	if m.ImemWords() != DefaultImemWords {
		t.Errorf("ImemWords = %d", m.ImemWords())
	}
	if m.Size() != DefaultImemWords+DefaultEmemWords {
		t.Errorf("Size = %d", m.Size())
	}
}

func TestInternalBoundary(t *testing.T) {
	m := New(Config{ImemWords: 16, EmemWords: 16})
	if !m.IsInternal(0) || !m.IsInternal(15) {
		t.Error("SRAM misclassified")
	}
	if m.IsInternal(16) || m.IsInternal(-1) {
		t.Error("DRAM or negative misclassified as internal")
	}
}

func TestReadWrite(t *testing.T) {
	m := New(Config{ImemWords: 8, EmemWords: 8})
	w := word.New(word.TagSym, 77)
	if err := m.Write(3, w); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(3)
	if err != nil || got != w {
		t.Fatalf("Read = %v, %v", got, err)
	}
	if _, err := m.Read(16); !errors.Is(err, ErrBounds) {
		t.Error("out-of-range read did not fault")
	}
	if err := m.Write(-1, w); !errors.Is(err, ErrBounds) {
		t.Error("negative write did not fault")
	}
}

func TestLoadAndFillCfut(t *testing.T) {
	m := New(Config{ImemWords: 8, EmemWords: 8})
	ws := []word.Word{word.Int(1), word.Int(2), word.Int(3)}
	if err := m.Load(2, ws); err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		got, _ := m.Read(int32(2 + i))
		if got != w {
			t.Errorf("word %d = %v", i, got)
		}
	}
	if err := m.Load(14, ws); !errors.Is(err, ErrBounds) {
		t.Error("overlong load did not fault")
	}
	if err := m.FillCfut(0, 2); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(0)
	if !got.IsCfut() {
		t.Error("FillCfut did not tag")
	}
	if err := m.FillCfut(15, 2); !errors.Is(err, ErrBounds) {
		t.Error("overlong FillCfut did not fault")
	}
}

func TestSegmentDescriptors(t *testing.T) {
	d := Seg(1000, 16)
	if SegBase(d) != 1000 || SegLen(d) != 16 {
		t.Fatalf("descriptor fields: base=%d len=%d", SegBase(d), SegLen(d))
	}
	if d.Tag() != word.TagAddr {
		t.Errorf("descriptor tag = %v", d.Tag())
	}
	addr, err := SegAddr(d, 15)
	if err != nil || addr != 1015 {
		t.Errorf("SegAddr(15) = %d, %v", addr, err)
	}
	if _, err := SegAddr(d, 16); err == nil {
		t.Error("index == length did not fault")
	}
	if _, err := SegAddr(d, -1); err == nil {
		t.Error("negative index did not fault")
	}
}

func TestSegProperty(t *testing.T) {
	f := func(base int32, length uint16, idx int32) bool {
		b := base & SegMaxBase
		l := int(length) % (SegMaxLen + 1)
		d := Seg(b, l)
		if SegBase(d) != b || SegLen(d) != l {
			return false
		}
		addr, err := SegAddr(d, idx)
		if idx >= 0 && int(idx) < l {
			return err == nil && addr == b+idx
		}
		return err != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPageTableGrowsOnFirstExternalWrite pins the lazy geometry: the
// page table covers internal memory until a non-zero word is written
// past it, a zero write changes nothing, and neither the digest nor
// the checkpoint bytes depend on how far the table reaches; a restore
// starts over from the internal-memory table.
func TestPageTableGrowsOnFirstExternalWrite(t *testing.T) {
	const imemPages, allPages = DefaultImemWords / pageWords, (DefaultImemWords + DefaultEmemWords) / pageWords
	check := func(what string, m *Memory, entries, pages int) {
		t.Helper()
		e, p := m.Footprint()
		if e != entries || p != pages {
			t.Errorf("%s: %d table entries, %d pages; want %d, %d", what, e, p, entries, pages)
		}
		if want := int64(entries*8 + pages*pageWords*8); m.HeapBytes() != want {
			t.Errorf("%s: HeapBytes %d, want %d", what, m.HeapBytes(), want)
		}
	}
	encode := func(m *Memory) []byte {
		e := &wire.Encoder{}
		m.SaveState(e)
		return e.Bytes()
	}
	m := New(Config{})
	check("new", m, imemPages, 0)
	ext := int32(DefaultImemWords + 3*pageWords + 5)
	if err := m.Write(ext, 0); err != nil {
		t.Fatal(err)
	}
	check("zero write to external memory", m, imemPages, 0)
	if w, err := m.Read(ext); err != nil || w != 0 {
		t.Fatalf("read past the table = %v, %v", w, err)
	}
	if err := m.Write(70, word.Int(1)); err != nil {
		t.Fatal(err)
	}
	check("internal write", m, imemPages, 1)
	short, shortDigest := encode(m), m.StateDigest(1)

	if err := m.Write(ext, word.Int(2)); err != nil {
		t.Fatal(err)
	}
	check("external write", m, allPages, 2)
	if w, _ := m.Read(ext); w != word.Int(2) {
		t.Fatalf("external word = %v", w)
	}
	grown := encode(m)
	r := New(Config{})
	if err := r.RestoreState(wire.NewDecoder(grown)); err != nil {
		t.Fatal(err)
	}
	check("restored grown image", r, allPages, 2)
	if r.StateDigest(1) != m.StateDigest(1) || !bytes.Equal(encode(r), grown) {
		t.Error("the grown image did not restore to itself")
	}

	// Zeroing the external word keeps its page and the grown table, but
	// the image digests and encodes as it did before the table grew,
	// and restores onto the internal-memory table alone.
	m.Write(ext, 0)
	if m.StateDigest(1) != shortDigest || !bytes.Equal(encode(m), short) {
		t.Error("a grown table holding a zero page differs from the short table")
	}
	if err := r.RestoreState(wire.NewDecoder(encode(m))); err != nil {
		t.Fatal(err)
	}
	check("restored short image", r, imemPages, 1)
	if r.StateDigest(1) != shortDigest {
		t.Error("the short image restored to a different digest")
	}
}

// TestPageGeometry pins the page size in literal numbers: 128-word
// pages, so words 127 and 128 land on two pages, a 32-entry table over
// the default 4K-word SRAM, and 544 entries once DRAM is written.
func TestPageGeometry(t *testing.T) {
	m := New(Config{})
	check := func(what string, entries, pages int, heap int64) {
		t.Helper()
		e, p := m.Footprint()
		if e != entries || p != pages || m.HeapBytes() != heap {
			t.Errorf("%s: %d table entries, %d pages, %d heap bytes; want %d, %d, %d",
				what, e, p, m.HeapBytes(), entries, pages, heap)
		}
	}
	check("new", 32, 0, 32*8)
	if err := m.Write(127, word.Int(1)); err != nil {
		t.Fatal(err)
	}
	check("word 127", 32, 1, 32*8+1024)
	if err := m.Write(128, word.Int(1)); err != nil {
		t.Fatal(err)
	}
	check("word 128", 32, 2, 32*8+2*1024)
	if err := m.Write(DefaultImemWords, word.Int(1)); err != nil {
		t.Fatal(err)
	}
	check("first DRAM word", 544, 3, 544*8+3*1024)
}
