package mem

import (
	"testing"

	"jmachine/internal/ckpt/wire"
	"jmachine/internal/word"
)

// benchImage is a default-geometry memory holding a ring node's words
// (the boot words 0–4 and the application words at 64–66) and, for the
// exchange shape, the Figure 3 loop's 256-word destination table at 3000.
func benchImage(b *testing.B, exchange bool) *Memory {
	m := New(Config{})
	load := func(addr int32, n int) {
		ws := make([]word.Word, n)
		for i := range ws {
			ws[i] = word.Int(int32(addr) + int32(i) + 1)
		}
		if err := m.Load(addr, ws); err != nil {
			b.Fatal(err)
		}
	}
	load(0, 5)
	load(64, 3)
	if exchange {
		load(3000, 256)
	}
	return m
}

var sinkWord word.Word

// BenchmarkMemory times the accesses a node makes of its memory and the
// checkpoint round trip of its image: Read of a written word, of a word
// in an unwritten block beside written ones, and of a word in an
// unwritten page; Write of a written word; and SaveState and
// RestoreState of the ring and exchange images.
func BenchmarkMemory(b *testing.B) {
	for _, c := range []struct {
		name string
		addr int32
	}{{"Read/materialized", 65}, {"Read/nil-block", 40}, {"Read/nil-page", 1000}} {
		b.Run(c.name, func(b *testing.B) {
			m := benchImage(b, false)
			var acc word.Word
			for i := 0; i < b.N; i++ {
				w, _ := m.Read(c.addr)
				acc ^= w
			}
			sinkWord = acc
		})
	}
	b.Run("Write", func(b *testing.B) {
		m := benchImage(b, false)
		for i := 0; i < b.N; i++ {
			m.Write(65, word.Int(int32(i)|1))
		}
	})
	for _, c := range []struct {
		name     string
		exchange bool
	}{{"ring", false}, {"exchange", true}} {
		b.Run("SaveState/"+c.name, func(b *testing.B) {
			m := benchImage(b, c.exchange)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.SaveState(&wire.Encoder{})
			}
		})
		b.Run("RestoreState/"+c.name, func(b *testing.B) {
			m := benchImage(b, c.exchange)
			e := &wire.Encoder{}
			m.SaveState(e)
			img := e.Bytes()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.RestoreState(wire.NewDecoder(img)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
