// Package word implements the MDP's 36-bit tagged machine word.
//
// Every storage location in the Message-Driven Processor — registers,
// on-chip SRAM, off-chip DRAM, and message queues — holds a 36-bit word:
// 32 bits of data augmented with a 4-bit type tag. Tags drive the MDP's
// synchronization mechanisms (the cfut and fut presence tags raise a fault
// when read before a value is delivered) as well as its naming mechanisms
// (segment descriptors and global virtual names are distinguished types).
//
// A Word is packed into a uint64 for speed: bits 0-31 carry data, bits
// 32-35 carry the tag. The data field is interpreted as a signed 32-bit
// integer by the arithmetic helpers.
package word

import "fmt"

// Tag is the 4-bit data type attached to every word. Of the sixteen
// possible types the paper names cfut and fut explicitly; the remainder
// follow the MDP architecture reference.
type Tag uint8

const (
	// TagInt marks a 32-bit two's-complement integer.
	TagInt Tag = iota
	// TagBool marks a boolean (0 or 1 in the data field).
	TagBool
	// TagSym marks an opaque symbol (used for characters, selectors).
	TagSym
	// TagIP marks an instruction pointer: a code address within a node.
	TagIP
	// TagAddr marks a segment descriptor: base and length of a local
	// memory object (see package mem for the field layout).
	TagAddr
	// TagMsg marks a message header word: dispatch IP and message length.
	TagMsg
	// TagPtr marks a global virtual name (object ID) that must be
	// translated with XLATE before local use.
	TagPtr
	// TagNode marks a router address (encoded x,y,z node coordinates).
	TagNode
	// TagCfut marks a slot awaiting a value. Reading a cfut word raises a
	// fault; it provides inexpensive single-slot synchronization, much
	// like a full-empty bit.
	TagCfut
	// TagFut marks a future. Unlike cfut it may be copied without
	// faulting; only consuming operations (arithmetic, branching) fault.
	TagFut
	// TagUser0 through TagUser5 are uninterpreted by hardware and
	// available to language runtimes (CST uses them for object classes).
	TagUser0
	TagUser1
	TagUser2
	TagUser3
	TagUser4
	TagUser5

	// NumTags is the number of distinct tag values (4 bits).
	NumTags = 16
)

var tagNames = [NumTags]string{
	"int", "bool", "sym", "ip", "addr", "msg", "ptr", "node",
	"cfut", "fut", "user0", "user1", "user2", "user3", "user4", "user5",
}

// String returns the architecture-manual name of the tag.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return fmt.Sprintf("tag%d", uint8(t))
}

// Word is one 36-bit tagged machine word, packed as tag<<32 | data.
type Word uint64

const (
	dataMask = 0xFFFFFFFF
	tagShift = 32
	tagMask  = 0xF
)

// New packs a tag and 32 bits of data into a Word.
func New(t Tag, data int32) Word {
	return Word(uint64(t&tagMask)<<tagShift | uint64(uint32(data)))
}

// Int returns an integer-tagged word.
func Int(v int32) Word { return New(TagInt, v) }

// Bool returns a boolean-tagged word.
func Bool(v bool) Word {
	if v {
		return New(TagBool, 1)
	}
	return New(TagBool, 0)
}

// Sym returns a symbol-tagged word.
func Sym(v int32) Word { return New(TagSym, v) }

// IP returns an instruction-pointer word.
func IP(addr int32) Word { return New(TagIP, addr) }

// Cfut returns the canonical cfut (awaiting-value) word. The data field
// may identify the consumer to restart; zero means "no waiter".
func Cfut(waiter int32) Word { return New(TagCfut, waiter) }

// Fut returns a future word whose data field names the future object.
func Fut(id int32) Word { return New(TagFut, id) }

// Tag extracts the 4-bit type tag.
func (w Word) Tag() Tag { return Tag(w >> tagShift & tagMask) }

// Data extracts the 32-bit data field as a signed integer.
func (w Word) Data() int32 { return int32(uint32(w & dataMask)) }

// UData extracts the 32-bit data field as an unsigned integer.
func (w Word) UData() uint32 { return uint32(w & dataMask) }

// WithTag returns the word with its tag replaced (the WTAG instruction).
func (w Word) WithTag(t Tag) Word {
	return Word(uint64(t&tagMask)<<tagShift | uint64(w&dataMask))
}

// WithData returns the word with its data field replaced.
func (w Word) WithData(v int32) Word {
	return Word(w&^Word(dataMask) | Word(uint32(v)))
}

// IsPresent reports whether the word holds a real value, i.e. neither
// presence tag (cfut/fut) is set. Reading a non-present word with a
// consuming operation raises a synchronization fault in the MDP.
func (w Word) IsPresent() bool {
	t := w.Tag()
	return t != TagCfut && t != TagFut
}

// IsCfut reports whether the word carries the cfut presence tag.
func (w Word) IsCfut() bool { return w.Tag() == TagCfut }

// IsFut reports whether the word carries the fut presence tag.
func (w Word) IsFut() bool { return w.Tag() == TagFut }

// Truthy reports whether a word is considered true by conditional
// branches: any word whose data field is non-zero.
func (w Word) Truthy() bool { return w.UData() != 0 }

// String renders the word as tag:data for diagnostics.
func (w Word) String() string {
	return fmt.Sprintf("%s:%d", w.Tag(), w.Data())
}

// MsgHeader builds a message header word. The first word of every MDP
// message contains the address of the code to run at the destination and
// the length of the message: the low 24 bits of data carry the handler IP
// and the high 8 bits carry the message length in words.
func MsgHeader(handlerIP int32, length int) Word {
	return New(TagMsg, int32(length&0xFF)<<24|handlerIP&0xFFFFFF)
}

// HeaderIP extracts the handler instruction pointer from a header word.
func (w Word) HeaderIP() int32 { return w.Data() & 0xFFFFFF }

// HeaderLen extracts the message length in words from a header word.
func (w Word) HeaderLen() int { return int(uint32(w.Data()) >> 24) }

// Node packs x,y,z router coordinates into a node-address word (one byte
// per dimension, as the MDP's relative-addressing hardware does).
func Node(x, y, z int) Word {
	return New(TagNode, int32(x&0xFF)|int32(y&0xFF)<<8|int32(z&0xFF)<<16)
}

// NodeXYZ unpacks router coordinates from a node-address word.
func (w Word) NodeXYZ() (x, y, z int) {
	d := w.UData()
	return int(d & 0xFF), int(d >> 8 & 0xFF), int(d >> 16 & 0xFF)
}
