package serve

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"

	"jmachine/internal/ckpt/wire"
)

// The request journal (docs/SERVE.md, "Persistence"): journalMagic,
// then one frame per committed request,
//
//	u32 n | u32 ^n | u32 crc32(payload) | payload[n]
//
// with payload = u64 seq | i64 cycle | i64 step | i64 run | ops, in the
// wire encoding, each op (u8 kind, i32 key, i32 value).
const (
	journalMagic  = "JMSERVE-JOURNAL-1\n"
	journalHeader = 12
)

// ErrJournal marks a session whose journal cannot reproduce its
// acknowledged requests: damaged or missing, a hole in the sequence, or
// a replay that left the recorded trajectory. Only that session fails.
var ErrJournal = errors.New("serve: journal")

// record is one committed request: its number in the session's life
// (from 1), the machine's cycle once it was served, and the request.
type record struct {
	seq   uint64
	cycle int64
	req   ReplayReq
}

// encode returns the record's frame.
func (r record) encode() []byte {
	e := &wire.Encoder{}
	e.U64(r.seq)
	e.I64(r.cycle)
	e.I64(r.req.Step)
	e.I64(r.req.Run)
	for _, op := range r.req.Ops {
		e.U8(uint8(op.Op))
		e.I32(op.Key)
		e.I32(op.Value)
	}
	p := e.Bytes()
	f := &wire.Encoder{}
	f.U32(uint32(len(p)))
	f.U32(^uint32(len(p)))
	f.U32(crc32.ChecksumIEEE(p))
	return append(f.Bytes(), p...)
}

func decodeRecord(p []byte) (record, error) {
	d := wire.NewDecoder(p)
	r := record{seq: d.U64(), cycle: d.I64(), req: ReplayReq{Step: d.I64(), Run: d.I64()}}
	if n := d.Remaining() / 9; n > 0 {
		r.req.Ops = make([]KVOp, n)
	}
	for i := range r.req.Ops {
		r.req.Ops[i] = KVOp{Op: OpKind(d.U8()), Key: d.I32(), Value: d.I32()}
	}
	if d.Err() == nil && d.Remaining() != 0 {
		d.Fail("%d trailing bytes", d.Remaining())
	}
	return r, d.Err()
}

// scanJournal decodes b's records and returns them with the length of
// the prefix they occupy. A last frame the file ends inside, or whose
// checksum fails, is the torn tail of an append never acknowledged: the
// scan ends before it without error. Damage with bytes after it, which
// no interrupted append leaves, is ErrJournal. A file that ends inside
// the magic string is a journal nothing was appended to.
func scanJournal(b []byte) ([]record, int, error) {
	if len(b) < len(journalMagic) && strings.HasPrefix(journalMagic, string(b)) {
		return nil, 0, nil
	}
	if len(b) < len(journalMagic) || string(b[:len(journalMagic)]) != journalMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrJournal)
	}
	var recs []record
	off := len(journalMagic)
	for len(b)-off >= journalHeader {
		d := wire.NewDecoder(b[off:])
		n, inv, sum := d.U32(), d.U32(), d.U32()
		if n != ^inv {
			return recs, off, fmt.Errorf("%w: damaged frame header at byte %d", ErrJournal, off)
		}
		end := off + journalHeader + int(n)
		if end > len(b) {
			break
		}
		rec, err := record{}, errors.New("checksum mismatch")
		if p := b[off+journalHeader : end]; crc32.ChecksumIEEE(p) == sum {
			rec, err = decodeRecord(p)
		}
		if err != nil && end == len(b) {
			break
		}
		if err != nil {
			return recs, off, fmt.Errorf("%w: record at byte %d: %v", ErrJournal, off, err)
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, off, nil
}

// journal is a session's open journal file.
type journal struct {
	f    *os.File
	size int64 // length of the valid prefix: where the next frame goes
	torn bool  // the file holds bytes past size: cut them before appending
}

// openJournal reads a journal and returns its records. It writes
// nothing, so a second manager can recover a live directory.
func openJournal(path string) (*journal, []record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	recs, n, err := scanJournal(b)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	return &journal{f: f, size: int64(n), torn: n < len(b)}, recs, nil
}

// append writes one frame (behind the magic string, if first) and syncs.
func (j *journal) append(frame []byte) error {
	if j.torn {
		if err := j.f.Truncate(j.size); err != nil {
			return err
		}
		j.torn = false
	}
	if j.size == 0 {
		frame = append([]byte(journalMagic), frame...)
	}
	if _, err := j.f.WriteAt(frame, j.size); err != nil {
		return err
	}
	j.size += int64(len(frame))
	return j.f.Sync()
}

// reset drops every record: the checkpoint just written covers them.
// Not synced: if the truncation is lost, replay skips them by seq. If it
// fails, the next append cuts the records off first.
func (j *journal) reset() error {
	j.size = min(j.size, int64(len(journalMagic)))
	err := j.f.Truncate(j.size)
	j.torn = err != nil
	return err
}
