// Package ckpt is the deterministic checkpoint/restore layer: it
// captures a machine's complete simulation state (plus the attached
// system-software and fault-injection layers) into a versioned,
// checksummed snapshot, writes it crash-consistently, and restores it
// into a freshly constructed process so that continuing the run
// produces a final StateDigest byte-identical to a run that was never
// interrupted.
//
// A snapshot is a list of named sections. The "machine" section —
// cycle, watchdog, parking state, network, every node — is always
// first; each additional attached layer (the runtime, the reliable
// protocol, the chaos injector) contributes its own section through
// the Saver interface. At restore time the section names must match
// the attached layers exactly, which catches restoring into a
// differently configured process before any bytes are interpreted.
package ckpt

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"jmachine/internal/ckpt/wire"
)

// Magic identifies a checkpoint file and pins the container version;
// section payloads carry their own format tags.
const Magic = "JMCKPT1\n"

// maxSectionName bounds section-name frames (sanity check on decode).
const maxSectionName = 256

// Section is one named state blob.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is a decoded checkpoint: an ordered list of sections.
type Snapshot struct {
	Sections []Section
}

// Names returns the section names in order.
func (s *Snapshot) Names() []string {
	names := make([]string, len(s.Sections))
	for i := range s.Sections {
		names[i] = s.Sections[i].Name
	}
	return names
}

// Encode renders the snapshot in the container format: magic, section
// count, then per section a name, a payload, and a CRC-32 over both.
// Every multi-byte integer is little-endian via the wire codec.
func (s *Snapshot) Encode() []byte {
	e := &wire.Encoder{}
	e.U32(uint32(len(s.Sections)))
	for i := range s.Sections {
		sec := &s.Sections[i]
		e.String(sec.Name)
		e.Blob(sec.Data)
		crc := crc32.ChecksumIEEE([]byte(sec.Name))
		crc = crc32.Update(crc, crc32.IEEETable, sec.Data)
		e.U32(crc)
	}
	return append([]byte(Magic), e.Bytes()...)
}

// Decode parses a checkpoint container. Truncated input, bad magic,
// mismatched checksums, and trailing garbage all return a descriptive
// error; Decode never panics on malformed input.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(Magic) || string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("ckpt: not a checkpoint file (bad magic)")
	}
	d := wire.NewDecoder(b[len(Magic):])
	n := d.U32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	snap := &Snapshot{}
	for i := uint32(0); i < n; i++ {
		name := d.String()
		data := d.Blob()
		crc := d.U32()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("ckpt: section %d: %w", i, err)
		}
		if len(name) == 0 || len(name) > maxSectionName {
			return nil, fmt.Errorf("ckpt: section %d: invalid name length %d", i, len(name))
		}
		want := crc32.ChecksumIEEE([]byte(name))
		want = crc32.Update(want, crc32.IEEETable, data)
		if crc != want {
			return nil, fmt.Errorf("ckpt: section %q: checksum mismatch (file corrupted)", name)
		}
		// Blob aliases the input; copy so the snapshot owns its bytes.
		snap.Sections = append(snap.Sections, Section{Name: name, Data: append([]byte(nil), data...)})
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("ckpt: %d bytes of trailing garbage after last section", d.Remaining())
	}
	return snap, nil
}

// WriteFile writes the snapshot crash-consistently: the bytes go to a
// temp file in the destination directory, are fsynced, and are renamed
// over the destination atomically; the directory is fsynced so the
// rename survives a crash. A reader therefore sees either the old
// checkpoint or the complete new one, never a torn write.
func WriteFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(s.Encode()); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if df, err := os.Open(dir); err == nil {
		df.Sync()
		df.Close()
	}
	return nil
}

// ReadFile loads and validates a checkpoint file.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	return s, nil
}
