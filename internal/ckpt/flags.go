package ckpt

import (
	"errors"
	"flag"

	"jmachine/internal/machine"
)

// Flags is the checkpoint part of a run configuration (sim.Config.Ckpt):
// the -ckpt / -ckpt-every / -resume trio, which internal/sim registers,
// validates and attaches together with the mode fields.
type Flags struct {
	Path   string // checkpoint file ("" = checkpointing off)
	Every  int64  // checkpoint period in cycles
	Resume bool   // restore Path over the fresh machine and continue
}

// DefaultEvery is the default checkpoint period in cycles.
const DefaultEvery = 65536

// Register installs the three flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Path, "ckpt", "", "write periodic crash-consistent checkpoints to this file")
	fs.Int64Var(&f.Every, "ckpt-every", DefaultEvery, "checkpoint period in cycles")
	fs.BoolVar(&f.Resume, "resume", false,
		"restore the -ckpt file over the fresh machine and continue from it")
}

// Validate reports the flag-combination error.
func (f Flags) Validate() error {
	if f.Resume && f.Path == "" {
		return errors.New("-resume requires -ckpt")
	}
	return nil
}

// Layers is a machine's attached checkpoint stack: the saver list that
// must restore in attachment order, plus the periodic writer when a
// path is configured.
type Layers struct {
	Flags  Flags
	Savers []Saver
	CW     *Checkpointer // nil when Flags.Path == ""
	m      *machine.Machine
}

// Attach records the layer stack for m and, when a checkpoint path is
// set, installs the periodic writer. Call it after every Saver layer
// (runtime, reliable delivery, chaos, application state) is attached
// to the machine, passing the savers in attachment order.
func (f Flags) Attach(m *machine.Machine, savers ...Saver) *Layers {
	l := &Layers{Flags: f, Savers: savers, m: m}
	if f.Path != "" {
		l.CW = AttachWriter(m, f.Path, f.Every, savers...)
	}
	return l
}

// PreRun finalizes start-up, right before the run loop: on a resumed
// run it restores the checkpoint over the freshly-started machine
// (workload start-up must already be applied — see Restore), and on a
// fresh run it seeds the file with cycle-zero state so a crash at any
// point leaves something to resume. No-op when checkpointing is off.
func (l *Layers) PreRun() error {
	if l.Flags.Path == "" {
		return nil
	}
	if l.Flags.Resume {
		return RestoreFile(l.Flags.Path, l.m, l.Savers...)
	}
	return l.CW.WriteNow()
}

// WriteNow forces an immediate checkpoint (no-op when off).
func (l *Layers) WriteNow() error {
	if l.CW == nil {
		return nil
	}
	return l.CW.WriteNow()
}
