// Package sim holds the one description of how a simulated machine is
// run — which stepping mode, handler tier, observability sinks and
// checkpoint file — and the one place that applies it.
// Experiments (internal/bench), serve sessions and every cmd/jm-*
// binary hold a Config and call Attach; none of them wires a layer by
// hand, so a knob set on the command line cannot be dropped on the way
// to a machine. docs/ENGINE.md ("Run configuration") is the reference.
package sim

import (
	"flag"
	"fmt"

	"jmachine/internal/ckpt"
	"jmachine/internal/compiled"
	"jmachine/internal/machine"
	"jmachine/internal/obs"
	"jmachine/internal/rt"
)

// Config describes one run. The zero value is the default everywhere:
// event-horizon fast path, interpreted handlers, no observability, no
// checkpoints. Every field is digest-neutral —
// StateDigest, cycle counts and obs trace bytes are identical across
// all settings (sim_test.go holds the table that proves it).
type Config struct {
	// Reference selects the oracle: the literal every-node-every-cycle
	// loop.
	Reference bool
	// Compiled installs the compiled handler tier (docs/COMPILED.md).
	Compiled bool
	// Obs, when non-nil, streams a Perfetto timeline and/or JSONL
	// metric snapshots from the machine. A run that attaches several
	// machines gets numbered files (trace.json, trace.json.2, …).
	Obs *obs.Options
	// Ckpt configures periodic crash-consistent checkpoints and resume.
	Ckpt ckpt.Flags
}

// Register declares the run-configuration flags on fs: -reference, -compiled, -ckpt, -ckpt-every, -resume. A command that
// cannot honour one of them (jm-tables steps many machines per
// experiment) names it in omit, so no binary accepts a flag it would
// ignore.
func (c *Config) Register(fs *flag.FlagSet, omit ...string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.BoolVar(&c.Reference, "reference", false,
		"run the oracle: every-node-every-cycle loop (results are byte-identical)")
	all.BoolVar(&c.Compiled, "compiled", false,
		"execute handlers through the compiled tier (results are byte-identical)")
	c.Ckpt.Register(all)
	all.VisitAll(func(f *flag.Flag) {
		for _, name := range omit {
			if name == f.Name {
				return
			}
		}
		fs.Var(f.Value, f.Name, f.Usage)
	})
}

// Validate reports the configuration errors shared by every command.
func (c Config) Validate() error {
	return c.Ckpt.Validate()
}

// Run is the handle of an attached configuration.
type Run struct {
	// Layers is the checkpoint stack (WriteNow forces a checkpoint).
	Layers *ckpt.Layers

	stopObs func() error
	err     error // a Hooks Setup failure, reported by PreRun
}

// attachHook, when non-nil, sees every machine Attach configures, once
// its layers are on. It is a variable only so
// export_test.go can check machine invariants inside runs the
// equivalence table reaches through other packages.
var attachHook func(*machine.Machine)

// Attach applies c to m in the canonical order: stepping mode, compiled
// tier, checkpoint layers (savers in attachment order, after every
// layer that owns state is on the machine), then observability. The
// caller must Stop the returned run once the run loops have returned.
func (c Config) Attach(m *machine.Machine, savers ...ckpt.Saver) (*Run, error) {
	if c.Reference {
		m.SetFastPath(false)
	}
	if c.Compiled {
		// No silent fallback to the interpreter: it would turn every
		// compiled-tier equivalence check into a tautology.
		if err := compiled.Attach(m, rt.CheckAllowances()...); err != nil {
			return nil, fmt.Errorf("compiled tier: %w", err)
		}
	}
	r := &Run{Layers: c.Ckpt.Attach(m, savers...), stopObs: c.Obs.AttachTo(m)}
	if attachHook != nil {
		attachHook(m)
	}
	return r, nil
}

// PreRun finalizes start-up, right before the run loop and after the
// workload's own start-up: it restores the checkpoint on a resumed run
// and seeds the file on a fresh one (see ckpt.Layers.PreRun).
func (r *Run) PreRun() error {
	if r.err != nil {
		return r.err
	}
	return r.Layers.PreRun()
}

// Stop drains and closes the observability sinks, returning their
// first write error. Idempotent and nil-safe.
func (r *Run) Stop() error {
	if r == nil || r.stopObs == nil {
		return nil
	}
	err := r.stopObs()
	r.stopObs = nil
	return err
}

// Hooks returns the Setup/PreRun pair the four applications' Params
// take, and the run they fill in; Stop it once the application's Run
// returns (safe even if Run failed before calling Setup). Setup attaches
// c with the application's runtime as the first saver. layers, when
// non-nil, runs first and returns the savers of whatever the caller
// adds between the runtime and the configuration (reliable delivery, a
// chaos injector). Setup cannot fail, so an Attach error surfaces from
// PreRun, which every application calls before its run loop.
func (c Config) Hooks(layers func(*machine.Machine, *rt.Runtime) []ckpt.Saver) (*Run, func(*machine.Machine, *rt.Runtime), func(*machine.Machine) error) {
	run := &Run{}
	setup := func(m *machine.Machine, r *rt.Runtime) {
		savers := []ckpt.Saver{r}
		if layers != nil {
			savers = append(savers, layers(m, r)...)
		}
		attached, err := c.Attach(m, savers...)
		if err != nil {
			run.err = err
			return
		}
		*run = *attached
	}
	preRun := func(*machine.Machine) error { return run.PreRun() }
	return run, setup, preRun
}
