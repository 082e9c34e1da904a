// Package jml005 is a jm-lint fixture: undeclared cycle hooks (JML005).
package jml005

type Machine struct{}

func (m *Machine) AddCycleHook(fn func(int64), hz func() int64) {}

func horizon() int64 { return 0 }

// Bad: a hook registration without its horizon-cost declaration.
func installBad(m *Machine) {
	m.AddCycleHook(func(int64) {}, horizon) // want JML005
}

// Bad: the annotation alone, with no rationale, is not a declaration.
func installBare(m *Machine) {
	m.AddCycleHook(func(int64) {}, horizon) /* want JML005 */ //jm:horizon
}

// Good: annotated call sites, trailing or preceding.
func installGood(m *Machine) {
	m.AddCycleHook(func(int64) {}, horizon) //jm:horizon fixture hook acts only on horizon()
	//jm:horizon fixture hook's next effect is bounded by horizon()
	m.AddCycleHook(func(int64) {}, horizon)
}

// Good: a forwarding wrapper named like the registrar is the
// mechanism, not a use.
type Wrapper struct{ m *Machine }

func (w *Wrapper) AddCycleHook(fn func(int64), hz func() int64) { w.m.AddCycleHook(fn, hz) }
