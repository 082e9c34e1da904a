package sim

import "jmachine/internal/machine"

// SetAttachHook hands fn every machine attached until the returned
// restore function runs. Not safe for parallel tests.
func SetAttachHook(fn func(*machine.Machine)) (restore func()) {
	old := attachHook
	attachHook = fn
	return func() { attachHook = old }
}
