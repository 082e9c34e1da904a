package engine

// SetParallelWork overrides the inline/parallel work threshold for
// engines attached until the returned restore function runs.
// ParallelWork = 1 is the "eager" policy of the equivalence matrix:
// any cycle with two active shards engages the worker fleet, which is
// the only way to exercise the parallel phases on the 8-node meshes the
// suites run. Not safe for parallel tests.
func SetParallelWork(n int64) (restore func()) {
	old := parallelWork
	parallelWork = n
	return func() { parallelWork = old }
}
