// A module of its own, so that the benchmark builds from this directory
// with its own build file; it is still inside the jmachine import tree,
// which is what lets it import jmachine/internal/...
module jmachine/benchmark

go 1.22

require jmachine v0.0.0

replace jmachine => ../
