// Package report renders the plain-text tables produced by the experiment
// harness (go run ./cmd/experiments) and the benchmark suite.  Every
// experiment is a Table; keeping the rendering in one place guarantees the
// harness and the benchmarks print the same format.  Rendering is pure
// formatting: it performs no I/O on any pdm machine and charges nothing.
package report
