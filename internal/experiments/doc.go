// Package experiments regenerates every empirical claim of the paper —
// one experiment per theorem/lemma/observation with quantitative content,
// printed by go run ./cmd/experiments.  The paper has
// no numbered tables or figures (it is a theory paper), so these tables ARE
// its evaluation: pass counts, capacities and failure probabilities,
// measured on the PDM simulator.
//
// cmd/experiments prints the full set; bench_test.go wraps each experiment
// in a benchmark so `go test -bench` regenerates them too.
package experiments
