package plan

import (
	"math"
	"testing"
)

// TestGroupByBaselinePricesPermutation pins group-by's sort-then-scan
// baseline on a payload column: the record sort's key passes plus its
// payload permutation passes, as words moved per padded word of the
// route.  At M=1024, D=8, n=6000, pairWords=2 the chosen record sort is
// lmm3 (3 key passes over 6144 padded keys) with a one-level permutation
// (4 passes over the 6144-word payload store), and the route streams
// padStripe(12000) = 12032 words.
func TestGroupByBaselinePricesPermutation(t *testing.T) {
	shape := shapeFor(1024)
	p := GroupByPlan(shape, 6000, 6000, 2)
	if p.PaddedN != 12032 || p.FullSortAlg != LMM3 {
		t.Fatalf("plan %+v, want 12032 padded words against lmm3", p)
	}
	want := (3*6144 + 4*6144) / 12032.0
	if math.Abs(p.FullSortReadPasses-want) > 1e-12 {
		t.Fatalf("FullSortReadPasses = %.6f, want (3·6144 + 4·6144)/12032 = %.6f", p.FullSortReadPasses, want)
	}
	if p.Route != "partition" || !p.UseScenario {
		t.Fatalf("plan %+v, want the partition route to win", p)
	}

	// Bare keys carry no permutation: the baseline is the key sort alone.
	if p := GroupByPlan(shape, 6000, 6000, 1); p.FullSortReadPasses != 3 {
		t.Fatalf("bare-key baseline = %.6f, want 3", p.FullSortReadPasses)
	}
}
