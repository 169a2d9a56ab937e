package plan

import (
	"fmt"

	"repro/internal/memsort"
)

// This file prices the query scenarios that avoid a full sort: top-K /
// quantile selection (one filtering pass over a sampled threshold window),
// external group-by (hash aggregation, one pass when the groups fit in
// memory, a partition round trip otherwise), and sorted-merge ingest
// (sort the new batch, then one StreamMerge pass over old + new).  The
// runtime (internal/scenario and the repro facade) uses the exact same
// formulas, so a plan's ReadSteps/WriteSteps are the steps a run charges.

// ScenarioPlan is the planner's answer for one query scenario, in the
// same pass currency as Candidate: steps are parallel I/O steps, passes
// are steps·stripe/PaddedN.
type ScenarioPlan struct {
	Kind     string // "topk", "quantile", "groupby", "ingest"
	Feasible bool
	Reason   string // why not, when infeasible

	// PaddedN is the scenario's accounting denominator: the padded words
	// the pass counts are relative to.
	PaddedN     int
	ReadSteps   int64
	WriteSteps  int64
	ReadPasses  float64
	WritePasses float64

	// Exact reports that ReadSteps/WriteSteps are step-exact predictions
	// (a non-fallback run charges exactly these).  Group-by partition
	// routes are floors, not promises.
	Exact bool

	// Sample and Budget expose the selection scenario's knobs: the client
	// sample size and the worst-case survivor budget the filter pass must
	// hold in memory.  Zero for groupby/ingest.
	Sample int
	Budget int

	// Route names the chosen strategy within the scenario ("filter",
	// "onepass", "partition", "merge", "fullsort" when the scenario
	// degenerates to sorting).
	Route string

	// FullSortAlg and FullSortReadPasses price the "just sort everything"
	// alternative the scenario is competing with (the chosen candidate's
	// prediction over the same keys; for group-by, the record sort's key
	// and permutation passes over the route's padded words).
	FullSortAlg        Alg
	FullSortReadPasses float64

	// UseScenario is the Auto decision: the scenario route costs strictly
	// fewer predicted read passes than the full sort, or no full sort fits.
	UseScenario bool
}

// SelectCap is the survivor capacity of the filter pass: one stripe of the
// arena streams the input, the rest holds survivors.
func SelectCap(mem, stripe int) int {
	c := mem - stripe
	if c < 0 {
		return 0
	}
	return c
}

// SelectSample is the deterministic client-side sample size for selecting
// rank r out of n: a Floyd–Rivest-style s = 16·n^(2/3), clamped to
// [256, n].  The sample is metadata (the coordinator samples the same way
// in the distributed sort); only the filter pass is charged I/O.
func SelectSample(n int) int {
	if n <= 256 {
		return n
	}
	s := 16 * icbrt(int64(n)*int64(n))
	if s < 256 {
		s = 256
	}
	if s > n {
		s = n
	}
	return s
}

// SelectDelta is the rank slack the threshold window allows around target
// rank r (1 ≤ r ≤ n): two binomial standard deviations of the sampled
// rank estimate plus the sample grid granularity, floored at 32.  With
// s = SelectSample(n) the true rank lands inside ±Δ with overwhelming
// probability; a miss is detected and falls back to the full sort.
func SelectDelta(n, r int) int {
	s := SelectSample(n)
	if s >= n {
		return 1 // exact: the sample is the input
	}
	sigma := memsort.Isqrt(int(int64(r) * int64(n-r) / int64(s)))
	delta := 2*sigma + n/s + 32
	return delta
}

// TopKBudget is the worst-case survivor count of a top-K filter pass: the
// K wanted keys plus the threshold window's slack.
func TopKBudget(n, k int) int {
	return k + 2*SelectDelta(n, k)
}

// QuantileBudget is the worst-case survivor count of a quantile filter
// pass: both window edges carry slack.
func QuantileBudget(n, r int) int {
	return 4*SelectDelta(n, r) + 64
}

// GroupCap is the in-memory aggregation capacity: distinct groups one
// memory load of accumulator state holds (key + accumulator + count ≈
// 4 words with hashing overhead).
func GroupCap(mem int) int {
	c := mem / 2
	if c < 1 {
		c = 1
	}
	return c
}

// padStripe pads n keys to a whole number of stripes, the scenario
// stripes' layout (streamed passes then charge exactly padded/stripe
// steps per pass).
func padStripe(n, stripe int) int {
	if n <= 0 {
		return 0
	}
	return memsort.CeilDiv(n, stripe) * stripe
}

// fullSortBaseline prices the "just sort everything" alternative: the
// chosen candidate's predicted read passes over its own padded length
// (preferring the exact count when the geometry is regular), and that
// padded length.
func fullSortBaseline(shape Shape, w Workload) (Alg, float64, int) {
	alg, err := Choose(shape, w)
	if err != nil {
		return "", 0, 0
	}
	rep, err := Explain(shape, w, DefaultCalibration(shape))
	if err != nil {
		return "", 0, 0
	}
	c := rep.Candidate(alg)
	if c == nil || !c.Feasible {
		return "", 0, 0
	}
	read := c.ReadPasses
	if r, _, ok := ExactPasses(shape, w, alg); ok {
		read = r
	}
	return alg, read, c.PaddedN
}

// price derives the plan's passes from its steps over PaddedN and makes
// the Auto decision: the scenario route must cost strictly fewer predicted
// read passes than the full sort, which costs without bound when no
// candidate can sort the input at all.
func (p *ScenarioPlan) price(stripe int) {
	p.ReadPasses = float64(p.ReadSteps) * float64(stripe) / float64(p.PaddedN)
	p.WritePasses = float64(p.WriteSteps) * float64(stripe) / float64(p.PaddedN)
	p.UseScenario = p.FullSortAlg == "" || p.ReadPasses < p.FullSortReadPasses
}

// TopKPlan prices extracting the K smallest keys of n: one charged
// filtering pass at a sampled threshold, survivors sorted in memory, the
// K results written out — against the chosen full sort.
func TopKPlan(shape Shape, w Workload, k int) ScenarioPlan {
	if k <= 0 || k > w.N {
		return selectPlan(shape, w, "topk", fmt.Sprintf("k = %d outside [1, %d]", k, w.N), 0, 0)
	}
	kblocks := memsort.CeilDiv(k, shape.B)
	return selectPlan(shape, w, "topk", "", TopKBudget(w.N, k), int64(memsort.CeilDiv(kblocks, shape.D)))
}

// QuantilePlan prices selecting the key of 1-indexed rank r out of n: one
// charged filtering pass keeping a window around the sampled rank, the
// answer read out of the sorted window.  No output stripe is written.
func QuantilePlan(shape Shape, w Workload, r int) ScenarioPlan {
	if r < 1 || r > w.N {
		return selectPlan(shape, w, "quantile", fmt.Sprintf("rank %d outside [1, %d]", r, w.N), 0, 0)
	}
	return selectPlan(shape, w, "quantile", "", QuantileBudget(w.N, r), 0)
}

// selectPlan is the selection pricer behind TopKPlan and QuantilePlan: one
// charged read pass over the stripe-padded input, feasible when the
// worst-case survivor budget fits SelectCap, plus writeSteps to write the
// result out.  A non-empty badRank is the reason the rank is out of range.
func selectPlan(shape Shape, w Workload, kind, badRank string, budget int, writeSteps int64) ScenarioPlan {
	p := ScenarioPlan{Kind: kind, Route: "filter", Reason: badRank}
	stripe := shape.Stripe()
	p.PaddedN = padStripe(w.N, stripe)
	p.FullSortAlg, p.FullSortReadPasses, _ = fullSortBaseline(shape, w)
	if badRank != "" {
		return p
	}
	p.Sample = SelectSample(w.N)
	p.Budget = budget
	if cap := SelectCap(shape.Mem, stripe); budget > cap {
		p.Reason = fmt.Sprintf("survivor budget %d exceeds memory capacity %d", budget, cap)
		p.Route = "fullsort"
		return p
	}
	p.Feasible = true
	p.Exact = true
	p.ReadSteps = int64(p.PaddedN / stripe)
	p.WriteSteps = writeSteps
	p.price(stripe)
	return p
}

// GroupByPlan prices aggregating n records (pairWords words each: 1 for
// bare keys, 2 for key+value) into `groups` distinct groups: one charged
// read pass when the groups fit GroupCap(M), a hash-partition round trip
// (read + scatter write + per-partition read-back) when they fit the
// fanout's combined capacity, and the sort-then-scan route beyond that.
// The sort-then-scan baseline is a record sort carrying the payload
// column: the key sort's passes plus the payload permutation's, both
// expressed over the route's padded words so the two compare like for
// like.  Only the one-pass route is step-exact: partition padding depends
// on the hash split, and the sort route inherits the sort's own
// variability.
func GroupByPlan(shape Shape, n, groups, pairWords int) ScenarioPlan {
	p := ScenarioPlan{Kind: "groupby"}
	stripe := shape.Stripe()
	if pairWords != 1 && pairWords != 2 {
		p.Reason = fmt.Sprintf("pairWords = %d (want 1 or 2)", pairWords)
		return p
	}
	if n <= 0 {
		p.Reason = "empty input"
		return p
	}
	if groups <= 0 || groups > n {
		groups = n
	}
	p.PaddedN = padStripe(n*pairWords, stripe)
	cap := GroupCap(shape.Mem)
	p.FullSortAlg, p.FullSortReadPasses = groupBySortBaseline(shape, n, pairWords, p.PaddedN)
	p.Feasible = true
	switch {
	case groups <= cap:
		p.Route = "onepass"
		p.Exact = true
		p.ReadSteps = int64(p.PaddedN / stripe)
	case groups <= partitionCount(groups, shape)*cap:
		p.Route = "partition"
		parts := partitionCount(groups, shape)
		// One full read, the scatter write (plus up to one padding block
		// per partition), and the partition read-back.
		blocks := p.PaddedN / shape.B
		p.ReadSteps = int64(p.PaddedN/stripe) + int64(memsort.CeilDiv(blocks+parts, shape.D))
		p.WriteSteps = int64(memsort.CeilDiv(blocks+parts, shape.D))
	default:
		// More groups than one partition round trip can table: sort the
		// records and scan.  The prediction is the sort's (a floor).
		p.Route = "fullsort"
		if p.FullSortAlg == "" {
			p.Feasible = false
			p.Reason = fmt.Sprintf("no candidate sorts %d records", n)
			return p
		}
		p.ReadPasses, p.WritePasses = p.FullSortReadPasses, p.FullSortReadPasses
		p.ReadSteps = int64(p.FullSortReadPasses * float64(p.PaddedN) / float64(stripe))
		p.WriteSteps = p.ReadSteps
		return p
	}
	p.price(stripe)
	return p
}

// groupBySortBaseline prices group-by's sort-then-scan alternative over
// the route's paddedWords: the chosen record sort's key passes over its
// padded keys plus its payload permutation passes over the padded payload
// store (pairWords−1 words per record), as words moved per padded word.
func groupBySortBaseline(shape Shape, n, pairWords, paddedWords int) (Alg, float64) {
	payload := (pairWords - 1) * n
	alg, keyRead, keyPadded := fullSortBaseline(shape, Workload{N: n, PayloadWords: payload})
	if alg == "" {
		return "", 0
	}
	storeWords, _, permute := PermutePlan(payload, shape.Mem, shape.B, shape.Stripe())
	return alg, (keyRead*float64(keyPadded) + permute*float64(storeWords)) / float64(paddedWords)
}

// PartitionFanout is the hash fanout the group-by partition route uses
// for this many groups — exported so the runtime counts partition sizes
// with exactly the fanout the plan priced.
func PartitionFanout(groups int, shape Shape) int {
	return partitionCount(groups, shape)
}

// partitionCount is the hash fanout of the group-by partition route:
// enough partitions that each holds ≤ GroupCap(M) expected groups,
// bounded by the block-buffer fanout M/B (one staged block per partition).
func partitionCount(groups int, shape Shape) int {
	maxF := shape.Mem / shape.B
	if maxF < 2 {
		maxF = 2
	}
	parts := memsort.CeilDiv(groups, GroupCap(shape.Mem))
	if parts < 2 {
		parts = 2
	}
	if parts > maxF {
		parts = maxF
	}
	return parts
}

// IngestPlan prices folding a sorted batch of `batch` keys into an
// already-sorted dataset of n keys: the planner-chosen sort of the batch
// alone, then one StreamMerge pass reading both sorted inputs and writing
// the merged output — against re-sorting all n+batch keys.
func IngestPlan(shape Shape, w Workload, batch int) ScenarioPlan {
	n := w.N
	p := ScenarioPlan{Kind: "ingest", Route: "merge"}
	stripe := shape.Stripe()
	full := w
	full.N = n + batch
	p.FullSortAlg, p.FullSortReadPasses, _ = fullSortBaseline(shape, full)
	if n < 0 || batch <= 0 {
		p.Reason = fmt.Sprintf("bad sizes: dataset %d, batch %d", n, batch)
		return p
	}
	if 3*stripe > shape.Mem {
		p.Reason = fmt.Sprintf("merge needs 3 stripe buffers, D*B = %d too large for M = %d", stripe, shape.Mem)
		return p
	}
	// The batch sort, priced exactly when its geometry is regular.
	batchAlg, batchRead, _ := fullSortBaseline(shape, Workload{N: batch, Universe: w.Universe})
	if batchAlg == "" {
		p.Reason = fmt.Sprintf("no candidate sorts the %d-key batch", batch)
		return p
	}
	br, bw, exact := ExactPasses(shape, Workload{N: batch, Universe: w.Universe}, batchAlg)
	if !exact {
		br, bw = batchRead, batchRead
	}
	batchPadded, err := PadFor(shape.Mem, batchAlg, batch)
	if err != nil {
		p.Reason = err.Error()
		return p
	}
	padA := padStripe(n, stripe)
	padB := padStripe(batch, stripe)
	p.PaddedN = padA + padB
	p.Feasible = true
	p.Exact = exact
	mergeSteps := int64(p.PaddedN / stripe)
	p.ReadSteps = int64(br*float64(batchPadded)/float64(stripe)) + mergeSteps
	p.WriteSteps = int64(bw*float64(batchPadded)/float64(stripe)) + mergeSteps
	p.price(stripe)
	return p
}

// ScenarioDiskEnvelope is the scratch-stripe budget a scenario job needs,
// in keys (words): inputs, outputs, and the partition stripes of the
// group-by route, with one stripe of slack like DiskEnvelope.
func ScenarioDiskEnvelope(kind string, shape Shape, n, batch, pairWords int) int {
	stripe := shape.Stripe()
	switch kind {
	case "topk", "quantile":
		return padStripe(n, stripe) + padStripe(n, stripe)/2 + 2*stripe
	case "groupby":
		// Pairs store + partition stripes (each padded by ≤ 1 block).
		w := padStripe(n*pairWords, stripe)
		return 2*w + shape.Mem + 2*stripe
	case "ingest":
		// Dataset + batch (sort envelope) + merged output.
		pad := padStripe(n, stripe) + padStripe(batch, stripe)
		alg, _, _ := fullSortBaseline(shape, Workload{N: batch})
		env := 0
		if alg != "" {
			if bp, err := PadFor(shape.Mem, alg, batch); err == nil {
				env = DiskEnvelope(alg, bp, stripe)
			}
		}
		return 2*pad + env + 2*stripe
	}
	return 0
}

// icbrt is the integer cube root (floor).
func icbrt(x int64) int {
	if x <= 0 {
		return 0
	}
	r := int64(1)
	for r*r*r <= x {
		r++
	}
	return int(r - 1)
}
