package repro

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/scenario"
)

// This file is the facade for the query scenarios: answering top-K,
// quantile, group-by, and sorted-merge-ingest questions on the machine
// without (necessarily) running a full sort.  Each entry point prices the
// scenario route against the full sort with the planner's closed-form
// step predictions (ExplainScenario exposes the table) and runs whichever
// Auto deems cheaper.  Like Sort, the charged passes are oblivious: only
// the disk-resident streaming passes touch the I/O accounting, while
// client-side metadata work (sampling, partition-size counting, input
// validation) is uncharged, exactly like Load/Unload.

// ScenarioSpec describes a prospective scenario run for planning.
type ScenarioSpec struct {
	// Kind selects the scenario: "topk", "quantile", "groupby", "ingest".
	Kind string `json:"kind"`
	// N is the dataset size in keys (records for groupby).
	N int `json:"n"`
	// K is the top-K count (topk only).
	K int `json:"k,omitempty"`
	// Rank is the 1-indexed target rank (quantile only).
	Rank int `json:"rank,omitempty"`
	// Groups hints the distinct group count (groupby only); ≤ 0 means
	// unknown, which plans for the worst case of N distinct groups.
	Groups int `json:"groups,omitempty"`
	// PairWords is the group-by record width: 1 for bare keys, 2 for
	// key+payload pairs.  Zero means 1.
	PairWords int `json:"pairWords,omitempty"`
	// Batch is the new-batch size (ingest only).
	Batch int `json:"batch,omitempty"`
}

// ScenarioPlanReport is the planner's answer for one scenario: the
// predicted steps and passes of the scenario route, the full-sort
// alternative it competes with, and the Auto decision between them.  When
// Exact is true a non-fallback run charges exactly ReadSteps/WriteSteps.
type ScenarioPlanReport struct {
	Kind     string `json:"kind"`
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`

	PaddedN     int     `json:"paddedN,omitempty"`
	ReadSteps   int64   `json:"readSteps,omitempty"`
	WriteSteps  int64   `json:"writeSteps,omitempty"`
	ReadPasses  float64 `json:"readPasses,omitempty"`
	WritePasses float64 `json:"writePasses,omitempty"`
	Exact       bool    `json:"exact,omitempty"`

	Sample int    `json:"sample,omitempty"`
	Budget int    `json:"budget,omitempty"`
	Route  string `json:"route"`

	FullSortAlgorithm  string  `json:"fullSortAlgorithm,omitempty"`
	FullSortReadPasses float64 `json:"fullSortReadPasses,omitempty"`
	UseScenario        bool    `json:"useScenario"`
}

// GroupAgg is one group's aggregate from Machine.GroupBy: Count records
// carried Key, and Sum/Min/Max summarize their payloads (the key itself
// when the input has no payload column).
type GroupAgg struct {
	Key   int64 `json:"key"`
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// scenarioShape is the planner shape scenario pricing uses: the pure
// geometry, like Plan (deterministic — no calibration probes).
func (m *Machine) scenarioShape() plan.Shape {
	return planShape(m.a.Mem(), m.a.D(), m.alpha)
}

// ExplainScenario prices spec's scenario route against the full sort.
func (m *Machine) ExplainScenario(spec ScenarioSpec) (*ScenarioPlanReport, error) {
	p, err := scenarioPlanFor(m.scenarioShape(), spec, scenarioInput{})
	if err != nil {
		return nil, err
	}
	return convertScenarioPlan(p), nil
}

// scenarioPlanFor is the scenario driver's validate-and-plan step, shared
// with ExplainScenario and the scheduler's submit-time check: the one home
// of the kind→parameter rules, then the kind's planner.  in holds the input
// columns the caller has (none for a dry run, a job's inline columns at
// submit, everything for a run); the rules check what is there.
func scenarioPlanFor(shape plan.Shape, spec ScenarioSpec, in scenarioInput) (plan.ScenarioPlan, error) {
	var none plan.ScenarioPlan
	if err := checkKeys(in.keys); err != nil {
		return none, err
	}
	if err := checkKeys(in.batch); err != nil {
		return none, err
	}
	if in.payloads != nil && spec.Kind != "groupby" {
		return none, fmt.Errorf("repro: group payloads are only valid with scenario \"groupby\", not %q", spec.Kind)
	}
	if len(in.batch) > 0 && spec.Kind != "ingest" {
		return none, fmt.Errorf("repro: an ingest batch is only valid with scenario \"ingest\", not %q", spec.Kind)
	}
	w := plan.Workload{N: spec.N}
	switch spec.Kind {
	case "topk":
		if spec.K < 1 || spec.K > spec.N {
			return none, fmt.Errorf("repro: topK = %d outside [1, %d]", spec.K, spec.N)
		}
		return plan.TopKPlan(shape, w, spec.K), nil
	case "quantile":
		if spec.Rank < 1 || spec.Rank > spec.N {
			return none, fmt.Errorf("repro: rank = %d outside [1, %d]", spec.Rank, spec.N)
		}
		return plan.QuantilePlan(shape, w, spec.Rank), nil
	case "groupby":
		if spec.N < 1 {
			return none, fmt.Errorf("repro: group-by of %d records, want > 0", spec.N)
		}
		if in.payloads != nil && len(in.payloads) != spec.N {
			return none, fmt.Errorf("repro: %d keys but %d group payloads", spec.N, len(in.payloads))
		}
		return plan.GroupByPlan(shape, spec.N, spec.Groups, spec.pairWords()), nil
	case "ingest":
		if spec.N < 0 || spec.Batch < 1 {
			return none, fmt.Errorf("repro: ingest of %d keys into %d, want a non-empty batch", spec.Batch, spec.N)
		}
		if !slices.IsSorted(in.keys) {
			return none, errUnsortedDataset
		}
		return plan.IngestPlan(shape, w, spec.Batch), nil
	}
	return none, fmt.Errorf("repro: unknown scenario kind %q (want topk|quantile|groupby|ingest)", spec.Kind)
}

// errUnsortedDataset rejects an ingest dataset that is not ascending.
var errUnsortedDataset = errors.New("repro: Ingest dataset is not sorted")

// pairWords is the group-by record width the spec plans: 2 with a payload
// column, 1 otherwise.
func (spec ScenarioSpec) pairWords() int {
	if spec.PairWords == 0 {
		return 1
	}
	return spec.PairWords
}

// convertScenarioPlan maps the internal plan onto the facade type.
func convertScenarioPlan(p plan.ScenarioPlan) *ScenarioPlanReport {
	return &ScenarioPlanReport{
		Kind: p.Kind, Feasible: p.Feasible, Reason: p.Reason,
		PaddedN: p.PaddedN, ReadSteps: p.ReadSteps, WriteSteps: p.WriteSteps,
		ReadPasses: p.ReadPasses, WritePasses: p.WritePasses, Exact: p.Exact,
		Sample: p.Sample, Budget: p.Budget, Route: p.Route,
		FullSortAlgorithm: string(p.FullSortAlg), FullSortReadPasses: p.FullSortReadPasses,
		UseScenario: p.UseScenario,
	}
}

// checkKeys rejects the padding sentinel, like Sort.
func checkKeys(keys []int64) error {
	for _, k := range keys {
		if k == math.MaxInt64 {
			return ErrKeyRange
		}
	}
	return nil
}

// splitmix64 is the fixed-seed PRNG behind the deterministic client-side
// sample (the same generator the workload harness uses).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// sampleKeys draws the planner's SelectSample(n) keys with a fixed
// splitmix64 stream and returns them sorted.  The draw depends only on n,
// so a scenario run is reproducible for a given input.
func sampleKeys(keys []int64) []int64 {
	n := len(keys)
	s := plan.SelectSample(n)
	out := make([]int64, s)
	if s >= n {
		copy(out, keys)
	} else {
		x := uint64(n)
		for i := range out {
			x = splitmix64(x)
			out[i] = keys[x%uint64(n)]
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// thresholdAt returns the sampled key whose estimated rank in the
// n-key input is target (1-indexed).
func thresholdAt(sample []int64, n, target int) int64 {
	s := len(sample)
	if s >= n {
		if target < 1 {
			target = 1
		}
		if target > s {
			target = s
		}
		return sample[target-1]
	}
	idx := int(int64(target) * int64(s) / int64(n))
	if idx < 0 {
		idx = 0
	}
	if idx >= s {
		idx = s - 1
	}
	return sample[idx]
}

// loadPadded loads data onto a fresh stripe padded with MaxInt64 sentinels
// to whole stripes — the padding the scenario plans price (uncharged, like
// Sort's input staging).
func (m *Machine) loadPadded(data []int64) (*pdm.Stripe, error) {
	stripe := m.a.StripeWidth()
	buf := make([]int64, (len(data)+stripe-1)/stripe*stripe)
	copy(buf, data)
	for i := len(data); i < len(buf); i++ {
		buf[i] = math.MaxInt64
	}
	s, err := m.a.NewStripe(len(buf))
	if err != nil {
		return nil, err
	}
	if err := s.Load(buf); err != nil {
		s.Free()
		return nil, err
	}
	return s, nil
}

// writeResult streams a scenario's result keys to a fresh output stripe
// (padded to whole blocks), the charged write the plans price, and frees
// it — the facade returns the data, the write pays for materializing it.
func (m *Machine) writeResult(out []int64) error {
	b := m.a.B()
	pad := (len(out) + b - 1) / b * b
	if pad == 0 {
		return nil
	}
	flat, err := m.a.Arena().Alloc(pad)
	if err != nil {
		return err
	}
	defer m.a.Arena().Free(flat)
	copy(flat, out)
	for i := len(out); i < pad; i++ {
		flat[i] = math.MaxInt64
	}
	s, err := m.a.NewStripe(pad)
	if err != nil {
		return err
	}
	defer s.Free()
	return s.WriteAt(0, flat)
}

// TopK returns the k smallest keys in ascending order.  When the planner
// prices the filter route cheaper than the full sort (ExplainScenario
// shows the comparison), one charged filtering pass at a sampled
// threshold collects the survivors, they are sorted in memory, and the k
// results are written out — otherwise, or when the sampled threshold
// misses (Report.FellBack), the keys are sorted outright.  The input
// slice is never modified.
func (m *Machine) TopK(keys []int64, k int) ([]int64, *Report, error) {
	res, rep, err := m.answerScenario(ScenarioSpec{Kind: "topk", N: len(keys), K: k}, scenarioInput{keys: keys})
	if err != nil {
		return nil, nil, err
	}
	return res.Keys, rep, nil
}

// Quantile returns the key of 1-indexed rank r (r = 1 is the minimum,
// r = n the maximum).  The filter route keeps one charged pass's worth of
// keys around the sampled rank window and reads the answer out of the
// sorted window; a window miss (Report.FellBack) or an unfavorable plan
// sorts outright.  The input slice is never modified.
func (m *Machine) Quantile(keys []int64, r int) (int64, *Report, error) {
	res, rep, err := m.answerScenario(ScenarioSpec{Kind: "quantile", N: len(keys), Rank: r}, scenarioInput{keys: keys})
	if err != nil {
		return 0, nil, err
	}
	return *res.Value, rep, nil
}

// GroupBy aggregates records by key: count, sum, min, and max of the
// payloads (of the keys themselves when payloads is nil), returned sorted
// by key.  payloads, when non-nil, must pair with keys element-wise.
// groups hints the distinct key count for route planning (≤ 0 = unknown):
// when the groups fit one memory load of accumulators the input is
// aggregated in a single charged pass, otherwise it takes a hash-partition
// round trip — each only when the planner prices it under the
// sort-then-scan route, which runs otherwise.  A hint too low is detected
// and re-routed (Report.FellBack).  The input slices are never modified.
func (m *Machine) GroupBy(keys, payloads []int64, groups int) ([]GroupAgg, *Report, error) {
	spec := ScenarioSpec{Kind: "groupby", N: len(keys), Groups: groups, PairWords: 1}
	if payloads != nil {
		spec.PairWords = 2
	}
	res, rep, err := m.answerScenario(spec, scenarioInput{keys: keys, payloads: payloads})
	if err != nil {
		return nil, nil, err
	}
	return res.Groups, rep, nil
}

// Ingest folds a batch of new keys into an already-sorted dataset,
// returning the combined sorted keys.  The merge route sorts only the
// batch (with the planner-chosen algorithm) and folds it in with a single
// two-lane StreamMerge pass — the LSM-style alternative to re-sorting
// everything, which Auto falls back to when the plan prices it cheaper.
// dataset must be ascending; neither input slice is modified.
func (m *Machine) Ingest(dataset, batch []int64) ([]int64, *Report, error) {
	spec := ScenarioSpec{Kind: "ingest", N: len(dataset), Batch: len(batch)}
	if len(batch) == 0 {
		// Nothing to fold in: the dataset, held to the same contract, is
		// the answer at no I/O cost.
		if err := checkKeys(dataset); err != nil {
			return nil, nil, err
		}
		if !slices.IsSorted(dataset) {
			return nil, nil, errUnsortedDataset
		}
		return slices.Clone(dataset), m.scenarioReport(spec, routeRun{route: "merge"}, 0, pdm.Stats{}), nil
	}
	res, rep, err := m.answerScenario(spec, scenarioInput{keys: dataset, batch: batch})
	if err != nil {
		return nil, nil, err
	}
	return res.Keys, rep, nil
}

// scenarioInput is what a scenario run reads: the keys (for ingest, the
// ascending dataset), the group-by payload column paired element-wise
// with them (nil when absent), and the ingest batch.
type scenarioInput struct {
	keys, payloads, batch []int64
}

// errMissed is a route kernel's detected miss other than
// scenario.ErrOverflow: the sampled window held too few survivors or
// missed the target rank.  The driver answers it with the full sort.
var errMissed = errors.New("repro: scenario route missed its sampled window")

// answerScenario is the one scenario driver behind TopK, Quantile, GroupBy,
// Ingest, and the scheduler's scenario jobs.  It validates and plans spec,
// runs the kind's route when the plan is feasible and prices it strictly
// under the full sort, and answers a detected miss (Report.FellBack) — or
// a losing plan — with the one full-sort fallback.
func (m *Machine) answerScenario(spec ScenarioSpec, in scenarioInput) (*ScenarioResult, *Report, error) {
	p, err := scenarioPlanFor(m.scenarioShape(), spec, in)
	if err != nil {
		return nil, nil, err
	}
	if !p.Feasible || !p.UseScenario {
		return m.fullSortFallback(spec, in, false)
	}
	st0 := m.a.Stats()
	res, run, err := m.scenarioRoute(spec, p, in)
	switch {
	case err == nil:
		return res, m.scenarioReport(spec, run, p.PaddedN, m.a.Stats().Sub(st0)), nil
	case errors.Is(err, scenario.ErrOverflow) || errors.Is(err, errMissed):
		return m.fullSortFallback(spec, in, true)
	}
	return nil, nil, err
}

// routeRun is what a route kernel tells the report builder beyond its
// I/O: the route that answered, the algorithm of a sort it ran inside it
// (ingest's batch sort; Auto otherwise), and whether it fell back within
// itself (a group-by hint too low, or that inner sort's own fallback).
type routeRun struct {
	route    string
	alg      Algorithm
	fellBack bool
}

// scenarioRoute is the driver's one per-kind step: it runs spec's route
// kernel over in and reads the answer off its output, signalling a
// detected miss with scenario.ErrOverflow or errMissed.
func (m *Machine) scenarioRoute(spec ScenarioSpec, p plan.ScenarioPlan, in scenarioInput) (*ScenarioResult, routeRun, error) {
	res := &ScenarioResult{Kind: spec.Kind}
	run := routeRun{route: p.Route}
	var err error
	switch spec.Kind {
	case "topk":
		kept, _, err := m.filterWindow(in.keys, p.Budget, 1, spec.K)
		if err != nil {
			return nil, run, err
		}
		if len(kept) < spec.K {
			return nil, run, errMissed // the sampled threshold cut too deep
		}
		res.Keys = slices.Clone(kept[:spec.K])
		err = m.writeResult(res.Keys)
		return res, run, err
	case "quantile":
		kept, below, err := m.filterWindow(in.keys, p.Budget, spec.Rank, spec.Rank)
		if err != nil {
			return nil, run, err
		}
		idx := spec.Rank - 1 - below
		if idx < 0 || idx >= len(kept) {
			return nil, run, errMissed // the window missed the target rank
		}
		v := kept[idx] // not &kept[idx]: a retained result must not pin the window
		res.Value = &v
	case "groupby":
		res.Groups, run, err = m.groupRoute(spec, run, in)
	case "ingest":
		res.Keys, run, err = m.mergeRoute(in)
	}
	return res, run, err
}

// filterWindow is the selection route of top-K and quantile: one charged
// filtering pass keeps the keys whose sampled rank lies within the slack
// Δ of the target ranks [lo, hi], at most budget of them.  It returns the
// survivors sorted, with the count of keys below the window.
func (m *Machine) filterWindow(keys []int64, budget, lo, hi int) ([]int64, int, error) {
	n := len(keys)
	sample := sampleKeys(keys)
	delta := plan.SelectDelta(n, hi)
	hasLo := lo-delta > 1
	var loKey int64
	if hasLo {
		loKey = thresholdAt(sample, n, lo-delta)
	}
	hiKey := thresholdAt(sample, n, hi+delta)
	in, err := m.loadPadded(keys)
	if err != nil {
		return nil, 0, err
	}
	fr, err := scenario.Filter(m.a, in, loKey, hiKey, hasLo, budget)
	in.Free()
	if err != nil {
		return nil, 0, err
	}
	m.a.Pool().SortKeys(fr.Kept)
	return fr.Kept, fr.Below, nil
}

// groupRoute is the group-by route: the one-pass aggregation, escalating
// to the partition round trip at the worst-case fanout when the group
// hint undercounted (a FellBack run), or the partition round trip
// directly.  A partition that still overflows is a miss.
func (m *Machine) groupRoute(spec ScenarioSpec, run routeRun, in scenarioInput) ([]GroupAgg, routeRun, error) {
	pairWords := spec.pairWords()
	pairs := make([]int64, 0, spec.N*pairWords)
	for i, k := range in.keys {
		pairs = append(pairs, k)
		if in.payloads != nil {
			pairs = append(pairs, in.payloads[i])
		}
	}
	cap := plan.GroupCap(m.a.Mem())
	st, err := m.loadPadded(pairs)
	if err != nil {
		return nil, run, err
	}
	defer st.Free()

	var aggs []scenario.Agg
	if run.route == "onepass" {
		aggs, err = scenario.GroupOnePass(m.a, st, pairWords, cap)
		if errors.Is(err, scenario.ErrOverflow) {
			run, err = routeRun{route: "partition", fellBack: true}, nil
		} else if err != nil {
			return nil, run, err
		}
	}
	if run.route == "partition" {
		sizes := make([]int, plan.PartitionFanout(spec.N, m.scenarioShape()))
		for _, k := range in.keys {
			sizes[scenario.PartitionIndex(k, len(sizes))]++
		}
		if aggs, err = scenario.GroupPartition(m.a, st, pairWords, sizes, cap); err != nil {
			return nil, run, fmt.Errorf("repro: partitioned group-by: %w", err)
		}
	}
	out := make([]GroupAgg, len(aggs))
	for i, a := range aggs {
		out[i] = GroupAgg(a)
	}
	return out, run, nil
}

// mergeRoute is the ingest route: the planner-chosen sort of the batch
// alone, then one two-lane StreamMerge pass over the stripe-padded
// dataset and sorted batch.
func (m *Machine) mergeRoute(in scenarioInput) ([]int64, routeRun, error) {
	sorted := slices.Clone(in.batch)
	brep, err := m.Sort(sorted, Auto)
	if err != nil {
		return nil, routeRun{}, err
	}
	run := routeRun{route: "merge", alg: brep.Algorithm, fellBack: brep.FellBack}
	x, err := m.loadPadded(in.keys)
	if err != nil {
		return nil, run, err
	}
	defer x.Free()
	y, err := m.loadPadded(sorted)
	if err != nil {
		return nil, run, err
	}
	defer y.Free()
	merged, err := scenario.Merge(m.a, x, y)
	if err != nil {
		return nil, run, err
	}
	defer merged.Free()
	flat, err := merged.Unload()
	if err != nil {
		return nil, run, err
	}
	return flat[:len(in.keys)+len(in.batch)], run, nil
}

// fullSortFallback is the one full-sort route every kind falls back to:
// it sorts the whole input with Auto — the dataset and batch together for
// ingest, the keys carrying the group-by payload column through a record
// sort — and reads the kind's answer off the sorted output.  fellBack
// marks a detected route miss.
func (m *Machine) fullSortFallback(spec ScenarioSpec, in scenarioInput, fellBack bool) (*ScenarioResult, *Report, error) {
	keys := slices.Concat(in.keys, in.batch)
	vals := keys
	var rep *Report
	var err error
	if in.payloads == nil {
		rep, err = m.Sort(keys, Auto)
	} else {
		// The payload column rides as one 8-byte record payload per key.
		raw := make([]byte, 8*len(in.payloads))
		blobs := make([][]byte, len(in.payloads))
		for i, v := range in.payloads {
			blobs[i] = raw[8*i : 8*i+8]
			binary.LittleEndian.PutUint64(blobs[i], uint64(v))
		}
		if rep, err = m.SortRecords(keys, blobs, Auto); err == nil {
			vals = make([]int64, len(blobs))
			for i, b := range blobs {
				vals[i] = int64(binary.LittleEndian.Uint64(b))
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	rep.Scenario, rep.ScenarioRoute = spec.Kind, "fullsort"
	rep.FellBack = rep.FellBack || fellBack
	res := &ScenarioResult{Kind: spec.Kind}
	switch spec.Kind {
	case "topk":
		res.Keys = slices.Clone(keys[:spec.K])
	case "quantile":
		v := keys[spec.Rank-1]
		res.Value = &v
	case "groupby":
		res.Groups = scanGroups(keys, vals)
	case "ingest":
		res.Keys = keys
	}
	return res, rep, nil
}

// scanGroups aggregates sorted keys run by run, vals[i] riding with
// keys[i]: equal keys are adjacent, so one accumulator suffices and no
// group-count limit applies.
func scanGroups(keys, vals []int64) []GroupAgg {
	var out []GroupAgg
	for i, k := range keys {
		v := vals[i]
		if len(out) == 0 || out[len(out)-1].Key != k {
			out = append(out, GroupAgg{Key: k, Min: v, Max: v})
		}
		a := &out[len(out)-1]
		a.Count++
		a.Sum += v
		a.Min = min(a.Min, v)
		a.Max = max(a.Max, v)
	}
	return out
}

// scenarioReport is the one report builder for a scenario route run: the
// I/O delta io in passes over the plan's padded length paddedN.
func (m *Machine) scenarioReport(spec ScenarioSpec, run routeRun, paddedN int, io pdm.Stats) *Report {
	stripe := m.a.StripeWidth()
	rep := &Report{
		Algorithm:     run.alg,
		N:             spec.N + spec.Batch,
		Passes:        io.Passes(paddedN, stripe),
		ReadPasses:    io.ReadPasses(paddedN, stripe),
		WritePasses:   io.WritePasses(paddedN, stripe),
		IO:            io,
		PaddedN:       paddedN,
		FellBack:      run.fellBack,
		Scenario:      spec.Kind,
		ScenarioRoute: run.route,
		PayloadWords:  (spec.pairWords() - 1) * spec.N,
	}
	rep.pipelineMetrics(io, m.a.Workers())
	return rep
}
