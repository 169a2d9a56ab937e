package main

import (
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/pdm"
)

// wall sums span durations; the spans of one op must tile its wall time.
func wall(spans []passSpan) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.end.Sub(s.start)
	}
	return d
}

func labels(spans []passSpan) []string {
	var out []string
	for _, s := range spans {
		out = append(out, s.label)
	}
	return out
}

func TestGroupSpansMergesRepeatsAndTiles(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	b := []boundary{{label: "lmm3#1", at: at(10)}, {label: "lmm3#2", at: at(20)}, {label: "permute#1", at: at(25)}}
	for i := 0; i < 130; i++ {
		b = append(b, boundary{label: "permute#2", at: at(26 + i)})
	}
	spans := groupSpans(t0, pdm.Stats{}, b, at(200), pdm.Stats{})
	want := []string{"lmm3#1", "lmm3#2", "permute#1", "permute#2", tailLabel}
	if got := labels(spans); !slices.Equal(got, want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	if got := wall(spans); got != 200*time.Millisecond {
		t.Fatalf("spans sum to %v, want the op wall 200ms", got)
	}
	if got := spans[3].end.Sub(spans[3].start); got != 130*time.Millisecond {
		t.Fatalf("merged permute#2 span is %v, want 130ms", got)
	}
}

func TestGroupSpansWithoutBoundariesIsOneSpan(t *testing.T) {
	t0 := time.Now()
	spans := groupSpans(t0, pdm.Stats{}, nil, t0.Add(time.Second), pdm.Stats{ComputeWallNanos: 4e8})
	if len(spans) != 1 || spans[0].label != tailLabel || wall(spans) != time.Second {
		t.Fatalf("spans = %+v, want one tail span of the whole op", spans)
	}
	if f := spans[0].computeFrac(); f != 0.4 {
		t.Fatalf("compute frac = %v, want 0.4", f)
	}
}

// tracedSort runs fn on a small in-memory machine with the pass recorder
// installed and returns the op's spans.
func tracedSort(t *testing.T, mem int, fn func(m *repro.Machine) (*repro.Report, error)) ([]passSpan, time.Duration, *repro.Report) {
	t.Helper()
	m, err := repro.NewMachine(repro.MachineConfig{Memory: mem, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var rec passRecorder
	m.Array().SetCheckpointer(rec.record)
	st0 := m.Array().Stats()
	t0 := time.Now()
	rep, err := fn(m)
	t1 := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	return groupSpans(t0, st0, rec.bounds, t1, m.Array().Stats()), t1.Sub(t0), rep
}

func TestThreePassSpansSumToOpWall(t *testing.T) {
	const mem = 1024
	keys, _ := (&repro.WorkloadSpec{Kind: "uniform", N: mem * 32, Seed: 3}).Generate()
	spans, opWall, rep := tracedSort(t, mem, func(m *repro.Machine) (*repro.Report, error) {
		return m.Sort(keys, repro.Auto)
	})
	if rep.Passes != 3 || len(spans) != 3 {
		t.Fatalf("passes = %v with spans %v, want 3 and 3", rep.Passes, labels(spans))
	}
	if got := wall(spans); got != opWall {
		t.Fatalf("spans sum to %v, op took %v", got, opWall)
	}
}

func TestRecordsOpYieldsKeysortPermuteAndTail(t *testing.T) {
	const mem, n = 1024, 1 << 14
	keys, _ := (&repro.WorkloadSpec{Kind: "uniform", N: n, Seed: 5}).Generate()
	in := slices.Clone(keys)
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = payloadFor(i)
	}
	spans, opWall, rep := tracedSort(t, mem, func(m *repro.Machine) (*repro.Report, error) {
		return m.SortRecords(keys, payloads, repro.Auto)
	})
	if err := checkRecords(in, keys, payloads); err != nil {
		t.Fatal(err)
	}
	if got := wall(spans); got != opWall {
		t.Fatalf("spans sum to %v, op took %v", got, opWall)
	}
	k, p, tail := splitRecordSpans(spans)
	if k <= 0 || p <= 0 || tail <= 0 || rep.KeyRounds != 2 {
		t.Fatalf("keysort=%v permute=%v tail=%v rounds=%d (spans %v)", k, p, tail, rep.KeyRounds, labels(spans))
	}
}

func TestCheckRecordsCatchesSwapsAndInstability(t *testing.T) {
	in := []int64{5, 3, 5, 1}
	keys := []int64{1, 3, 5, 5}
	payloads := [][]byte{payloadFor(3), payloadFor(1), payloadFor(0), payloadFor(2)}
	if err := checkRecords(in, keys, payloads); err != nil {
		t.Fatalf("valid output rejected: %v", err)
	}
	unstable := [][]byte{payloadFor(3), payloadFor(1), payloadFor(2), payloadFor(0)}
	if checkRecords(in, keys, unstable) == nil {
		t.Fatal("unstable order of equal keys accepted")
	}
	unpaired := [][]byte{payloadFor(1), payloadFor(3), payloadFor(0), payloadFor(2)}
	if checkRecords(in, keys, unpaired) == nil {
		t.Fatal("key paired with the wrong payload accepted")
	}
}

func TestCheckSortedCatchesLostKeys(t *testing.T) {
	want := sumOf([]int64{4, 2, 9})
	if err := checkSorted([]int64{2, 4, 9}, want); err != nil {
		t.Fatal(err)
	}
	if checkSorted([]int64{2, 4, 4}, want) == nil || checkSorted([]int64{4, 2, 9}, want) == nil {
		t.Fatal("bad output accepted")
	}
}

func TestRouteOf(t *testing.T) {
	for path, want := range map[string]string{
		"/jobs":                      "POST /jobs",
		"/jobs/12":                   "POST /jobs/{id}",
		"/jobs/12/keys":              "POST /jobs/{id}/keys",
		"/uploads/bench-j1-w0/pages": "POST /uploads/{id}/pages",
	} {
		if got := routeOf("POST", path); got != want {
			t.Errorf("routeOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Start: 30 * ms, End: 50 * ms}, // overlaps span 2
	}
	selfTimes(spans)
	if spans[0].Self != 60*ms || spans[1].Self != 30*ms {
		t.Fatalf("self times = %v, %v; want 60ms, 30ms", spans[0].Self, spans[1].Self)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metrics the command
// prints in step with the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, table []metricDef, decl []struct{ Name, Unit string }) {
		if len(table) != len(decl) {
			t.Fatalf("%s: %d metrics printed, %d declared", kind, len(table), len(decl))
		}
		for i, d := range decl {
			if table[i].name != d.Name || table[i].unit != d.Unit {
				t.Errorf("%s[%d]: printed %s (%s), declared %s (%s)", kind, i, table[i].name, table[i].unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not runnable", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d runnable", len(b.Workloads), len(workloads))
	}
}

// TestServiceJobThroughTimingTransport runs one small job the way
// service-mix does and checks what the timing transport recorded.
func TestServiceJobThroughTimingTransport(t *testing.T) {
	dir := t.TempDir()
	n, err := startNode(repro.SchedulerConfig{Memory: 1 << 16, Workers: 2, JobMemory: 1024, Dir: dir + "/scratch", JournalDir: dir + "/journal"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	keys, _ := (&repro.WorkloadSpec{Kind: "zipf", N: 20000, Seed: 9}).Generate()
	want := sumOf(keys)
	body, _ := json.Marshal(map[string]any{"keys": keys, "keepKeys": true})
	job := svcJob{kind: "sort", body: body, route: "keys", resultN: len(keys), words: len(keys),
		check: func(out []int64) error { return checkSorted(out, want) }}
	timing := newTimingTransport()
	tr := newTracer()
	r := runJob(&http.Client{Transport: timing}, n.url, &job, 1, tr)
	if err := r.verify(); err != nil {
		t.Fatal(err)
	}
	log := timing.take()
	if got := len(routeSeconds(log, "POST /jobs")); got != 1 {
		t.Fatalf("%d submits recorded, want 1", got)
	}
	if got := len(routeSeconds(log, "GET /jobs/{id}/keys")); got != 3 {
		t.Fatalf("%d key pages recorded, want 3 (20000 keys in pages of %d)", got, svcPageKeys)
	}
	if got := len(routeSeconds(log, "GET /jobs/{id}")); got != r.polls {
		t.Fatalf("%d polls recorded, client made %d", got, r.polls)
	}
	if wb := wireBytes(log); wb < int64(len(body)) {
		t.Fatalf("wire bytes %d below the request body alone (%d)", wb, len(body))
	}
	if len(tr.spans) != 5 {
		t.Fatalf("%d spans traced, want job + submit, queue, run, pages", len(tr.spans))
	}
}
