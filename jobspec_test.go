package repro

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

// TestJobSpecJSONRoundTrip: JobSpec → JSON → JobSpec is the identity for
// every algorithm, a radix universe, a block latency, every machine
// override, and every scenario field, and the algorithm travels under its
// planner short name.
func TestJobSpecJSONRoundTrip(t *testing.T) {
	w := &WorkloadSpec{Kind: "zipf", N: 5000, Seed: 7, S: 1.3, Distinct: 40, RunLen: 9,
		Payload: &PayloadSpec{MinBytes: 4, MaxBytes: 16}}
	cases := []struct {
		spec JobSpec
		alg  string // the wire "alg", "" when omitted
	}{
		{JobSpec{Keys: []int64{3, 1, 2}, Payloads: [][]byte{{1}, {}, {2, 3}}}, ""},
		{JobSpec{Workload: w, Memory: 4096, Disks: 4, Workers: 3, Backend: BackendMmap,
			Kernel: KernelRadix, KeepKeys: true, Label: "all-knobs"}, ""},
		{JobSpec{Keys: []int64{5}, Universe: 1000}, "radix"},
		{JobSpec{Keys: []int64{5}, Universe: 1 << 32}, "radix"},
		{JobSpec{Keys: []int64{5}, Algorithm: ThreePassLMM, BlockLatency: 2 * time.Millisecond}, "lmm3"},
		{JobSpec{Scenario: "topk", TopK: 8, Keys: []int64{4, 2}}, ""},
		{JobSpec{Scenario: "quantile", Rank: 3, Workload: &WorkloadSpec{Kind: "uniform", N: 64}}, ""},
		{JobSpec{Scenario: "groupby", Groups: 2, Keys: []int64{1, 1}, GroupPayloads: []int64{5, 6}}, ""},
		{JobSpec{Scenario: "ingest", Keys: []int64{1, 4}, IngestBatch: []int64{2, 3}, KeepKeys: true}, ""},
		// The journal records a scenario job's resolved fallback sort.
		{JobSpec{Scenario: "topk", TopK: 1, Keys: []int64{1}, Algorithm: SevenPass}, "seven"},
	}
	for _, alg := range []Algorithm{ThreePassMesh, TwoPassMeshExpected, ThreePassLMM, TwoPassExpected,
		ThreePassExpected, SevenPass, SixPassExpected, SevenPassMesh, MemOnePass} {
		cases = append(cases, struct {
			spec JobSpec
			alg  string
		}{JobSpec{Keys: []int64{1}, Algorithm: alg}, string(alg.planAlg())})
	}
	for i, c := range cases {
		raw, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var wire map[string]any
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatal(err)
		}
		if got, _ := wire["alg"].(string); got != c.alg {
			t.Errorf("case %d: wire alg %q, want %q (%s)", i, got, c.alg, raw)
		}
		var back JobSpec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, raw, err)
		}
		if !reflect.DeepEqual(back, c.spec) {
			t.Errorf("case %d: round trip\n got %+v\nwant %+v\nwire %s", i, back, c.spec, raw)
		}
	}
}

// TestJobSpecJSONWireForms pins the decodings a hand-written body or an
// older journal record relies on, and the bodies the codec must refuse.
func TestJobSpecJSONWireForms(t *testing.T) {
	for _, c := range []struct {
		wire string
		want JobSpec
	}{
		// "radix" without a universe selects 2^32.
		{`{"keys":[1],"alg":"radix"}`, JobSpec{Keys: []int64{1}, Universe: 1 << 32}},
		{`{"keys":[1],"alg":"auto"}`, JobSpec{Keys: []int64{1}}},
		// Older journal records: the latency key was spelled
		// "blockLatencyUS", and a radix job stored only its universe.
		{`{"keys":[1],"alg":"lmm3","blockLatencyUS":2000}`,
			JobSpec{Keys: []int64{1}, Algorithm: ThreePassLMM, BlockLatency: 2 * time.Millisecond}},
		{`{"keys":[1],"universe":77}`, JobSpec{Keys: []int64{1}, Universe: 77}},
	} {
		var got JobSpec
		if err := json.Unmarshal([]byte(c.wire), &got); err != nil {
			t.Fatalf("%s: %v", c.wire, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s decoded to %+v, want %+v", c.wire, got, c.want)
		}
	}
	for _, wire := range []string{
		`{"keys":[1],"alg":"bogus"}`,
		`{"keys":[1],"alg":"lmm3","universe":5}`,
		`{"keys":[1],"nonsense":true}`,
		`{"keys":[1],"pipeline":{"Prefetch":1}}`,
		`{"workload":{"kind":"perm","n":4,"extra":1}}`,
	} {
		var got JobSpec
		if err := json.Unmarshal([]byte(wire), &got); err == nil {
			t.Errorf("%s accepted as %+v", wire, got)
		}
	}
	if _, err := json.Marshal(JobSpec{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm encoded")
	}
}

// TestSchedulerReplaysOlderSpecRecord: a queued job's submission record
// in the journal encoding written before JobSpec owned its JSON
// ("blockLatencyUS") replays, in the next scheduler life, to the same job.
func TestSchedulerReplaysOlderSpecRecord(t *testing.T) {
	dir, jdir := t.TempDir(), t.TempDir()
	const n = 4 * schedJobMem
	s1, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	blocker := submitBatch(t, s1, []JobSpec{{Workload: &WorkloadSpec{Kind: "perm", N: 16 * schedJobMem, Seed: 71},
		Algorithm: ThreePassLMM, BlockLatency: 2 * time.Millisecond, Label: "blocker"}})[0]

	want := JobSpec{Workload: &WorkloadSpec{Kind: "perm", N: n, Seed: 72},
		Algorithm: ThreePassLMM, BlockLatency: 2 * time.Millisecond, KeepKeys: true, Label: "older"}
	r, err := s1.resolveJobSpec(want)
	if err != nil {
		t.Fatal(err)
	}
	older := `{"workload":{"kind":"perm","n":4096,"seed":72},"keepKeys":true,"label":"older",` +
		`"alg":"lmm3","blockLatencyUS":2000}`
	h, err := s1.eng.Submit(sched.Request{Label: "older", MemKeys: r.pcfg.ArenaCapacity(), DiskKeys: r.disk,
		Spec: []byte(older),
		Run: func(context.Context, sched.Env) error {
			return errors.New("queued behind the blocker; must not run in this life")
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	err = s1.Drain(ctx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, err := NewScheduler(durabilityConfig(dir, jdir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range []int{blocker, h.ID()} {
		st, err := s2.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobDone || st.Recovery == nil {
			t.Fatalf("job %d: state %q, recovery %v, error %q", id, st.State, st.Recovery, st.Error)
		}
	}
	st, _ := s2.Status(h.ID())
	if st.Algorithm != ThreePassLMM.String() || st.N != n {
		t.Fatalf("replayed job runs %s over %d keys, want %s over %d", st.Algorithm, st.N, ThreePassLMM, n)
	}
	s2.mu.Lock()
	got := s2.jobs[h.ID()].spec
	s2.mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed spec %+v, want %+v", got, want)
	}
	keys, err := s2.SortedKeys(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(keys) || len(keys) != n || keys[0] != 0 || keys[n-1] != n-1 {
		t.Fatalf("replayed job output is not the sorted permutation (%d keys)", len(keys))
	}
	if raw, _ := json.Marshal(want); !strings.Contains(string(raw), `"blockLatencyUs":2000`) {
		t.Fatalf("current encoding %s lost the latency", raw)
	}
}
