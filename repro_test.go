package repro

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/plan"
	"repro/internal/workload"
)

func newTestMachine(t *testing.T, mem int) *Machine {
	t.Helper()
	m, err := NewMachine(MachineConfig{Memory: mem})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(MachineConfig{Memory: 1000}); err == nil {
		t.Fatal("non-square memory accepted")
	}
	if _, err := NewMachine(MachineConfig{Memory: 1024, Disks: 7}); err == nil {
		t.Fatal("non-dividing disk count accepted")
	}
	for _, cfg := range []MachineConfig{
		{Memory: 1024, Disks: -2},
		{Memory: 1024, Workers: -1},
		{Memory: 1024, Pipeline: PipelineConfig{Prefetch: -1}},
		{Memory: 1024, BlockLatency: -1},
	} {
		if _, err := NewMachine(cfg); err == nil {
			t.Fatalf("%+v accepted", cfg)
		}
	}
	m, err := NewMachine(MachineConfig{Memory: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if m.Array().D() != 8 {
		t.Fatalf("default disks = %d, want 8 (C=4)", m.Array().D())
	}
}

// TestSortAllAlgorithms runs every row of the algorithm table, so a row
// without an entry point fails here.
func TestSortAllAlgorithms(t *testing.T) {
	m := newTestMachine(t, 256)
	for alg := Auto + 1; alg.known(); alg++ {
		t.Run(alg.String(), func(t *testing.T) {
			if algorithms[alg].run == nil {
				t.Fatal("no core entry point")
			}
			// Deliberately unaligned lengths; the one-pass sort takes at
			// most M keys and pads to a block, the others to whole loads.
			n, align := 1000, 256
			if alg == MemOnePass {
				n, align = 250, 16
			}
			keys := workload.Perm(n, int64(alg))
			want := append([]int64(nil), keys...)
			slices.Sort(want)
			rep, err := m.Sort(keys, alg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(keys, want) {
				t.Fatal("not sorted")
			}
			if rep.Algorithm != alg || rep.N != n {
				t.Fatalf("report = %+v", rep)
			}
			if rep.PaddedN < n || rep.PaddedN%align != 0 {
				t.Fatalf("PaddedN = %d", rep.PaddedN)
			}
		})
	}
}

func TestSortAuto(t *testing.T) {
	m := newTestMachine(t, 256)
	for _, n := range []int{10, 300, 2000, 10000, 60000} {
		keys := workload.Uniform(n, -1000, 1000, int64(n))
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		rep, err := m.Sort(keys, Auto)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("n=%d: not sorted", n)
		}
		if rep.Algorithm == Auto {
			t.Fatal("Auto not resolved to a concrete algorithm")
		}
	}
}

func TestPlanEscalatesWithN(t *testing.T) {
	m := newTestMachine(t, 1024)
	small := m.Plan(512)
	mid := m.Plan(1024 * 20)
	big := m.Plan(1024 * 1024)
	if small != MemOnePass {
		t.Fatalf("Plan(512) = %v, an in-memory input needs one pass, not three", small)
	}
	if mid == SevenPass {
		t.Fatalf("Plan(20M) = %v, should not need seven passes", mid)
	}
	if big != SevenPass && big != SixPassExpected {
		t.Fatalf("Plan(M^2) = %v", big)
	}
}

func TestCapacityOrdering(t *testing.T) {
	m := newTestMachine(t, 1024)
	c2 := m.Capacity(TwoPassExpected)
	c3 := m.Capacity(ThreePassLMM)
	c7 := m.Capacity(SevenPass)
	if !(c2 < c3 && c3 < c7) {
		t.Fatalf("capacities not ordered: 2-pass %d, 3-pass %d, 7-pass %d", c2, c3, c7)
	}
	if c3 != 1024*32 || c7 != 1024*1024 {
		t.Fatalf("capacities = %d, %d", c3, c7)
	}
}

func TestSortRejectsSentinel(t *testing.T) {
	m := newTestMachine(t, 256)
	if _, err := m.Sort([]int64{1, math.MaxInt64}, ThreePassLMM); err == nil {
		t.Fatal("MaxInt64 key accepted")
	}
}

func TestSortRejectsOversize(t *testing.T) {
	m := newTestMachine(t, 256)
	if _, err := m.Sort(make([]int64, 256*33), ThreePassLMM); err == nil {
		t.Fatal("input above M*sqrt(M) accepted for a three-pass algorithm")
	}
}

func TestSortInts(t *testing.T) {
	m := newTestMachine(t, 256)
	keys := workload.Uniform(5000, 0, (1<<20)-1, 9)
	want := append([]int64(nil), keys...)
	slices.Sort(want)
	rep, err := m.SortInts(keys, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, want) {
		t.Fatal("not sorted")
	}
	if rep.Passes <= 0 {
		t.Fatalf("passes = %v", rep.Passes)
	}
	if _, err := m.SortInts([]int64{-1}, 10); err == nil {
		t.Fatal("negative key accepted")
	}
	if _, err := m.SortInts([]int64{10}, 10); err == nil {
		t.Fatal("key = universe accepted")
	}
}

func TestFileBackedMachine(t *testing.T) {
	m, err := NewMachine(MachineConfig{Memory: 256, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	keys := workload.Perm(4096, 3)
	want := append([]int64(nil), keys...)
	slices.Sort(want)
	if _, err := m.Sort(keys, ThreePassLMM); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(keys, want) {
		t.Fatal("file-backed sort incorrect")
	}
}

func TestSortQuickProperty(t *testing.T) {
	m := newTestMachine(t, 256)
	f := func(raw []int64, algRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		keys := make([]int64, len(raw))
		for i, v := range raw {
			if v == math.MaxInt64 {
				v--
			}
			keys[i] = v
		}
		algs := []Algorithm{ThreePassMesh, ThreePassLMM, TwoPassExpected, SevenPass}
		want := append([]int64(nil), keys...)
		slices.Sort(want)
		if _, err := m.Sort(keys, algs[int(algRaw)%len(algs)]); err != nil {
			return false
		}
		return slices.Equal(keys, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgorithmStrings pins the algorithm table's wire-visible columns:
// the enum integers (Report.Algorithm encodes as one), the paper names,
// and the planner spellings, which must map one to one onto every
// planner candidate but radix.
func TestAlgorithmStrings(t *testing.T) {
	want := []struct {
		alg  Algorithm
		val  int
		name string
	}{
		{Auto, 0, "Auto"},
		{ThreePassMesh, 1, "ThreePass1"},
		{TwoPassMeshExpected, 2, "ExpThreePass1 (2-pass mesh)"},
		{ThreePassLMM, 3, "ThreePass2"},
		{TwoPassExpected, 4, "ExpectedTwoPass"},
		{ThreePassExpected, 5, "ExpectedThreePass"},
		{SevenPass, 6, "SevenPass"},
		{SixPassExpected, 7, "ExpectedSixPass"},
		{SevenPassMesh, 8, "SevenPassMesh (Remark 6.2)"},
		{MemOnePass, 9, "OnePass (memory load)"},
	}
	if len(want) != len(algorithms) {
		t.Fatalf("table has %d rows, want %d", len(algorithms), len(want))
	}
	for _, w := range want {
		if int(w.alg) != w.val || w.alg.String() != w.name {
			t.Errorf("Algorithm %d %q, want %d %q", int(w.alg), w.alg.String(), w.val, w.name)
		}
	}
	for _, alg := range []Algorithm{-1, 99} {
		if got, want := alg.String(), fmt.Sprintf("Algorithm(%d)", int(alg)); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	// Every candidate but radix round-trips through one distinct Algorithm.
	seen := map[Algorithm]plan.Alg{}
	for _, pa := range plan.Candidates {
		if pa == plan.Radix {
			continue
		}
		alg, err := ParseAlgorithm(string(pa))
		if err != nil || alg == Auto {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", pa, alg, err)
			continue
		}
		if got := alg.planAlg(); got != pa {
			t.Errorf("%v.planAlg() = %q, want %q", alg, got, pa)
		}
		if prev, dup := seen[alg]; dup {
			t.Errorf("%v is both %q and %q", alg, prev, pa)
		}
		seen[alg] = pa
	}
	for alg := Auto + 1; alg.known(); alg++ {
		if _, ok := seen[alg]; !ok {
			t.Errorf("%v is no planner candidate", alg)
		}
	}
	// Radix is not an Algorithm, and the rejection names every accepted
	// spelling.
	_, err := ParseAlgorithm(string(plan.Radix))
	if err == nil {
		t.Fatal("ParseAlgorithm accepted radix")
	}
	for _, pa := range seen {
		if !strings.Contains(err.Error(), "|"+string(pa)) {
			t.Errorf("error %q omits %q", err, pa)
		}
	}
}
