// Package repro is a from-scratch reproduction of "PDM Sorting Algorithms
// That Take A Small Number Of Passes" (Rajasekaran & Sen, IPPS 2005): a
// Parallel Disk Model simulator plus every sorting algorithm the paper
// introduces or compares against, with I/O accounted in the paper's
// currency — passes over the data.
//
// The facade in this package is what a downstream user imports:
//
//	m, _ := repro.NewMachine(repro.MachineConfig{Memory: 1 << 20, Disks: 64})
//	report, _ := m.Sort(keys, repro.Auto)
//	fmt.Printf("sorted %d keys in %.2f passes with %s\n",
//		report.N, report.Passes, report.Algorithm)
//
// The underlying pieces (the pdm simulator, the individual algorithms, the
// baselines, the zero-one principle machinery) live in internal/ packages
// and are exercised by the experiment harness that regenerates every
// empirical claim of the paper: go run ./cmd/experiments.
package repro

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/memsort"
	"repro/internal/par"
	"repro/internal/pdm"
	"repro/internal/plan"
)

// Algorithm selects which of the paper's sorting algorithms to run.
type Algorithm int

const (
	// Auto picks the algorithm the cost model (internal/plan) predicts
	// cheapest for the input: it weighs each candidate's pass count against
	// the padded length its geometry forces — the one-pass memory-load sort
	// when N ≤ M, ExpectedTwoPass, ThreePass2, and so on up to SevenPass.
	// The choice is deterministic for a given (N, M, D, alpha);
	// Machine.Explain shows the ranked table behind it.
	Auto Algorithm = iota
	// ThreePassMesh is the Section 3.1 mesh algorithm (3 passes, ≤ M·√M).
	ThreePassMesh
	// TwoPassMeshExpected is the Section 3.2 variant (2 passes w.h.p.).
	TwoPassMeshExpected
	// ThreePassLMM is the Section 4 LMM algorithm (3 passes, ≤ M·√M).
	ThreePassLMM
	// TwoPassExpected is the Section 5 algorithm (2 passes w.h.p.).
	TwoPassExpected
	// ThreePassExpected is the Section 6 algorithm (3 passes w.h.p.,
	// ~M^1.75 keys).
	ThreePassExpected
	// SevenPass is the Section 6.1 algorithm (7 passes, ≤ M² keys).
	SevenPass
	// SixPassExpected is the Section 6.2 algorithm (6 passes w.h.p.).
	SixPassExpected
	// SevenPassMesh is the mesh-based seven-pass variant realizing the
	// paper's Section 6.2 Remark (mesh superruns under the LMM outer
	// merge; 7 passes, ≤ M² keys).
	SevenPassMesh
	// MemOnePass is the planner's degenerate regime: N ≤ M sorts in a
	// single load-sort-store (one read pass, one write pass).  The paper
	// takes this case as given; Auto chooses it whenever the input fits in
	// internal memory instead of running a multi-pass algorithm on one run.
	MemOnePass
)

// algorithms is the one table of the paper's algorithms, indexed by
// Algorithm: the paper name String returns, the planner's candidate name
// (also the CLI and wire spelling ParseAlgorithm accepts), and the
// internal/core entry point Sort runs.  Auto has neither of the last two:
// Sort resolves it through the planner first.  The enum values are part
// of the wire format (Report.Algorithm encodes as the integer), so rows
// are only ever appended.
var algorithms = [...]struct {
	name string
	plan plan.Alg
	run  func(*pdm.Array, *pdm.Stripe) (*core.Result, error)
}{
	Auto:                {"Auto", "", nil},
	ThreePassMesh:       {"ThreePass1", plan.Mesh3, core.ThreePass1},
	TwoPassMeshExpected: {"ExpThreePass1 (2-pass mesh)", plan.Mesh2e, core.ExpTwoPassMesh},
	ThreePassLMM:        {"ThreePass2", plan.LMM3, core.ThreePass2},
	TwoPassExpected:     {"ExpectedTwoPass", plan.Exp2, core.ExpectedTwoPass},
	ThreePassExpected:   {"ExpectedThreePass", plan.Exp3, core.ExpectedThreePass},
	SevenPass:           {"SevenPass", plan.Seven, core.SevenPass},
	SixPassExpected:     {"ExpectedSixPass", plan.Six, core.ExpectedSixPass},
	SevenPassMesh:       {"SevenPassMesh (Remark 6.2)", plan.SevenMesh, core.SevenPassMesh},
	MemOnePass:          {"OnePass (memory load)", plan.OnePass, core.OnePass},
}

// known reports whether alg is a row of the algorithm table.
func (alg Algorithm) known() bool { return alg >= 0 && int(alg) < len(algorithms) }

// String names the algorithm as in the paper.
func (alg Algorithm) String() string {
	if !alg.known() {
		return fmt.Sprintf("Algorithm(%d)", int(alg))
	}
	return algorithms[alg].name
}

// ParseAlgorithm maps the CLI/service short names to Algorithm values:
// "auto" (or "") is Auto, and every other name is the planner's candidate
// name in that algorithm's table row.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "auto" || name == "" {
		return Auto, nil
	}
	if alg, ok := algFromPlan(plan.Alg(name)); ok {
		return alg, nil
	}
	want := []string{"auto"}
	for _, row := range algorithms[Auto+1:] {
		want = append(want, string(row.plan))
	}
	return 0, fmt.Errorf("repro: unknown algorithm %q (want %s)", name, strings.Join(want, "|"))
}

// planAlg maps the facade enum onto the planner's candidate names (the
// same short spellings ParseAlgorithm accepts); "" for Auto and unknown
// values.
func (alg Algorithm) planAlg() plan.Alg {
	if !alg.known() {
		return ""
	}
	return algorithms[alg].plan
}

// algFromPlan is planAlg's inverse; ok is false for plan.Radix, which is
// not an Algorithm (SortInts is its entry point).
func algFromPlan(a plan.Alg) (Algorithm, bool) {
	for alg, row := range algorithms {
		if row.plan != "" && row.plan == a {
			return Algorithm(alg), true
		}
	}
	return 0, false
}

// MachineConfig describes the simulated PDM.
type MachineConfig struct {
	// Memory is the internal memory M in keys; it must be a perfect square
	// (the paper's algorithms use block size B = √M).
	Memory int
	// Disks is D; it must divide √M (so M = C·D·B with integer C).
	// Zero selects √M/4, the paper's running example C = 4.
	Disks int
	// Alpha is the confidence parameter of the probabilistic algorithms
	// (failure probability ≤ M^−α).  Zero means 1.
	Alpha float64
	// Dir, when non-empty, backs each disk with a real file in that
	// directory (one goroutine per disk performs the parallel I/O);
	// otherwise disks are simulated in memory.
	Dir string
	// Backend selects the file-backed disk implementation when Dir is set:
	// BackendFile (the default, read/write syscalls through pdm.FileDisk)
	// or BackendMmap (memory-mapped pdm.MmapDisk with zero-copy views on
	// the streaming paths).  Both produce byte-identical scratch files and
	// bit-identical reports; only wall-clock differs.  Must be empty for
	// in-memory machines.
	Backend string
	// Pipeline configures the streaming I/O layer: depths > 0 overlap
	// prefetch and write-behind with computation on every pass.  Pass
	// accounting is unaffected — the PDM cost model charges the same steps
	// whether or not a transfer was overlapped — but wall-clock time on
	// file-backed disks improves and Report gains overlap metrics.
	Pipeline PipelineConfig
	// Workers sizes the compute worker pool every in-memory kernel runs on
	// (run formation sorts, partitioned k-way merges, shuffles, radix
	// counting); zero selects GOMAXPROCS.  Output, pass counts, statistics,
	// and I/O traces are bit-identical for any worker count — parallelism
	// changes wall-clock only — and Report gains compute metrics.
	Workers int
	// BlockLatency, when positive, decorates every disk with a fixed
	// per-block service time (pdm.LatencyDisk), modeling positioning and
	// transfer latency on top of either backend.  Pass accounting is
	// unaffected; wall-clock slows, which the scheduler tests use to
	// exercise cancellation promptness and the benchmarks to show overlap.
	BlockLatency time.Duration
	// Kernel selects the in-memory sort kernel run formation and the
	// planner price: KernelComparison (introsort + symmetric merges),
	// KernelRadix (LSD byte radix), or KernelAuto (the default — a
	// deterministic pick from the memory-load size alone, independent of
	// workers, backend, and probe noise).  Like Workers and Backend, the
	// kernel changes wall-clock only: output, pass counts, statistics, and
	// I/O traces are bit-identical for every choice.
	Kernel string
	// ReuseDisks opens the disk files already in Dir instead of truncating
	// them — the resume path: a machine rebuilt over the scratch a crashed
	// or suspended job left behind, so a checkpoint manifest can re-adopt
	// its stripes.  Requires Dir and the file backend.
	ReuseDisks bool
}

// PipelineConfig sizes the streaming I/O layer.  Depths are in stripes
// (Disks·√Memory keys each); the staging comes out of the machine's metered
// internal memory, on top of the algorithms' own envelope.  Zero depths
// mean fully synchronous I/O.
type PipelineConfig struct {
	// Prefetch is the number of stripe buffers a streamed read may run
	// ahead of the consumer.
	Prefetch int
	// WriteBehind is the number of stripe buffers a streamed write may lag
	// behind the producer.
	WriteBehind int
}

// Disk backend names for MachineConfig.Backend, SchedulerConfig.Backend,
// and JobSpec.Backend.
const (
	// BackendFile is the read/write-syscall file backend (pdm.FileDisk).
	BackendFile = "file"
	// BackendMmap is the memory-mapped file backend (pdm.MmapDisk).
	BackendMmap = "mmap"
)

// validBackend reports whether name is a recognized backend selector
// (empty means the default for the machine's Dir setting).
func validBackend(name string) bool {
	return name == "" || name == BackendFile || name == BackendMmap
}

// backendKind maps a facade backend selector onto the planner's kind.
func backendKind(fileBacked bool, backend string) plan.Backend {
	if !fileBacked {
		return plan.BackendMem
	}
	if backend == BackendMmap {
		return plan.BackendMmap
	}
	return plan.BackendFile
}

// Compute kernel names for MachineConfig.Kernel, SchedulerConfig.Kernel,
// and JobSpec.Kernel.
const (
	// KernelAuto picks deterministically from the machine shape (the
	// memory-load size); the empty string means the same.
	KernelAuto = "auto"
	// KernelComparison is the comparison introsort kernel.
	KernelComparison = "comparison"
	// KernelRadix is the LSD byte-radix kernel.
	KernelRadix = "radix"
)

// validKernel reports whether name is a recognized kernel selector (empty
// means Auto).
func validKernel(name string) bool {
	return name == "" || name == KernelAuto || name == KernelComparison || name == KernelRadix
}

// kernelKind resolves a facade kernel selector onto the planner's concrete
// kernel: Auto (and the empty string) resolve through plan.ChooseKernel, the
// single deterministic Auto rule, from the memory-load size alone.
func kernelKind(kernel string, mem int) plan.Kernel {
	switch kernel {
	case KernelComparison:
		return plan.KernelComparison
	case KernelRadix:
		return plan.KernelRadix
	default:
		return plan.ChooseKernel(plan.Shape{Mem: mem})
	}
}

// Machine is a PDM plus the paper's algorithm suite.
type Machine struct {
	a     *pdm.Array
	alpha float64
	cfg   MachineConfig
}

// ErrKeyRange is returned when input keys collide with the reserved
// sentinel (MaxInt64, used for padding partial blocks).
var ErrKeyRange = errors.New("repro: keys must be smaller than MaxInt64")

// NewMachine builds a Machine from cfg.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	return newMachine(cfg, nil)
}

// newMachine is NewMachine with the worker pool optionally attached to a
// shared cross-job limiter — the constructor the scheduler builds per-job
// machines with.
func newMachine(cfg MachineConfig, lim *par.Limiter) (*Machine, error) {
	pcfg, alpha, err := resolveConfig(cfg)
	if err != nil {
		return nil, err
	}
	pcfg.Limiter = lim
	var disks []pdm.Disk
	switch {
	case cfg.ReuseDisks:
		disks, err = pdm.OpenFileDisks(cfg.Dir, pcfg.D, pcfg.B)
	case cfg.Backend == BackendMmap:
		disks, err = pdm.NewMmapDisks(cfg.Dir, pcfg.D, pcfg.B)
	case cfg.Dir != "":
		disks, err = pdm.NewFileDisks(cfg.Dir, pcfg.D, pcfg.B)
	default:
		disks = pdm.NewMemDisks(pcfg.D, pcfg.B)
	}
	if err != nil {
		return nil, err
	}
	if cfg.BlockLatency > 0 {
		for i, d := range disks {
			disks[i] = pdm.LatencyDisk{Disk: d, PerBlock: cfg.BlockLatency}
		}
	}
	a, err := pdm.NewWithDisks(pcfg, disks)
	if err != nil {
		return nil, err
	}
	return &Machine{a: a, alpha: alpha, cfg: cfg}, nil
}

// resolveConfig is the one validator of a machine's knobs: it checks
// every field of cfg and resolves it to the pdm configuration (without
// backend-specific fields) plus the effective alpha.  NewMachine, and the
// scheduler for its defaults and for each job's merged overrides, call it
// before any resources exist.
func resolveConfig(cfg MachineConfig) (pdm.Config, float64, error) {
	b := memsort.Isqrt(cfg.Memory)
	d := cfg.Disks
	if d == 0 {
		d = max(b/4, 1)
	}
	var err error
	switch {
	case cfg.Memory < 1 || b*b != cfg.Memory:
		err = fmt.Errorf("repro: Memory = %d is not a positive perfect square", cfg.Memory)
	case d < 1:
		err = fmt.Errorf("repro: Disks = %d, want >= 1", d)
	case b%d != 0:
		err = fmt.Errorf("repro: Disks = %d does not divide sqrt(Memory) = %d", d, b)
	case cfg.Workers < 0:
		err = fmt.Errorf("repro: Workers = %d, want >= 0", cfg.Workers)
	case cfg.Pipeline.Prefetch < 0 || cfg.Pipeline.WriteBehind < 0:
		err = fmt.Errorf("repro: pipeline depths %+v, want >= 0", cfg.Pipeline)
	case cfg.BlockLatency < 0:
		err = fmt.Errorf("repro: BlockLatency = %v, want >= 0", cfg.BlockLatency)
	case !validBackend(cfg.Backend):
		err = fmt.Errorf("repro: unknown backend %q (want %q or %q)", cfg.Backend, BackendFile, BackendMmap)
	case cfg.Backend != "" && cfg.Dir == "":
		err = fmt.Errorf("repro: backend %q requires Dir (in-memory machines have no disk backend)", cfg.Backend)
	case cfg.ReuseDisks && (cfg.Dir == "" || cfg.Backend == BackendMmap):
		err = fmt.Errorf("repro: ReuseDisks requires Dir and the file backend")
	case !validKernel(cfg.Kernel):
		err = fmt.Errorf("repro: unknown kernel %q (want %q, %q, or %q)", cfg.Kernel, KernelAuto, KernelComparison, KernelRadix)
	}
	if err != nil {
		return pdm.Config{}, 0, err
	}
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 1
	}
	return pdm.Config{D: d, B: b, Mem: cfg.Memory,
		Pipeline: pdm.PipelineConfig{
			Prefetch:    cfg.Pipeline.Prefetch,
			WriteBehind: cfg.Pipeline.WriteBehind,
		},
		Workers: cfg.Workers,
		Kernel:  plan.ParKernel(kernelKind(cfg.Kernel, cfg.Memory))}, alpha, nil
}

// Validate reports the first unusable knob of cfg: the check NewMachine
// makes before it creates anything, for callers that want to reject a
// configuration before doing other work.
func (cfg MachineConfig) Validate() error {
	_, _, err := resolveConfig(cfg)
	return err
}

// Array exposes the underlying PDM array for harnesses that need direct
// access (statistics, stripes).
func (m *Machine) Array() *pdm.Array { return m.a }

// Kernel returns the resolved compute kernel this machine sorts memory
// loads with ("comparison" or "radix"): the configured one, or Auto's
// deterministic pick from the memory-load size.
func (m *Machine) Kernel() string { return m.a.Pool().Kernel().String() }

// Close releases the disks (removing nothing; file-backed disks stay on
// disk for inspection).
func (m *Machine) Close() error { return m.a.Close() }

// Report describes one sorting run.
type Report struct {
	// Algorithm is the algorithm that produced the result (the concrete
	// choice when Auto was requested).
	Algorithm Algorithm
	// N is the number of user keys sorted (before padding).
	N int
	// Passes, ReadPasses and WritePasses are measured in the paper's
	// currency over the padded length.
	Passes      float64
	ReadPasses  float64
	WritePasses float64
	// FellBack reports that a probabilistic algorithm detected a cleanup
	// overflow and re-sorted with its deterministic fallback.
	FellBack bool
	// IO is the raw I/O accounting.
	IO pdm.Stats
	// PaddedN is the on-disk length after padding to the algorithm's
	// geometry (sentinel keys are stripped from the returned data).
	PaddedN int
	// Pipeline observability (all zero when the machine runs synchronous
	// I/O).  PrefetchHits counts streamed read chunks whose data had
	// already landed when the algorithm asked for them, PrefetchStalls
	// those it had to wait for; WriteStalls counts streamed writes that
	// waited for staging.  Overlap = hits/(hits+stalls) — the fraction of
	// read latency the pipeline hid (1 when nothing streamed).
	PrefetchHits   int64
	PrefetchStalls int64
	WriteStalls    int64
	Overlap        float64
	// Compute observability (all zero/1 when the machine runs a single
	// worker or the inputs are too small to parallelize).  Workers is the
	// machine's resolved worker-pool width; ComputeSeconds the wall time
	// spent inside parallel compute sections; WorkerUtilization the busy
	// fraction of the pool over those sections.  Like the pipeline
	// counters, these are scheduling-dependent and excluded from the
	// bit-identical determinism guarantee.
	Workers           int
	ComputeSeconds    float64
	WorkerUtilization float64
	// Scenario names the query scenario that produced this report ("topk",
	// "quantile", "groupby", "ingest"; empty for plain sorts) and
	// ScenarioRoute the strategy it ran ("filter", "onepass", "partition",
	// "merge", or "fullsort" when the planner priced the scenario out or a
	// sampling miss fell back — the FellBack flag distinguishes the two).
	Scenario      string
	ScenarioRoute string
	// Records observability (SortRecords and SortPairs only; zero for the
	// key-only entry points).  KeyRounds counts the packed key+index sorts
	// the record sort ran (1 unless keys needed all 64 bits, in which case
	// it is the number of LSD digit rounds); PayloadWords is the payload
	// volume, in 8-byte words, the external permutation moved; and
	// PermutePasses prices that movement in the paper's currency — charged
	// parallel steps times the stripe width over the padded payload store.
	// The permutation's raw I/O is folded into IO; Passes/ReadPasses/
	// WritePasses remain the key sort's counts.
	KeyRounds     int
	PayloadWords  int
	PermutePasses float64
}

// pipelineMetrics fills the Report's overlap and compute counters from the
// measured I/O delta.
func (r *Report) pipelineMetrics(io pdm.Stats, workers int) {
	r.PrefetchHits = io.PrefetchHits
	r.PrefetchStalls = io.PrefetchStalls
	r.WriteStalls = io.WriteBehindStalls
	r.Overlap = io.Overlap()
	r.Workers = workers
	r.ComputeSeconds = io.ComputeSeconds()
	r.WorkerUtilization = io.WorkerUtilization(workers)
}

// Capacity returns the largest number of keys the given algorithm sorts on
// this machine within its advertised pass count (for the probabilistic
// algorithms, the largest size whose Lemma 4.2 window still fits, i.e. the
// reliable regime at the machine's α).
func (m *Machine) Capacity(alg Algorithm) int {
	return capacityFor(m.a.Mem(), m.alpha, alg)
}

// capacityFor is Capacity as a pure function of the geometry, shared with
// the scheduler's submit-time planning.
func capacityFor(mem int, alpha float64, alg Algorithm) int {
	if alg == Auto {
		return mem * mem
	}
	return plan.Capacity(mem, alpha, alg.planAlg())
}

// Plan returns the algorithm Auto would choose for n keys: the candidate
// the cost model predicts cheapest, accounting for each algorithm's pass
// count and the padding its geometry forces.  The choice is deterministic
// — independent of calibration, worker count, and backend — so Auto runs
// are reproducible; Explain exposes the full ranked table with calibrated
// wall-time predictions.
func (m *Machine) Plan(n int) Algorithm {
	return planFor(m.a.Mem(), m.a.D(), m.alpha, n)
}

// planFor is Plan as a pure function of the geometry, shared with the
// scheduler's submit-time planning.
func planFor(mem, d int, alpha float64, n int) Algorithm {
	shape := planShape(mem, d, alpha)
	chosen, err := plan.Choose(shape, plan.Workload{N: n})
	if err != nil {
		// Beyond every capacity; Sort will fail with the M² message.  The
		// seven-pass algorithm is the paper's last resort either way.
		return SevenPass
	}
	alg, ok := algFromPlan(chosen)
	if !ok {
		return SevenPass
	}
	return alg
}

// planShape builds the planner's machine shape from the resolved geometry.
func planShape(mem, d int, alpha float64) plan.Shape {
	return plan.Shape{Mem: mem, B: memsort.Isqrt(mem), D: d, Alpha: alpha}
}

// Sort sorts keys in place using the selected algorithm, returning the I/O
// report.  The input is padded on disk to the algorithm's geometry with
// MaxInt64 sentinels (hence ErrKeyRange if any key equals MaxInt64) and the
// padding is stripped before returning.
func (m *Machine) Sort(keys []int64, alg Algorithm) (*Report, error) {
	for _, k := range keys {
		if k == math.MaxInt64 {
			return nil, ErrKeyRange
		}
	}
	if alg == Auto {
		alg = m.Plan(len(keys))
	}
	padded, err := m.padFor(alg, len(keys))
	if err != nil {
		return nil, err
	}
	if padded > m.a.Mem()*m.a.Mem() {
		return nil, fmt.Errorf("repro: %d keys exceed the machine's M^2 = %d capacity", len(keys), m.a.Mem()*m.a.Mem())
	}
	data := make([]int64, padded)
	copy(data, keys)
	for i := len(keys); i < padded; i++ {
		data[i] = math.MaxInt64
	}
	in, err := m.a.NewStripe(padded)
	if err != nil {
		return nil, err
	}
	defer in.Free()
	if err := in.Load(data); err != nil {
		return nil, err
	}
	res, err := algorithms[alg].run(m.a, in)
	if err != nil {
		return nil, err
	}
	defer res.Out.Free()
	out, err := res.Out.Unload()
	if err != nil {
		return nil, err
	}
	copy(keys, out[:len(keys)])
	rep := &Report{
		Algorithm:   alg,
		N:           len(keys),
		Passes:      res.Passes,
		ReadPasses:  res.ReadPasses,
		WritePasses: res.WritePasses,
		FellBack:    res.FellBack,
		IO:          res.IO,
		PaddedN:     padded,
	}
	rep.pipelineMetrics(res.IO, m.a.Workers())
	return rep, nil
}

// SortInts sorts nonnegative integer keys below universe with the paper's
// Section 7 RadixSort (O(1) passes for any input size).
func (m *Machine) SortInts(keys []int64, universe int64) (*Report, error) {
	for _, k := range keys {
		if k < 0 || k >= universe {
			return nil, fmt.Errorf("repro: key %d outside [0, %d)", k, universe)
		}
	}
	// Pad with universe-1 sentinels (largest value) to a stripe multiple.
	b := m.a.B()
	padded := memsort.CeilDiv(len(keys), b) * b
	data := make([]int64, padded)
	copy(data, keys)
	for i := len(keys); i < padded; i++ {
		data[i] = universe - 1
	}
	in, err := m.a.NewStripe(padded)
	if err != nil {
		return nil, err
	}
	defer in.Free()
	if err := in.Load(data); err != nil {
		return nil, err
	}
	res, err := core.RadixSort(m.a, in, universe)
	if err != nil {
		return nil, err
	}
	defer res.Out.Free()
	out, err := res.Out.Unload()
	if err != nil {
		return nil, err
	}
	copy(keys, out[:len(keys)])
	rep := &Report{
		Algorithm:   Auto,
		N:           len(keys),
		Passes:      res.Passes,
		ReadPasses:  res.ReadPasses,
		WritePasses: res.WritePasses,
		IO:          res.IO,
		PaddedN:     padded,
	}
	rep.pipelineMetrics(res.IO, m.a.Workers())
	return rep, nil
}

// padFor returns the smallest on-disk length ≥ n satisfying the
// algorithm's geometry.
func (m *Machine) padFor(alg Algorithm, n int) (int, error) {
	return padForSize(m.a.Mem(), alg, n)
}

// padForSize is padFor as a pure function of the geometry, shared with the
// scheduler's submit-time disk-envelope sizing.  The geometry rules live
// in the planner (internal/plan), which predicts cost from the same padded
// lengths the sort will actually use.
func padForSize(mem int, alg Algorithm, n int) (int, error) {
	pa := alg.planAlg()
	if pa == "" {
		return 0, fmt.Errorf("repro: unknown algorithm %v", alg)
	}
	padded, err := plan.PadFor(mem, pa, n)
	if err != nil {
		return 0, fmt.Errorf("repro: %d keys do not fit %v: %w", n, alg, err)
	}
	return padded, nil
}
