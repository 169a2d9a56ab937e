package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/memsort"
	"repro/internal/pdm"
	"repro/internal/plan"
	"repro/internal/records"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Scheduler sentinel errors, re-exported from the engine so service
// callers can classify rejections without reaching into internal/.
var (
	// ErrQueueFull is Submit's backpressure signal.
	ErrQueueFull = sched.ErrQueueFull
	// ErrSchedulerClosed is returned by Submit after Close.
	ErrSchedulerClosed = sched.ErrClosed
	// ErrJobTooLarge marks a job whose envelope can never fit the budget.
	ErrJobTooLarge = sched.ErrTooLarge
	// ErrDraining is what a job's checkpoint sink returns once Drain has
	// been called: the job stops at that pass boundary and is suspended
	// for the next scheduler life to resume.
	ErrDraining = sched.ErrDraining
)

// SchedulerConfig sizes a Scheduler: the global budgets every concurrent
// sort job is admitted against, and the per-job defaults.
type SchedulerConfig struct {
	// Memory is the global internal-memory budget in keys.  Every running
	// job's whole arena capacity (its machine's M times the slack, plus
	// staging) is carved from this ledger, so the sum over concurrent jobs
	// never exceeds it.  Required.
	Memory int
	// DiskBudget is the global scratch budget in keys; zero selects
	// 64·Memory.
	DiskBudget int
	// Workers is the global compute budget: one par limiter shared by
	// every job's worker pool.  Zero selects GOMAXPROCS.
	Workers int
	// JobMemory is the default per-job internal memory M in keys (a
	// perfect square); zero selects 4096.  A JobSpec may override it.
	JobMemory int
	// Dir, when non-empty, backs each job's disks with real files under
	// Dir/job-NNNN (created at admission, removed when the job finishes);
	// otherwise jobs run on in-memory disks.
	Dir string
	// Backend is the default disk backend for file-backed jobs: BackendFile
	// (zero value) or BackendMmap.  Requires Dir; a JobSpec may override it
	// per job.
	Backend string
	// Kernel is the default compute kernel for every job: KernelAuto
	// (zero value), KernelComparison, or KernelRadix.  A JobSpec may
	// override it per job; results are identical either way.
	Kernel string
	// MaxQueue bounds the admission queue; zero selects 1024.
	MaxQueue int
	// Alpha is the confidence parameter passed to each job's machine.
	Alpha float64
	// Pipeline is the default per-job streaming depth.
	Pipeline PipelineConfig
	// JournalDir, when non-empty, makes jobs durable: every submission,
	// admission, pass checkpoint, and terminal state is fsynced to an
	// append-only log there, and NewScheduler replays it — re-admitting
	// queued jobs in their original order and resuming interrupted jobs
	// from their last completed pass (falling back to a restart from the
	// input when the surviving scratch does not validate).
	JournalDir string
	// JournalCompactBytes triggers a compacting journal snapshot once the
	// log grows past this size; zero selects 4 MiB.
	JournalCompactBytes int64
}

// WorkloadSpec asks the service to generate a job's input instead of
// shipping keys inline, naming a generator from the workload suite.
type WorkloadSpec struct {
	// Kind selects the distribution: "perm" (random permutation),
	// "uniform", "zipf" (skewed duplicates over a scattered hot-key set),
	// "sortedruns" (concatenation of pre-sorted runs), "sorted",
	// "reverse", "nearlysorted", "fewdistinct", or "organ".
	Kind string `json:"kind"`
	// N is the number of keys.
	N int `json:"n"`
	// Seed makes the input reproducible.
	Seed int64 `json:"seed"`
	// S is the Zipf exponent for "zipf" (0 selects 1.2).
	S float64 `json:"s,omitempty"`
	// Distinct bounds the distinct values for "zipf" and "fewdistinct"
	// (0 selects N/16+1).
	Distinct int `json:"distinct,omitempty"`
	// RunLen is the presorted-run length for "sortedruns" and the window
	// for "nearlysorted" (0 selects √N, min 2).
	RunLen int `json:"runlen,omitempty"`
	// Payload, when set, attaches a generated byte payload to every key:
	// the job becomes a full-record sort (SortRecords) whose payloads move
	// through the external permutation pass.
	Payload *PayloadSpec `json:"payload,omitempty"`
}

// PayloadSpec describes generated per-record payloads: each record gets a
// deterministic pseudo-random byte string whose length is uniform in
// [MinBytes, MaxBytes] (fixed-width when they are equal).
type PayloadSpec struct {
	MinBytes int `json:"minBytes"`
	MaxBytes int `json:"maxBytes"`
}

// validate rejects unusable payload bounds at submit time.  MaxBytes also
// bounds the job's disk envelope, so it must be explicit.
func (ps *PayloadSpec) validate() error {
	switch {
	case ps.MinBytes < 0:
		return fmt.Errorf("repro: payload minBytes = %d, want >= 0", ps.MinBytes)
	case ps.MaxBytes < ps.MinBytes:
		return fmt.Errorf("repro: payload maxBytes = %d below minBytes = %d", ps.MaxBytes, ps.MinBytes)
	case ps.MaxBytes > 1<<20:
		return fmt.Errorf("repro: payload maxBytes = %d exceeds the 1 MiB per-record cap", ps.MaxBytes)
	}
	return nil
}

// Materialize builds n payloads from the spec, deterministically in
// (n, seed) — the generator records jobs use server-side, exported for
// harnesses and benchmarks.
func (ps *PayloadSpec) Materialize(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x7061796c6f616421)) // "payload!"
	out := make([][]byte, n)
	for i := range out {
		ln := ps.MinBytes
		if ps.MaxBytes > ps.MinBytes {
			ln += rng.Intn(ps.MaxBytes - ps.MinBytes + 1)
		}
		p := make([]byte, ln)
		rng.Read(p)
		out[i] = p
	}
	return out
}

// Generate materializes the described input.
func (w *WorkloadSpec) Generate() ([]int64, error) {
	if w.N <= 0 {
		return nil, fmt.Errorf("repro: workload n = %d, want > 0", w.N)
	}
	distinct := w.Distinct
	if distinct <= 0 {
		distinct = w.N/16 + 1
	}
	runLen := w.RunLen
	if runLen <= 0 {
		runLen = memsort.Isqrt(w.N)
		if runLen < 2 {
			runLen = 2
		}
	}
	s := w.S
	if !(s > 1) {
		s = 1.2 // rand.NewZipf requires s > 1; clamp untrusted input
	}
	switch w.Kind {
	case "perm", "":
		return workload.Perm(w.N, w.Seed), nil
	case "uniform":
		return workload.Uniform(w.N, -1<<40, 1<<40, w.Seed), nil
	case "zipf":
		return workload.ZipfSkewed(w.N, s, distinct, w.Seed), nil
	case "sortedruns":
		return workload.SortedRuns(w.N, runLen, w.Seed), nil
	case "sorted":
		return workload.Sorted(w.N), nil
	case "reverse":
		return workload.ReverseSorted(w.N), nil
	case "nearlysorted":
		return workload.NearlySorted(w.N, runLen, w.Seed), nil
	case "fewdistinct":
		return workload.FewDistinct(w.N, distinct, w.Seed), nil
	case "organ":
		return workload.Organ(w.N), nil
	default:
		return nil, fmt.Errorf("repro: unknown workload kind %q", w.Kind)
	}
}

// JobSpec describes one sort job.
type JobSpec struct {
	// Keys is the inline input.  The scheduler takes ownership and sorts
	// it in place (no private copy), so callers must not touch the slice
	// until the job finishes.  Exactly one of Keys and Workload is set.
	Keys []int64 `json:"keys,omitempty"`
	// Payloads, when set alongside Keys, makes the job a full-record sort:
	// Payloads[i] rides with Keys[i] through SortRecords and the external
	// permutation pass.  len(Payloads) must equal len(Keys).  The
	// scheduler takes ownership, exactly as with Keys.
	Payloads [][]byte `json:"payloads,omitempty"`
	// Workload generates the input server-side (including per-record
	// payloads when Workload.Payload is set).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Algorithm selects the paper algorithm (Auto plans from N).  Ignored
	// when Universe is set.  On the wire it is "alg", the planner's short
	// name (see ParseAlgorithm).
	Algorithm Algorithm `json:"-"`
	// Universe, when positive, sorts with the Section 7 RadixSort over
	// [0, Universe) instead of a comparison algorithm.  On the wire,
	// "alg":"radix" selects it with a universe of 2^32 unless one is set.
	Universe int64 `json:"universe,omitempty"`
	// Memory and Disks give the job its machine geometry (0 = scheduler
	// defaults).
	Memory int `json:"memory,omitempty"`
	Disks  int `json:"disks,omitempty"`
	// Workers is the job's fan-out width (0 = the scheduler's Workers);
	// execution is arbitrated by the shared limiter either way.
	Workers int `json:"workers,omitempty"`
	// Backend overrides the scheduler's disk backend for this job ("file"
	// or "mmap"); only valid on a file-backed scheduler.
	Backend string `json:"backend,omitempty"`
	// Kernel overrides the scheduler's compute kernel for this job
	// ("auto", "comparison", or "radix").  Wall-clock only: the sorted
	// output and every statistic are bit-identical across kernels.
	Kernel string `json:"kernel,omitempty"`
	// BlockLatency models per-block device latency on the job's disks; on
	// the wire it is "blockLatencyUs", in whole microseconds.
	BlockLatency time.Duration `json:"-"`
	// KeepKeys retains the sorted output for SortedKeys until the
	// scheduler is closed.
	KeepKeys bool `json:"keepKeys,omitempty"`
	// Label tags the job in status reports.
	Label string `json:"label,omitempty"`

	// Scenario, when set, makes this a query-scenario job instead of a
	// sort: "topk", "quantile", "groupby", or "ingest" over Keys (or the
	// workload-generated input).  The machine prices the scenario route
	// against the full sort and runs whichever is cheaper; the result is
	// read back with ScenarioResult.  Scenario jobs exclude Universe and
	// byte Payloads.
	Scenario string `json:"scenario,omitempty"`
	// TopK is the top-K count (Scenario "topk").
	TopK int `json:"topK,omitempty"`
	// Rank is the 1-indexed target rank (Scenario "quantile").
	Rank int `json:"rank,omitempty"`
	// Groups hints the distinct group count for route planning (Scenario
	// "groupby"; <= 0 plans for the worst case).
	Groups int `json:"groups,omitempty"`
	// GroupPayloads is the optional aggregation payload column (Scenario
	// "groupby"): GroupPayloads[i] rides with Keys[i].  Requires inline
	// Keys of the same length.
	GroupPayloads []int64 `json:"groupPayloads,omitempty"`
	// IngestBatch is the new batch folded into the sorted Keys dataset
	// (Scenario "ingest").  Keys must already be ascending.
	IngestBatch []int64 `json:"ingestBatch,omitempty"`
}

// jobSpecFields is JobSpec without its methods: the fields that encode
// under their own tags.
type jobSpecFields JobSpec

// jobSpecJSON is JobSpec's wire form — the POST /jobs body and the
// journal's submission record: the tagged fields plus the two that need
// a spelling of their own.
type jobSpecJSON struct {
	*jobSpecFields
	Alg            string `json:"alg,omitempty"`
	BlockLatencyUs int64  `json:"blockLatencyUs,omitempty"`
}

// MarshalJSON encodes the spec in the form UnmarshalJSON reads.
func (spec JobSpec) MarshalJSON() ([]byte, error) {
	w := jobSpecJSON{jobSpecFields: (*jobSpecFields)(&spec), BlockLatencyUs: spec.BlockLatency.Microseconds()}
	switch {
	case spec.Universe > 0:
		w.Alg = string(plan.Radix)
	case spec.Algorithm != Auto:
		if w.Alg = string(spec.Algorithm.planAlg()); w.Alg == "" {
			return nil, fmt.Errorf("repro: unknown algorithm %v", spec.Algorithm)
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a spec, rejecting unknown fields wherever it is
// decoded: a decoder's DisallowUnknownFields does not reach a custom
// unmarshaler, so the rule lives here.  A universe with a named
// comparison algorithm is a contradiction; with no algorithm (or "auto")
// it selects RadixSort, as the Universe field does.
func (spec *JobSpec) UnmarshalJSON(data []byte) error {
	var f jobSpecFields
	w := jobSpecJSON{jobSpecFields: &f}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	f.BlockLatency = time.Duration(w.BlockLatencyUs) * time.Microsecond
	if w.Alg == string(plan.Radix) {
		if f.Universe == 0 {
			f.Universe = 1 << 32
		}
	} else {
		alg, err := ParseAlgorithm(w.Alg)
		if err != nil {
			return err
		}
		if alg != Auto && f.Universe != 0 {
			return fmt.Errorf("repro: universe is only valid with alg=radix")
		}
		f.Algorithm = alg
	}
	*spec = JobSpec(f)
	return nil
}

// JobState is a job's lifecycle position as the service reports it.
type JobState string

// The job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
	// JobSuspended marks a job Drain stopped at a pass checkpoint; its
	// scratch and journal records survive for the next life to resume.
	JobSuspended JobState = "suspended"
)

// RecoveryInfo records a job's provenance when it came out of the
// journal instead of a live submission.
type RecoveryInfo struct {
	// RecoveredAt is when this scheduler life replayed the job.
	RecoveredAt time.Time `json:"recoveredAt"`
	// WasRunning reports the job had been admitted before the previous
	// life ended.
	WasRunning bool `json:"wasRunning"`
	// ResumedFromPass is the checkpointed pass the rerun actually resumed
	// from (0 until the rerun consumes the manifest, or when it never
	// does).
	ResumedFromPass int `json:"resumedFromPass,omitempty"`
	// RestartedFromInput reports that a formerly-running job could not use
	// its manifest — missing, invalid, or pointing at unusable scratch —
	// and was re-sorted from the input instead.
	RestartedFromInput bool `json:"restartedFromInput,omitempty"`
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID        int      `json:"id"`
	Label     string   `json:"label,omitempty"`
	State     JobState `json:"state"`
	Algorithm string   `json:"algorithm"`
	// Scenario names the query-scenario kind for scenario jobs ("" for
	// sorts); Algorithm then names the sort the job would fall back to.
	Scenario string `json:"scenario,omitempty"`
	N        int    `json:"n"`
	Error    string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`

	// Report is the final sorting report (Done jobs only).
	Report *Report `json:"report,omitempty"`

	// MemReserved and DiskReserved are the admitted envelope;
	// DiskFootprint is the high-water scratch the job actually touched,
	// and ArenaLeak the job machine's arena in-use count at exit — always
	// zero, including for canceled jobs, or the envelope accounting is
	// broken.
	MemReserved   int `json:"memReserved"`
	DiskReserved  int `json:"diskReserved"`
	DiskFootprint int `json:"diskFootprint,omitempty"`
	ArenaLeak     int `json:"arenaLeak,omitempty"`

	// CleanupError reports a scratch-directory removal failure at job
	// teardown: the envelope was released but the directory leaked.
	CleanupError string `json:"cleanupError,omitempty"`

	// Planned is the cost model's prediction for the algorithm the job
	// runs, recorded when the job starts; MeasuredSeconds is the sort's
	// actual wall time and PredictionError the signed relative drift
	// (measured − predicted)/predicted, both set when the job completes.
	// Together they make calibration drift visible per job (aggregate
	// drift is in cmd/benchjson's prediction series).
	Planned         *PlannedJob `json:"planned,omitempty"`
	MeasuredSeconds float64     `json:"measuredSeconds,omitempty"`
	PredictionError float64     `json:"predictionError,omitempty"`

	// Recovery is set on jobs this scheduler life replayed from the
	// journal: whether they had been running, and whether the rerun
	// resumed from a checkpointed pass or restarted from the input.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// PlannedJob summarizes the planner's view of a job: the algorithm it
// runs, the predicted wall seconds and read passes, and whether the
// pricing came from a measured probe (vs the analytic default).
type PlannedJob struct {
	Algorithm        string  `json:"algorithm"`
	PredictedSeconds float64 `json:"predictedSeconds"`
	PredictedPasses  float64 `json:"predictedPasses"`
	Probed           bool    `json:"probed"`
}

// SchedStats aggregates the scheduler's state and the finished jobs'
// reports for the service's stats and metrics endpoints.
type SchedStats struct {
	sched.Stats

	// UptimeSeconds is the scheduler's age; JobsPerSecond is Completed
	// over uptime.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	JobsPerSecond float64 `json:"jobsPerSecond"`

	// KeysSorted sums N over completed jobs; PassesWeighted is the
	// padded-N-weighted average pass count.
	KeysSorted     int64   `json:"keysSorted"`
	PassesWeighted float64 `json:"passesWeighted"`

	// Aggregated pipeline and compute observability over completed jobs.
	PrefetchHits      int64   `json:"prefetchHits"`
	PrefetchStalls    int64   `json:"prefetchStalls"`
	WriteStalls       int64   `json:"writeStalls"`
	ComputeSeconds    float64 `json:"computeSeconds"`
	WorkerUtilization float64 `json:"workerUtilization"`

	// Durability counters, all zero on an unjournaled scheduler.
	// JobsResumed counts recovered jobs whose rerun consumed a checkpoint
	// manifest; JobsRestarted counts recovered formerly-running jobs that
	// had to restart from the input.
	JobsResumed   int `json:"jobsResumed,omitempty"`
	JobsRestarted int `json:"jobsRestarted,omitempty"`

	// Journal health, mirrored from the write-ahead log.
	JournalBytes        int64 `json:"journalBytes,omitempty"`
	JournalSegments     int   `json:"journalSegments,omitempty"`
	JournalAppends      int64 `json:"journalAppends,omitempty"`
	JournalFsyncErrors  int64 `json:"journalFsyncErrors,omitempty"`
	JournalCompactions  int64 `json:"journalCompactions,omitempty"`
	JournalReplayed     int   `json:"journalReplayed,omitempty"`
	JournalTornTails    int   `json:"journalTornTails,omitempty"`
	JournalReplayErrors int   `json:"journalReplayErrors,omitempty"`
}

// Scheduler runs many sort jobs concurrently against shared machine
// budgets: each admitted job gets its own Machine whose arena capacity is
// reserved on the global memory ledger, whose disks live in a per-job
// scratch directory (when file-backed), and whose worker pool shares the
// global compute limiter.  Admission is FIFO with backpressure; see
// internal/sched for the engine.
type Scheduler struct {
	cfg SchedulerConfig
	eng *sched.Scheduler
	jr  *journal.Journal // nil without JournalDir
	t0  time.Time

	mu        sync.Mutex
	jobs      map[int]*schedJob
	agg       aggregate
	resumed   int // recovered jobs whose rerun consumed a manifest
	restarted int // recovered formerly-running jobs restarted from input
}

// aggregate accumulates completed-job report sums under Scheduler.mu.
type aggregate struct {
	keysSorted     int64
	passesDotN     float64 // Σ passes·paddedN
	paddedN        int64
	prefetchHits   int64
	prefetchStalls int64
	writeStalls    int64
	computeNanos   int64
	busyNanos      int64
	wallNanos      int64
}

// schedJob pairs the engine handle with the facade-side result state.
type schedJob struct {
	spec      JobSpec
	scenario  *ScenarioSpec
	alg       Algorithm
	n         int
	isRecords bool
	presorted float64
	handle    *sched.Job
	// resume is the validated checkpoint manifest a recovered job's rerun
	// should try to resume from; nil means run from the input.
	resume *pdm.Checkpoint

	mu        sync.Mutex
	report    *Report
	keys      []int64
	payloads  [][]byte
	scen      *ScenarioResult
	footprint int
	arenaLeak int
	planned   *PlannedJob
	measured  float64
	recovery  *RecoveryInfo
}

// NewScheduler starts a Scheduler.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if cfg.JobMemory == 0 {
		cfg.JobMemory = 4096
	}
	if _, _, err := resolveConfig(cfg.machineConfig(JobSpec{})); err != nil {
		return nil, fmt.Errorf("repro: job defaults: %w", err)
	}
	var jr *journal.Journal
	if cfg.JournalDir != "" {
		var err error
		jr, err = journal.Open(cfg.JournalDir, journal.Options{})
		if err != nil {
			return nil, fmt.Errorf("repro: open journal: %w", err)
		}
		if cfg.JournalCompactBytes == 0 {
			cfg.JournalCompactBytes = 4 << 20
		}
	}
	eng, err := sched.New(sched.Config{
		MemKeys:      cfg.Memory,
		DiskKeys:     cfg.DiskBudget,
		Workers:      cfg.Workers,
		Dir:          cfg.Dir,
		MaxQueue:     cfg.MaxQueue,
		Journal:      jr,
		CompactBytes: cfg.JournalCompactBytes,
	})
	if err != nil {
		if jr != nil {
			jr.Close()
		}
		return nil, err
	}
	s := &Scheduler{cfg: cfg, eng: eng, jr: jr, t0: time.Now(), jobs: make(map[int]*schedJob)}
	s.resubmitRecovered()
	return s, nil
}

// machineConfig merges a job's machine overrides onto the scheduler's
// per-job defaults, for resolveConfig to validate.  Dir marks the job
// file-backed; runJob replaces it with the job's own scratch directory.
func (cfg *SchedulerConfig) machineConfig(spec JobSpec) MachineConfig {
	mc := MachineConfig{
		Memory:       spec.Memory,
		Disks:        spec.Disks,
		Alpha:        cfg.Alpha,
		Dir:          cfg.Dir,
		Backend:      spec.Backend,
		Kernel:       spec.Kernel,
		Workers:      spec.Workers,
		Pipeline:     cfg.Pipeline,
		BlockLatency: spec.BlockLatency,
	}
	if mc.Memory == 0 {
		mc.Memory = cfg.JobMemory
	}
	if mc.Backend == "" {
		mc.Backend = cfg.Backend
	}
	if mc.Kernel == "" {
		mc.Kernel = cfg.Kernel
	}
	return mc
}

// resubmitRecovered replays the engine's recovered set in original FIFO
// order: each job's spec is decoded and resubmitted under its old id,
// with its checkpoint manifest armed when it can actually be resumed.
// Jobs whose spec no longer parses or resolves are retired with a
// terminal record instead of crashing the scheduler in a replay loop.
func (s *Scheduler) resubmitRecovered() {
	for _, rec := range s.eng.Recovered() {
		rec := rec
		var spec JobSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			s.eng.DropRecovered(rec.ID, fmt.Errorf("repro: recovered spec: %w", err))
			continue
		}
		r, err := s.resolveJobSpec(spec)
		if err != nil {
			s.eng.DropRecovered(rec.ID, err)
			continue
		}
		j := r.job(spec)
		j.recovery = &RecoveryInfo{RecoveredAt: time.Now(), WasRunning: rec.WasRunning}
		// Resume needs re-openable scratch with exact block addressing:
		// the file backend, a bare-keys comparison sort, and a manifest
		// that decodes.  Scenario jobs always rerun whole — their charged
		// passes interleave sort and non-sort phases, so a sort checkpoint
		// alone cannot reconstruct the run.  Anything else reruns from the
		// input (the journal still pins the job's identity and FIFO
		// position).
		if rec.WasRunning && len(rec.Checkpoint) > 0 && !r.radix && !j.isRecords &&
			r.scenario == nil && s.cfg.Dir != "" && r.mc.Backend != BackendMmap {
			var cp pdm.Checkpoint
			if err := json.Unmarshal(rec.Checkpoint, &cp); err == nil && cp.Pass > 0 {
				j.resume = &cp
			}
		}
		handle, err := s.eng.Submit(sched.Request{
			ID:       rec.ID,
			Label:    rec.Label,
			MemKeys:  rec.MemKeys,
			DiskKeys: rec.DiskKeys,
			Run: func(ctx context.Context, env sched.Env) error {
				return s.runJob(ctx, env, j, r.mc)
			},
		})
		if err != nil {
			s.eng.DropRecovered(rec.ID, err)
			continue
		}
		j.handle = handle
		s.mu.Lock()
		s.jobs[handle.ID()] = j
		s.mu.Unlock()
	}
}

// jobResolution is a validated JobSpec: the machine configuration the job
// will run with, the resolved algorithm and geometry, and the envelope
// inputs — shared by Submit (admission) and Explain (dry-run planning).
type jobResolution struct {
	mc    MachineConfig
	pcfg  pdm.Config
	alpha float64
	n     int
	alg   Algorithm
	radix bool
	// payloadWords bounds the payload store a records job spills; -1 means
	// the job sorts bare keys.
	payloadWords int
	padded       int
	disk         int
	presorted    float64
	// scenario is the validated query scenario the job answers (nil for
	// plain sorts), priced for envelope sizing and planning.
	scenario *ScenarioSpec
}

// job builds the scheduler-side state of a job resolved from spec.
func (r *jobResolution) job(spec JobSpec) *schedJob {
	return &schedJob{spec: spec, scenario: r.scenario, alg: r.alg, n: r.n,
		isRecords: r.payloadWords >= 0, presorted: r.presorted}
}

// resolveJobSpec validates spec and resolves everything admission and
// planning need, without materializing any data.
func (s *Scheduler) resolveJobSpec(spec JobSpec) (*jobResolution, error) {
	r := &jobResolution{n: len(spec.Keys), payloadWords: -1}
	if spec.Payloads != nil {
		if spec.Workload != nil {
			return nil, fmt.Errorf("repro: inline payloads require inline keys, not a workload")
		}
		if len(spec.Payloads) != r.n {
			return nil, fmt.Errorf("repro: %d keys but %d payloads", r.n, len(spec.Payloads))
		}
		r.payloadWords = records.PayloadWords(spec.Payloads)
	}
	if spec.Workload != nil {
		if r.n > 0 {
			return nil, fmt.Errorf("repro: JobSpec has both inline keys and a workload")
		}
		if _, err := (&WorkloadSpec{Kind: spec.Workload.Kind, N: 1}).Generate(); err != nil {
			return nil, err // unknown kind, reported at submit time
		}
		r.n = spec.Workload.N
		r.presorted = presortedHint(spec.Workload.Kind)
		if ps := spec.Workload.Payload; ps != nil {
			if err := ps.validate(); err != nil {
				return nil, err
			}
			r.payloadWords = r.n * ((ps.MaxBytes + 7) / 8)
		}
	}
	if spec.Scenario != "" {
		if err := resolveScenario(spec, r); err != nil {
			return nil, err
		}
		r.n += r.scenario.Batch
	} else if len(spec.IngestBatch) > 0 || spec.GroupPayloads != nil {
		return nil, fmt.Errorf("repro: ingestBatch/groupPayloads are only valid on scenario jobs")
	}
	if r.n <= 0 {
		return nil, fmt.Errorf("repro: empty job (no keys, no workload)")
	}
	if r.payloadWords >= 0 && spec.Universe > 0 {
		return nil, fmt.Errorf("repro: record payloads need a comparison sort, not RadixSort (universe)")
	}
	r.mc = s.cfg.machineConfig(spec)
	var err error
	r.pcfg, r.alpha, err = resolveConfig(r.mc)
	if err != nil {
		return nil, err
	}
	if spec.Universe < 0 {
		return nil, fmt.Errorf("repro: universe %d, want > 0", spec.Universe)
	}
	r.alg = spec.Algorithm
	if spec.Universe > 0 {
		if spec.Universe > math.MaxInt64-1 {
			return nil, fmt.Errorf("repro: universe %d out of range", spec.Universe)
		}
		r.radix = true
		r.padded = memsort.CeilDiv(r.n, r.pcfg.B) * r.pcfg.B
	} else {
		if r.alg == Auto {
			r.alg = planFor(r.pcfg.Mem, r.pcfg.D, r.alpha, r.n)
		}
		r.padded, err = padForSize(r.pcfg.Mem, r.alg, r.n)
		if err != nil {
			return nil, err
		}
	}
	// The disk envelope is the planner's per-algorithm scratch prediction —
	// tighter than the old per-family worst case, so a large job blocks the
	// FIFO head for less budget than before.  A records job's payload spill
	// runs after the key sort's stripes are freed, so its scratch
	// high-water is the larger of the two phases.
	planAlg := r.alg.planAlg()
	if r.radix {
		planAlg = plan.Radix
	}
	r.disk = plan.DiskEnvelope(planAlg, r.padded, r.pcfg.D*r.pcfg.B)
	if r.payloadWords >= 0 {
		if env := records.DiskEnvelope(r.n, r.payloadWords, r.pcfg.Mem, r.pcfg.D, r.pcfg.B); env > r.disk {
			r.disk = env
		}
	}
	if sc := r.scenario; sc != nil {
		// The scenario driver's own rules, checked against the job's inline
		// columns before anything is admitted.
		shape := planShape(r.pcfg.Mem, r.pcfg.D, r.alpha)
		in := scenarioInput{keys: spec.Keys, payloads: spec.GroupPayloads, batch: spec.IngestBatch}
		if _, err := scenarioPlanFor(shape, *sc, in); err != nil {
			return nil, err
		}
		// A scenario job's scratch high-water is the larger of its scenario
		// route and the full-sort route it may fall back to (computed above).
		if env := plan.ScenarioDiskEnvelope(sc.Kind, shape, sc.N, sc.Batch, sc.pairWords()); env > r.disk {
			r.disk = env
		}
		if sc.pairWords() == 2 {
			// The group-by sort route carries the payload column as one
			// 8-byte record payload per key.
			if env := records.DiskEnvelope(sc.N, sc.N, r.pcfg.Mem, r.pcfg.D, r.pcfg.B); env > r.disk {
				r.disk = env
			}
		}
	}
	return r, nil
}

// resolveScenario resolves the scenario fields of spec into r.scenario,
// after the rules that concern where a scenario job's input comes from;
// the kind→parameter rules are the scenario driver's (scenarioPlanFor),
// checked once the job's geometry is resolved.
func resolveScenario(spec JobSpec, r *jobResolution) error {
	if spec.Universe != 0 {
		return fmt.Errorf("repro: scenario %q jobs use comparison sorts, not RadixSort (universe)", spec.Scenario)
	}
	if r.payloadWords >= 0 {
		return fmt.Errorf("repro: scenario %q jobs take no byte payloads (group-by aggregates groupPayloads)", spec.Scenario)
	}
	if w := spec.Workload; w != nil {
		if spec.GroupPayloads != nil {
			return fmt.Errorf("repro: groupPayloads require inline keys, not a workload")
		}
		if spec.Scenario == "ingest" && w.Kind != "sorted" {
			return fmt.Errorf("repro: ingest needs a sorted dataset; workload kind %q is not %q", w.Kind, "sorted")
		}
	}
	r.scenario = &ScenarioSpec{Kind: spec.Scenario, N: r.n, K: spec.TopK, Rank: spec.Rank,
		Groups: spec.Groups, PairWords: 1, Batch: len(spec.IngestBatch)}
	if spec.GroupPayloads != nil {
		r.scenario.PairWords = 2
	}
	return nil
}

// presortedHint maps a workload kind onto the planner's presortedness
// hint: how much existing order the generator's output carries.
func presortedHint(kind string) float64 {
	switch kind {
	case "sorted":
		return 1
	case "nearlysorted":
		return 0.8
	case "sortedruns":
		return 0.5
	default:
		return 0
	}
}

// Submit enqueues a job and returns its id.  The job's memory envelope is
// its machine's whole arena capacity and its disk envelope the planner's
// per-algorithm scratch prediction; admission waits (FIFO) until both fit
// the global budgets.  Backpressure surfaces as sched.ErrQueueFull.
func (s *Scheduler) Submit(spec JobSpec) (int, error) {
	r, err := s.resolveJobSpec(spec)
	if err != nil {
		return 0, err
	}
	j := r.job(spec)
	var specBytes []byte
	if s.jr != nil {
		// The resolved algorithm (not the submitted Auto) is journaled, so a
		// recovered job reruns exactly what this life planned.
		// MarshalJSON is called directly: json.Marshal would rescan its
		// whole output, keys included.
		rec := spec
		rec.Algorithm = r.alg
		specBytes, err = rec.MarshalJSON()
		if err != nil {
			return 0, fmt.Errorf("repro: journal spec: %w", err)
		}
	}
	handle, err := s.eng.Submit(sched.Request{
		Label:    spec.Label,
		MemKeys:  r.pcfg.ArenaCapacity(),
		DiskKeys: r.disk,
		Spec:     specBytes,
		Run: func(ctx context.Context, env sched.Env) error {
			return s.runJob(ctx, env, j, r.mc)
		},
	})
	if err != nil {
		return 0, err
	}
	j.handle = handle
	s.mu.Lock()
	s.jobs[handle.ID()] = j
	s.mu.Unlock()
	return handle.ID(), nil
}

// Explain dry-runs the planner for a JobSpec without admitting anything:
// the ranked candidate table for the job's machine and workload shapes,
// priced with the (cached) calibration for the scheduler's backend.  pdmd
// serves it as GET /plan.
func (s *Scheduler) Explain(spec JobSpec) (*PlanReport, error) {
	r, err := s.resolveJobSpec(spec)
	if err != nil {
		return nil, err
	}
	sortSpec := SortSpec{N: r.n, Universe: spec.Universe, Presorted: r.presorted}
	if r.payloadWords > 0 {
		sortSpec.PayloadWords = r.payloadWords
	}
	// The workers the job machine would resolve to (runJob falls back to
	// the engine's global width), so this dry-run keys the same
	// calibration-cache entry as the job's own recorded prediction.
	workers := r.mc.Workers
	if workers == 0 {
		workers = s.eng.Stats().Workers
	}
	// The Chosen pin is what the submitted job actually runs: the resolved
	// algorithm (the Auto path's pick, or the spec's forced one).
	return explainOn(r.mc, r.pcfg.D, workers, r.alpha, sortSpec, r.alg)
}

// runJob is the job body executed by the engine once admitted.  A
// recovered job with a validated manifest first attempts to resume over
// its surviving scratch files; if that attempt fails for any reason other
// than cancellation or a drain, the scratch is considered unusable and
// the job restarts from the input on a fresh machine.
func (s *Scheduler) runJob(ctx context.Context, env sched.Env, j *schedJob, mc MachineConfig) error {
	keys := j.spec.Keys
	payloads := j.spec.Payloads
	if j.spec.Workload != nil {
		var err error
		keys, err = j.spec.Workload.Generate()
		if err != nil {
			return err
		}
		if ps := j.spec.Workload.Payload; ps != nil {
			payloads = ps.Materialize(len(keys), j.spec.Workload.Seed)
		}
	}
	mc.Dir = env.Dir
	if mc.Workers == 0 {
		mc.Workers = env.Workers
	}
	m, rep, wall, err := s.sortAttempt(ctx, env, j, mc, keys, payloads, j.resume)
	switch {
	case j.resume != nil && err == nil:
		if m.Array().ResumeConsumed() {
			s.noteRecovery(j, j.resume.Pass)
		} else {
			s.noteRecovery(j, 0)
		}
	case j.resume != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, sched.ErrDraining):
		// The manifest (or the scratch behind it) let the resumed run
		// down; rerun from the input on truncated disks.  A cancellation
		// or drain mid-resume is not a fallback trigger — the manifest
		// stays good for the next life.
		if m != nil {
			m.Close()
		}
		s.noteRecovery(j, 0)
		m, rep, wall, err = s.sortAttempt(ctx, env, j, mc, keys, payloads, nil)
	case j.resume == nil && j.recovery != nil && j.recovery.WasRunning:
		s.noteRecovery(j, 0)
	}
	if m == nil {
		return err
	}
	defer m.Close()
	foot := m.Array().DiskFootprint()
	leak := m.Array().Arena().InUse()
	j.mu.Lock()
	j.footprint = foot
	j.arenaLeak = leak
	if err == nil {
		j.measured = wall
		j.report = rep
		// Scenario jobs retain their (small or KeepKeys-gated) results on
		// j.scen instead; the input keys are not the output.
		if j.spec.KeepKeys && j.spec.Scenario == "" {
			j.keys = keys
			if j.isRecords {
				j.payloads = payloads
			}
		}
	}
	// The finished job's handle lives in the jobs map for status queries;
	// drop the inline input slices so a long-running service does not
	// retain every job's keys and payload bytes forever (KeepKeys results
	// live on j.keys/j.payloads instead).
	j.spec.Keys = nil
	j.spec.Payloads = nil
	j.spec.GroupPayloads = nil
	j.spec.IngestBatch = nil
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if leak != 0 {
		return fmt.Errorf("repro: job %d leaked %d arena keys", env.JobID, leak)
	}
	s.mu.Lock()
	s.agg.keysSorted += int64(rep.N)
	s.agg.passesDotN += rep.Passes * float64(rep.PaddedN)
	s.agg.paddedN += int64(rep.PaddedN)
	s.agg.prefetchHits += rep.PrefetchHits
	s.agg.prefetchStalls += rep.PrefetchStalls
	s.agg.writeStalls += rep.WriteStalls
	s.agg.computeNanos += int64(rep.ComputeSeconds * 1e9)
	s.agg.wallNanos += rep.IO.ComputeWallNanos
	s.agg.busyNanos += rep.IO.ComputeBusyNanos
	s.mu.Unlock()
	return nil
}

// sortAttempt runs one machine-building attempt of the job body: fresh
// truncated disks when resume is nil, reopened surviving scratch (with
// the manifest armed) otherwise.  Every pass boundary the machine reports
// is marshaled into the engine's journal through env.Checkpoint.  The
// machine is returned even on error so the caller can decide between
// fallback and teardown; it is nil only when construction itself failed.
func (s *Scheduler) sortAttempt(ctx context.Context, env sched.Env, j *schedJob, mc MachineConfig,
	keys []int64, payloads [][]byte, resume *pdm.Checkpoint) (*Machine, *Report, float64, error) {
	mc.ReuseDisks = resume != nil
	m, err := newMachine(mc, env.Limiter)
	if err != nil {
		return nil, nil, 0, err
	}
	m.Array().SetCheckpointer(func(cp pdm.Checkpoint) error {
		data, merr := json.Marshal(cp)
		if merr != nil {
			return nil // unshippable manifest: skip the boundary, keep sorting
		}
		return env.Checkpoint(data)
	})
	if resume != nil {
		m.Array().SetResume(resume)
	}
	j.recordPlan(m, keys, payloads)
	t0 := time.Now()
	var rep *Report
	switch {
	case j.scenario != nil:
		rep, err = s.runScenario(ctx, m, j, keys)
	case j.spec.Universe > 0:
		rep, err = m.SortIntsContext(ctx, keys, j.spec.Universe)
	case j.isRecords:
		rep, err = m.SortRecordsContext(ctx, keys, payloads, j.alg)
	default:
		rep, err = m.SortContext(ctx, keys, j.alg)
	}
	return m, rep, time.Since(t0).Seconds(), err
}

// ScenarioResult is a completed scenario job's answer, readable with
// Scheduler.ScenarioResult until the scheduler is closed.
type ScenarioResult struct {
	// Kind is the scenario that ran.
	Kind string `json:"kind"`
	// Keys is the top-K result in ascending order, or (for jobs submitted
	// with KeepKeys) the merged ingest output.
	Keys []int64 `json:"keys,omitempty"`
	// Value is the selected quantile key.
	Value *int64 `json:"value,omitempty"`
	// Groups is the group-by aggregation, sorted by key.
	Groups []GroupAgg `json:"groups,omitempty"`
}

// runScenario runs a scenario job through the machine's scenario driver,
// bound to ctx with SortContext's abort semantics, and stores the result
// on the job.  Top-K, quantile, and group-by results are always retained
// (they are bounded by the scenario budget, not the input size); the
// merged ingest output is retained only under KeepKeys, like a sort's.
func (s *Scheduler) runScenario(ctx context.Context, m *Machine, j *schedJob, keys []int64) (*Report, error) {
	m.a.BindContext(ctx)
	defer m.a.BindContext(nil)
	res, rep, err := m.answerScenario(*j.scenario,
		scenarioInput{keys: keys, payloads: j.spec.GroupPayloads, batch: j.spec.IngestBatch})
	if err != nil {
		return rep, err
	}
	if j.scenario.Kind == "ingest" && !j.spec.KeepKeys {
		res.Keys = nil
	}
	j.mu.Lock()
	j.scen = res
	j.mu.Unlock()
	return rep, nil
}

// ScenarioResult returns the retained result of a completed scenario job.
func (s *Scheduler) ScenarioResult(id int) (*ScenarioResult, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("repro: unknown job %d", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.spec.Scenario == "" {
		return nil, fmt.Errorf("repro: job %d is not a scenario job", id)
	}
	if j.scen == nil {
		return nil, fmt.Errorf("repro: job %d has no result (state %s)", id, j.handle.State())
	}
	return j.scen, nil
}

// ExplainScenario dry-runs the scenario planner for a JobSpec without
// admitting anything: the scenario route's closed-form step and pass
// predictions against the full-sort alternative, and the Auto decision
// between them.  pdmd serves it as GET /plan/scenario.
func (s *Scheduler) ExplainScenario(spec JobSpec) (*ScenarioPlanReport, error) {
	r, err := s.resolveJobSpec(spec)
	if err != nil {
		return nil, err
	}
	if r.scenario == nil {
		return nil, fmt.Errorf("repro: JobSpec has no scenario")
	}
	p, err := scenarioPlanFor(planShape(r.pcfg.Mem, r.pcfg.D, r.alpha), *r.scenario, scenarioInput{})
	if err != nil {
		return nil, err
	}
	return convertScenarioPlan(p), nil
}

// noteRecovery records how a recovered job's rerun actually proceeded:
// pass > 0 means it resumed from that checkpointed pass, 0 means it
// restarted from the input.
func (s *Scheduler) noteRecovery(j *schedJob, pass int) {
	j.mu.Lock()
	if j.recovery == nil {
		j.recovery = &RecoveryInfo{RecoveredAt: time.Now(), WasRunning: true}
	}
	j.recovery.ResumedFromPass = pass
	j.recovery.RestartedFromInput = pass == 0
	j.mu.Unlock()
	s.mu.Lock()
	if pass > 0 {
		s.resumed++
	} else {
		s.restarted++
	}
	s.mu.Unlock()
}

// recordPlan stores the cost model's prediction for the algorithm this
// job runs, priced with the job machine's cached calibration; JobStatus
// reports it alongside the measured wall so per-job prediction drift is
// visible.  Planning failures are non-fatal — the sort proceeds unplanned.
func (j *schedJob) recordPlan(m *Machine, keys []int64, payloads [][]byte) {
	if j.scenario != nil {
		j.recordScenarioPlan(m)
		return
	}
	spec := SortSpec{N: len(keys), Universe: j.spec.Universe, Presorted: j.presorted}
	if j.isRecords {
		spec.PayloadWords = records.PayloadWords(payloads)
	}
	rep, err := m.Explain(spec)
	if err != nil {
		return
	}
	name := "radix"
	if j.spec.Universe == 0 {
		name = string(j.alg.planAlg())
	}
	c := rep.Candidate(name)
	if c == nil || !c.Feasible {
		return
	}
	j.mu.Lock()
	j.planned = &PlannedJob{
		Algorithm:        name,
		PredictedSeconds: c.Seconds,
		PredictedPasses:  c.ReadPasses,
		Probed:           rep.Calibration.Probed,
	}
	j.mu.Unlock()
}

// recordScenarioPlan is recordPlan for scenario jobs: the prediction is the
// scenario plan's read passes under its named route (no wall-seconds model
// exists for scenario routes, so PredictedSeconds stays zero and the drift
// field is not computed).
func (j *schedJob) recordScenarioPlan(m *Machine) {
	p, err := m.ExplainScenario(*j.scenario)
	if err != nil {
		return
	}
	passes, route := p.ReadPasses, p.Route
	if !p.Feasible || !p.UseScenario {
		// The scenario route lost (or was infeasible): the job runs the
		// full-sort fallback, so that is the prediction on record.
		if p.FullSortAlgorithm == "" {
			return
		}
		passes, route = p.FullSortReadPasses, "fullsort"
	}
	j.mu.Lock()
	j.planned = &PlannedJob{
		Algorithm:       j.scenario.Kind + "/" + route,
		PredictedPasses: passes,
	}
	j.mu.Unlock()
}

// Status returns a snapshot of the job with the given id.
func (s *Scheduler) Status(id int) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return s.statusOf(j), true
}

// Jobs returns a snapshot of every job in submission order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	handles := make([]*schedJob, 0, len(s.jobs))
	for _, h := range s.eng.Jobs() {
		if j, ok := s.jobs[h.ID()]; ok {
			handles = append(handles, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(handles))
	for i, j := range handles {
		out[i] = s.statusOf(j)
	}
	return out
}

func (s *Scheduler) statusOf(j *schedJob) JobStatus {
	h := j.handle
	submitted, started, finished := h.Times()
	st := JobStatus{
		ID:           h.ID(),
		Label:        h.Label(),
		N:            j.n,
		Submitted:    submitted,
		Started:      started,
		Finished:     finished,
		MemReserved:  h.MemKeys(),
		DiskReserved: h.DiskKeys(),
	}
	if j.spec.Universe > 0 {
		st.Algorithm = "RadixSort"
	} else {
		st.Algorithm = j.alg.String()
	}
	st.Scenario = j.spec.Scenario
	if cerr := h.CleanupErr(); cerr != nil {
		st.CleanupError = cerr.Error()
	}
	switch h.State() {
	case sched.Queued:
		st.State = JobQueued
	case sched.Running:
		st.State = JobRunning
	case sched.Done:
		st.State = JobDone
	case sched.Failed:
		st.State = JobFailed
	case sched.Canceled:
		st.State = JobCanceled
	case sched.Suspended:
		st.State = JobSuspended
	}
	if err := h.Err(); err != nil {
		st.Error = err.Error()
	}
	j.mu.Lock()
	if j.recovery != nil {
		r := *j.recovery
		st.Recovery = &r
	}
	st.Report = j.report
	st.DiskFootprint = j.footprint
	st.ArenaLeak = j.arenaLeak
	st.Planned = j.planned
	st.MeasuredSeconds = j.measured
	if j.planned != nil && j.planned.PredictedSeconds > 0 && j.measured > 0 {
		st.PredictionError = (j.measured - j.planned.PredictedSeconds) / j.planned.PredictedSeconds
	}
	j.mu.Unlock()
	return st
}

// Cancel cancels the job, reporting whether id exists.  A queued job is
// dropped without ever holding resources; a running one aborts at its
// next I/O or cleanup chunk and releases its whole envelope.
func (s *Scheduler) Cancel(id int) bool {
	return s.eng.Cancel(id)
}

// Wait blocks until the job finishes (or ctx is canceled) and returns its
// final status.
func (s *Scheduler) Wait(ctx context.Context, id int) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("repro: unknown job %d", id)
	}
	if err := j.handle.Wait(ctx); err != nil && ctx.Err() != nil {
		return JobStatus{}, err
	}
	return s.statusOf(j), nil
}

// SortedKeys returns the retained sorted output of a completed job
// submitted with KeepKeys.
func (s *Scheduler) SortedKeys(id int) ([]int64, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("repro: unknown job %d", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.report == nil {
		return nil, fmt.Errorf("repro: job %d has no result (state %s)", id, j.handle.State())
	}
	if j.keys == nil {
		return nil, fmt.Errorf("repro: job %d was not submitted with KeepKeys", id)
	}
	return j.keys, nil
}

// SortedRecords returns the retained sorted output — keys paired with
// payloads — of a completed records job submitted with KeepKeys.
func (s *Scheduler) SortedRecords(id int) ([]int64, [][]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("repro: unknown job %d", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.report == nil {
		return nil, nil, fmt.Errorf("repro: job %d has no result (state %s)", id, j.handle.State())
	}
	if !j.isRecords {
		return nil, nil, fmt.Errorf("repro: job %d is not a records job", id)
	}
	if j.keys == nil {
		return nil, nil, fmt.Errorf("repro: job %d was not submitted with KeepKeys", id)
	}
	return j.keys, j.payloads, nil
}

// SchedHealth is the cheap liveness snapshot pdmd serves as GET /healthz:
// alive, plus the resolved default job geometry a distributed-sort
// coordinator needs to plan shards for this node before submitting any.
type SchedHealth struct {
	Status string `json:"status"`
	// JobMemory, BlockSize, and Disks are the geometry a default job runs
	// with (a JobSpec may override them); Alpha is the machine confidence
	// parameter and Workers the global compute width.
	JobMemory int     `json:"jobMemory"`
	BlockSize int     `json:"blockSize"`
	Disks     int     `json:"disks"`
	Alpha     float64 `json:"alpha"`
	Workers   int     `json:"workers"`
	// Backend is the default disk backend ("" on in-memory schedulers);
	// FileBacked reports whether jobs spill to real files.
	Backend    string `json:"backend,omitempty"`
	FileBacked bool   `json:"fileBacked"`
	// Queued and Running give the coordinator a load hint.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Durable reports whether a journal is attached; Recovered and
	// Suspended are this life's recovery counts (jobs replayed live at
	// startup, and jobs parked at a checkpoint by a drain).
	Durable   bool `json:"durable,omitempty"`
	Recovered int  `json:"recovered,omitempty"`
	Suspended int  `json:"suspended,omitempty"`
}

// Health returns the liveness snapshot.  It never fails: a scheduler that
// answers is healthy (jobs may still be rejected individually at submit).
func (s *Scheduler) Health() SchedHealth {
	st := s.eng.Stats()
	h := SchedHealth{
		Status:     "ok",
		JobMemory:  s.cfg.JobMemory,
		Workers:    st.Workers,
		Backend:    s.cfg.Backend,
		FileBacked: s.cfg.Dir != "",
		Queued:     st.Queued,
		Running:    st.Running,
		Durable:    s.jr != nil,
		Recovered:  st.Recovered,
		Suspended:  st.Suspended,
	}
	// Resolve the default geometry exactly as a default job would.
	if pcfg, alpha, err := resolveConfig(s.cfg.machineConfig(JobSpec{})); err == nil {
		h.BlockSize, h.Disks, h.Alpha = pcfg.B, pcfg.D, alpha
	}
	return h
}

// Stats returns the aggregate scheduler statistics.
func (s *Scheduler) Stats() SchedStats {
	up := time.Since(s.t0).Seconds()
	st := SchedStats{Stats: s.eng.Stats(), UptimeSeconds: up}
	s.mu.Lock()
	agg := s.agg
	s.mu.Unlock()
	if up > 0 {
		st.JobsPerSecond = float64(st.Completed) / up
	}
	st.KeysSorted = agg.keysSorted
	if agg.paddedN > 0 {
		st.PassesWeighted = agg.passesDotN / float64(agg.paddedN)
	}
	s.mu.Lock()
	st.JobsResumed = s.resumed
	st.JobsRestarted = s.restarted
	s.mu.Unlock()
	if s.jr != nil {
		m := s.jr.Metrics()
		st.JournalBytes = m.Bytes
		st.JournalSegments = m.Segments
		st.JournalAppends = m.Appends
		st.JournalFsyncErrors = m.FsyncErrors
		st.JournalCompactions = m.Compactions
		st.JournalReplayed = m.ReplayedRecords
		st.JournalTornTails = m.TornTails
		st.JournalReplayErrors = m.ReplayErrors
	}
	st.PrefetchHits = agg.prefetchHits
	st.PrefetchStalls = agg.prefetchStalls
	st.WriteStalls = agg.writeStalls
	st.ComputeSeconds = float64(agg.computeNanos) / 1e9
	if agg.wallNanos > 0 && st.Workers > 0 {
		u := float64(agg.busyNanos) / (float64(agg.wallNanos) * float64(st.Workers))
		if u > 1 {
			u = 1
		}
		st.WorkerUtilization = u
	} else {
		st.WorkerUtilization = 1
	}
	return st
}

// Close stops admission, cancels every remaining job, and waits for the
// running ones to drain.
func (s *Scheduler) Close() {
	s.eng.Close()
}

// Drain stops admission and parks the scheduler's work durably: running
// jobs stop at their next pass checkpoint (Suspended, scratch kept) and
// queued jobs stay journaled in order, so the next scheduler life over
// the same JournalDir and Dir picks everything back up.  If ctx expires
// first the stragglers are canceled — they still suspend at whatever
// checkpoint they last journaled — and ctx's error is returned.
func (s *Scheduler) Drain(ctx context.Context) error {
	return s.eng.Drain(ctx)
}
