package repro

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/plan"
)

// SortSpec describes a prospective sort for planning: the workload shape
// the cost model needs, without the data.
type SortSpec struct {
	// N is the key (record) count.
	N int `json:"n"`
	// PayloadBytes, when positive, plans a full-record sort whose records
	// carry payloads of (up to) this many bytes each: the external
	// permutation's distribution levels enter every candidate's prediction.
	PayloadBytes int `json:"payloadBytes,omitempty"`
	// PayloadWords, when positive, gives the exact total payload volume in
	// 8-byte words and overrides the PayloadBytes estimate (the scheduler
	// uses it once a job's payloads are materialized).
	PayloadWords int `json:"payloadWords,omitempty"`
	// Universe, when positive, hints integer keys in [0, Universe): the
	// Section 7 RadixSort becomes a candidate and is chosen (it is what
	// SortInts and universe-bearing jobs run).
	Universe int64 `json:"universe,omitempty"`
	// Presorted ∈ [0, 1] hints existing order (1 = fully sorted).  It
	// scales predicted compute time — the algorithms are oblivious, so
	// passes never change — and never changes the chosen algorithm.
	Presorted float64 `json:"presorted,omitempty"`
}

// planWorkload converts the spec to the planner's workload.
func (s SortSpec) planWorkload() plan.Workload {
	words := s.PayloadWords
	if words == 0 && s.PayloadBytes > 0 {
		words = s.N * ((s.PayloadBytes + 7) / 8)
	}
	return plan.Workload{N: s.N, PayloadWords: words, Universe: s.Universe, Presorted: s.Presorted}
}

// PlanCandidate is one row of the ranked plan table.  Algorithm is the
// short name ("exp2", "lmm3", "one", "radix", …) shared with
// ParseAlgorithm and the CLI; the analytic columns (passes, padded length,
// I/O words) are deterministic while the seconds columns come from the
// machine's calibration.
type PlanCandidate struct {
	Algorithm string `json:"algorithm"`
	Feasible  bool   `json:"feasible"`
	Reason    string `json:"reason,omitempty"`

	PaddedN       int     `json:"paddedN,omitempty"`
	ReadPasses    float64 `json:"readPasses,omitempty"`
	WritePasses   float64 `json:"writePasses,omitempty"`
	PermuteLevels int     `json:"permuteLevels,omitempty"`
	PermutePasses float64 `json:"permutePasses,omitempty"`
	IOWords       int64   `json:"ioWords,omitempty"`
	Steps         int64   `json:"steps,omitempty"`

	IOSeconds      float64 `json:"ioSeconds,omitempty"`
	ComputeSeconds float64 `json:"computeSeconds,omitempty"`
	Seconds        float64 `json:"seconds,omitempty"`
}

// PlanCalibration reports the measured rates a PlanReport priced with.
type PlanCalibration struct {
	ReadStepSeconds   float64 `json:"readStepSeconds"`
	WriteStepSeconds  float64 `json:"writeStepSeconds"`
	SortSecondsPerKey float64 `json:"sortSecondsPerKey"`
	Probed            bool    `json:"probed"`
	ProbeSeconds      float64 `json:"probeSeconds,omitempty"`
}

// BackendPlan is one row of Explain's backend ranking: the calibrated
// per-step cost of this machine's geometry on one available disk backend.
// File-backed machines rank both file backends (probing each once,
// cached); in-memory machines have the single "mem" row.
type BackendPlan struct {
	Backend          string  `json:"backend"`
	ReadStepSeconds  float64 `json:"readStepSeconds"`
	WriteStepSeconds float64 `json:"writeStepSeconds"`
	Probed           bool    `json:"probed"`
	// Chosen marks the backend this machine actually runs (the ranking is
	// advisory — switching backends never changes results, only seconds).
	Chosen bool `json:"chosen,omitempty"`
}

// KernelPlan is one row of Explain's kernel ranking: the calibrated
// in-memory sort rate of one compute kernel on this machine's pool width.
// Both kernels are probed (once, cached); the ranking is advisory —
// switching kernels never changes results, only seconds.
type KernelPlan struct {
	Kernel            string  `json:"kernel"`
	SortSecondsPerKey float64 `json:"sortSecondsPerKey"`
	Probed            bool    `json:"probed"`
	// Chosen marks the kernel this machine actually runs: the configured
	// one, or Auto's deterministic pick from the bare shape.
	Chosen bool `json:"chosen,omitempty"`
}

// PlanReport is Machine.Explain's answer: every candidate algorithm
// ranked by predicted wall time (feasible first), the calibration used,
// and the choice the stack will run.
type PlanReport struct {
	Spec SortSpec `json:"spec"`
	// Chosen is the short name of the algorithm the stack will run: the
	// Auto path's deterministic choice (or the forced algorithm / radix).
	// The table order is the calibrated ranking, which may place a
	// marginally cheaper candidate above Chosen on latency-heavy shapes.
	Chosen string `json:"chosen"`
	// ChosenAlgorithm is Chosen as an Algorithm value; valid only when
	// ChosenRadix is false (the radix path has no Algorithm — SortInts is
	// its entry point).
	ChosenAlgorithm Algorithm `json:"-"`
	ChosenRadix     bool      `json:"chosenRadix,omitempty"`

	Candidates  []PlanCandidate `json:"candidates"`
	Calibration PlanCalibration `json:"calibration"`
	// Backends ranks the disk backends available for this machine's
	// geometry, cheapest measured step cost first.
	Backends []BackendPlan `json:"backends,omitempty"`
	// Kernels ranks the compute kernels on this machine's pool width,
	// cheapest measured per-key sort cost first.
	Kernels []KernelPlan `json:"kernels,omitempty"`
}

// Candidate returns the row for the short algorithm name, nil when absent.
func (r *PlanReport) Candidate(name string) *PlanCandidate {
	for i := range r.Candidates {
		if r.Candidates[i].Algorithm == name {
			return &r.Candidates[i]
		}
	}
	return nil
}

// explainOn is the one Explain body, shared by Machine.Explain and
// Scheduler.Explain: it prices spec on a machine of configuration mc with
// d disks and a pool of workers — the planner's shape plus its (cached)
// micro-calibration, a one-shot probe on a throwaway array of the same
// geometry and backend kind — ranks the backends and kernels, and pins
// Chosen to alg, the algorithm a sort of spec runs (Auto pins the Auto
// path's deterministic pick, whatever the calibrated ranking says).
// Universe specs keep the planner's radix choice.  Building the shape and
// the calibration key in one place is what keeps the machine's and the
// scheduler's answers from drifting apart.
func explainOn(mc MachineConfig, d, workers int, alpha float64, spec SortSpec, alg Algorithm) (*PlanReport, error) {
	mem := mc.Memory
	backend := backendKind(mc.Dir != "", mc.Backend)
	kernel := kernelKind(mc.Kernel, mem)
	shape := planShape(mem, d, alpha)
	b := shape.B
	shape.Workers = workers
	shape.BlockLatency = mc.BlockLatency
	shape.Backend = backend
	shape.Kernel = kernel
	shape.Prefetch = mc.Pipeline.Prefetch
	shape.WriteBehind = mc.Pipeline.WriteBehind
	cal := plan.Calibrate(plan.ProbeConfig{
		D: d, B: b, Workers: workers,
		BlockLatency: mc.BlockLatency,
		Backend:      backend,
		Kernel:       kernel,
	})
	r, err := plan.Explain(shape, spec.planWorkload(), cal)
	if err != nil {
		return nil, err
	}
	out := convertPlan(spec, r)
	out.Backends = rankBackends(d, b, workers, mc.BlockLatency, backend, kernel)
	out.Kernels = rankKernels(d, b, workers, mc.BlockLatency, backend, kernel)
	if spec.Universe == 0 {
		if alg == Auto {
			alg = planFor(mem, d, alpha, spec.N)
		}
		out.Chosen = string(alg.planAlg())
		out.ChosenAlgorithm = alg
		out.ChosenRadix = false
	}
	return out, nil
}

// rankBackends builds the backend ranking for a machine of the given
// geometry: every backend kind available for its storage mode is
// calibrated (one cached micro-probe per kind) and sorted by measured
// round-trip step cost, cheapest first.
func rankBackends(d, b, workers int, latency time.Duration, current plan.Backend, kernel plan.Kernel) []BackendPlan {
	kinds := []plan.Backend{plan.BackendMem}
	if current != plan.BackendMem {
		kinds = []plan.Backend{plan.BackendFile, plan.BackendMmap}
	}
	rows := make([]BackendPlan, 0, len(kinds))
	for _, k := range kinds {
		cal := plan.Calibrate(plan.ProbeConfig{
			D: d, B: b, Workers: workers,
			BlockLatency: latency,
			Backend:      k,
			Kernel:       kernel,
		})
		rows = append(rows, BackendPlan{
			Backend:          string(k),
			ReadStepSeconds:  cal.ReadStepSeconds,
			WriteStepSeconds: cal.WriteStepSeconds,
			Probed:           cal.Probed,
			Chosen:           k == current,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].ReadStepSeconds+rows[i].WriteStepSeconds <
			rows[j].ReadStepSeconds+rows[j].WriteStepSeconds
	})
	return rows
}

// rankKernels builds the kernel ranking the same way rankBackends ranks
// disk backends: every kernel is calibrated on this machine's geometry and
// backend (one cached micro-probe per kernel) and sorted by measured
// per-key sort cost, cheapest first.  The stable sort keeps the canonical
// plan.Kernels order on exact ties, so the table is deterministic under
// probe noise ties just like the candidate ranking.
func rankKernels(d, b, workers int, latency time.Duration, backend plan.Backend, current plan.Kernel) []KernelPlan {
	rows := make([]KernelPlan, 0, len(plan.Kernels))
	for _, k := range plan.Kernels {
		cal := plan.Calibrate(plan.ProbeConfig{
			D: d, B: b, Workers: workers,
			BlockLatency: latency,
			Backend:      backend,
			Kernel:       k,
		})
		rows = append(rows, KernelPlan{
			Kernel:            string(k),
			SortSecondsPerKey: cal.SortSecondsPerKey,
			Probed:            cal.Probed,
			Chosen:            k == current,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].SortSecondsPerKey < rows[j].SortSecondsPerKey
	})
	return rows
}

// Explain answers "what would this machine run, and why": it evaluates
// every candidate algorithm for the spec — predicted passes, the padded
// length each geometry forces, I/O words, permutation levels for record
// sorts, and calibrated wall time — and returns the table ranked by
// predicted seconds, with Chosen naming the algorithm Auto (or SortInts,
// for universe specs) will actually run.  Chosen is Auto's deterministic
// fixed-calibration choice; on latency-heavy shapes the calibrated
// ranking can prefer a different candidate at the margin, in which case
// the table's first row is that cheaper candidate and callers wanting it
// select it explicitly.
func (m *Machine) Explain(spec SortSpec) (*PlanReport, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("repro: SortSpec.N = %d, want > 0", spec.N)
	}
	return explainOn(m.cfg, m.a.D(), m.a.Workers(), m.alpha, spec, Auto)
}

// convertPlan maps the internal report onto the facade types.
func convertPlan(spec SortSpec, r *plan.Report) *PlanReport {
	out := &PlanReport{
		Spec:   spec,
		Chosen: string(r.Chosen),
		Calibration: PlanCalibration{
			ReadStepSeconds:   r.Cal.ReadStepSeconds,
			WriteStepSeconds:  r.Cal.WriteStepSeconds,
			SortSecondsPerKey: r.Cal.SortSecondsPerKey,
			Probed:            r.Cal.Probed,
			ProbeSeconds:      r.Cal.ProbeSeconds,
		},
	}
	if alg, ok := algFromPlan(r.Chosen); ok {
		out.ChosenAlgorithm = alg
	} else {
		out.ChosenRadix = true
	}
	for _, c := range r.Candidates {
		out.Candidates = append(out.Candidates, PlanCandidate{
			Algorithm:      string(c.Alg),
			Feasible:       c.Feasible,
			Reason:         c.Reason,
			PaddedN:        c.PaddedN,
			ReadPasses:     c.ReadPasses,
			WritePasses:    c.WritePasses,
			PermuteLevels:  c.PermuteLevels,
			PermutePasses:  c.PermutePasses,
			IOWords:        c.IOWords,
			Steps:          c.Steps,
			IOSeconds:      c.IOSeconds,
			ComputeSeconds: c.ComputeSeconds,
			Seconds:        c.Seconds,
		})
	}
	return out
}
