package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/pdm"
)

// The machine geometry every workload shares: M = 16384 keys (B = 128,
// D = 32), so 2^21 keys is exactly M·√M, the top of the paper's
// three-pass regime.
const (
	benchMem     = 16384
	sortKeysN    = 1 << 21
	sortRecordsN = 1 << 19
)

// facadeOps is one facade workload: prepare restores the input buffers,
// call is the timed facade call, check verifies its output.
type facadeOps struct {
	backend string
	words   int // user words (keys + payload words) per op
	spec    repro.SortSpec
	prepare func()
	call    func(m *repro.Machine) (*repro.Report, error)
	check   func() error
}

func runSortKeys(cfg config) (*outcome, error) {
	input, err := (&repro.WorkloadSpec{Kind: "uniform", N: sortKeysN, Seed: cfg.seed}).Generate()
	if err != nil {
		return nil, err
	}
	want := sumOf(input)
	buf := make([]int64, len(input))
	return runFacade(cfg, facadeOps{
		backend: repro.BackendFile,
		words:   len(input),
		spec:    repro.SortSpec{N: len(input)},
		prepare: func() { copy(buf, input) },
		call:    func(m *repro.Machine) (*repro.Report, error) { return m.Sort(buf, repro.Auto) },
		check:   func() error { return checkSorted(buf, want) },
	})
}

func runSortRecords(cfg config) (*outcome, error) {
	input, err := (&repro.WorkloadSpec{Kind: "uniform", N: sortRecordsN, Seed: cfg.seed}).Generate()
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(input))
	for i := range payloads {
		payloads[i] = payloadFor(i)
	}
	keys := make([]int64, len(input))
	perm := make([][]byte, len(input))
	return runFacade(cfg, facadeOps{
		backend: repro.BackendMmap,
		words:   len(input) * (1 + payloadBytes/8),
		spec:    repro.SortSpec{N: len(input), PayloadBytes: payloadBytes},
		prepare: func() { copy(keys, input); copy(perm, payloads) },
		call:    func(m *repro.Machine) (*repro.Report, error) { return m.SortRecords(keys, perm, repro.Auto) },
		check:   func() error { return checkRecords(input, keys, perm) },
	})
}

// newMachine builds the workload's machine in its own scratch directory.
func newMachine(backend, dir string) (*repro.Machine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return repro.NewMachine(repro.MachineConfig{
		Memory:   benchMem,
		Dir:      dir,
		Backend:  backend,
		Pipeline: repro.PipelineConfig{Prefetch: 2, WriteBehind: 2},
		Workers:  loadWidth,
	})
}

// facadeOp is one measured facade call.
type facadeOp struct {
	seconds float64
	rep     *repro.Report
	spans   []passSpan // traced ops only
}

// runFacade drives a facade workload: setupReps timed constructions,
// then the measured ops (see measure).
func runFacade(cfg config, w facadeOps) (*outcome, error) {
	setup, err := setupSeconds(cfg, func(dir string) (func(), error) {
		m, err := newMachine(w.backend, dir)
		if err != nil {
			return nil, err
		}
		return func() { m.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	m, err := newMachine(w.backend, filepath.Join(cfg.dir, "machine"))
	if err != nil {
		return nil, err
	}
	defer m.Close()

	var tr *tracer
	var explainS, predicted float64
	if cfg.trace {
		tr = newTracer()
		t0 := time.Now()
		plan, err := m.Explain(w.spec)
		if err != nil {
			return nil, err
		}
		explainS = time.Since(t0).Seconds()
		if c := plan.Candidate(plan.Chosen); c != nil {
			predicted = c.Seconds
		}
	}

	out := &outcome{}
	var plain, traced []facadeOp
	err = measure(cfg, func(id int, isTraced bool) (float64, bool, error) {
		w.prepare()
		// Collect the harness's own garbage (input copies, output checks)
		// outside the clock, as testing.B does before a benchmark, so no
		// op pays for it and the peak RSS does not depend on when it was
		// collected.
		runtime.GC()
		var rec passRecorder
		if isTraced {
			m.Array().SetCheckpointer(rec.record)
			defer m.Array().SetCheckpointer(nil)
		}
		st0 := m.Array().Stats()
		t0 := time.Now()
		rep, err := w.call(m)
		t1 := time.Now()
		if err == nil {
			err = w.check()
		}
		op := facadeOp{seconds: t1.Sub(t0).Seconds(), rep: rep}
		if !out.record(id, err) {
			return op.seconds, false, nil
		}
		switch {
		case id == 0: // warm-up: page cache, pools, lazy state
		case isTraced:
			op.spans = groupSpans(t0, st0, rec.bounds, t1, m.Array().Stats())
			root := tr.add(id, 0, "op", t0, t1)
			for _, s := range op.spans {
				tr.add(id, root, s.label, s.start, s.end)
			}
			traced = append(traced, op)
		default:
			plain = append(plain, op)
		}
		return op.seconds, true, nil
	})
	if err != nil {
		return noMetrics(out, err)
	}

	var plainLat []float64
	for _, op := range plain {
		plainLat = append(plainLat, op.seconds)
	}
	if !cfg.trace {
		rep := plain[0].rep
		out.values = opValues(out, setup, plainLat, float64(w.words),
			rep.Passes+rep.PermutePasses, float64(m.Array().DiskFootprint())/float64(w.words))
		return out, nil
	}

	v := zeroLayers()
	out.values = v
	var lat, compute, busy []float64
	var ios []pdm.Stats
	for _, op := range traced {
		lat = append(lat, op.seconds)
		compute = append(compute, op.rep.ComputeSeconds)
		busy = append(busy, op.rep.WorkerUtilization)
		ios = append(ios, op.rep.IO)
	}
	rep := traced[0].rep
	v["pdm.read_steps"] = float64(rep.IO.ReadSteps)
	v["pdm.write_steps"] = float64(rep.IO.WriteSteps)
	streamLayers(v, ios)
	v["par.compute_s"] = median(compute)
	v["par.busy_frac"] = median(busy)
	v["core.passes"] = rep.Passes
	v["plan.explain_s"] = explainS
	v["plan.pred_rel_err"] = ratio(median(lat)-predicted, predicted)
	v["trace_overhead"] = median(lat)/median(plainLat) - 1
	if rep.KeyRounds > 0 {
		recordLayers(v, traced)
	} else {
		passLayers(v, traced)
	}
	if err := probeLayers(cfg, v, w.backend, m.Kernel()); err != nil {
		return nil, err
	}
	return out, writeTrace(cfg, tr)
}

// passLayers fills core.pass{k}_s and core.pass{k}_compute_frac from the
// traced ops' pass spans (medians over ops).
func passLayers(v map[string]float64, ops []facadeOp) {
	for k := 0; k < 3; k++ {
		var secs, fracs []float64
		for _, op := range ops {
			if k < len(op.spans) {
				secs = append(secs, op.spans[k].seconds())
				fracs = append(fracs, op.spans[k].computeFrac())
			}
		}
		v[fmt.Sprintf("core.pass%d_s", k+1)] = median(secs)
		v[fmt.Sprintf("core.pass%d_compute_frac", k+1)] = median(fracs)
	}
}

// recordLayers splits each traced records op into key sort, payload
// permutation and tail: spans closed by a key-sort boundary, spans closed
// by a permute boundary, and the final span.
func recordLayers(v map[string]float64, ops []facadeOp) {
	var keysort, permute, tail []float64
	for _, op := range ops {
		k, p, t := splitRecordSpans(op.spans)
		keysort, permute, tail = append(keysort, k), append(permute, p), append(tail, t)
	}
	rep := ops[0].rep
	v["records.keysort_s"] = median(keysort)
	v["records.permute_s"] = median(permute)
	v["records.tail_s"] = median(tail)
	v["records.permute_passes"] = rep.PermutePasses
	v["records.key_rounds"] = float64(rep.KeyRounds)
}

// splitRecordSpans sums a records op's spans by phase.
func splitRecordSpans(spans []passSpan) (keysort, permute, tail float64) {
	for _, s := range spans {
		switch {
		case s.label == tailLabel:
			tail += s.seconds()
		case strings.HasPrefix(s.label, "permute#"):
			permute += s.seconds()
		default:
			keysort += s.seconds()
		}
	}
	return keysort, permute, tail
}

// writeTrace dumps a traced run's spans next to the build.
func writeTrace(cfg config, tr *tracer) error {
	dir := filepath.Join(filepath.Dir(filepath.Dir(cfg.dir)), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	fmt.Println("spans:", path)
	return tr.write(path)
}

// opValues is the end-to-end metrics of a workload whose op is one call
// (a facade call, a distributed sort), from the per-op latencies lat.
func opValues(out *outcome, setup float64, lat []float64, words, passes, scratch float64) map[string]float64 {
	return map[string]float64{
		"setup_s":       setup,
		"words_per_s":   words / median(lat),
		"op_p50_s":      median(lat),
		"op_p90_s":      quantile(lat, 0.9),
		"jobs_per_s":    1 / median(lat),
		"ok_frac":       float64(out.attempted-out.failed) / float64(out.attempted),
		"io_passes":     passes,
		"scratch_ratio": scratch,
		"rss_peak_mb":   rssPeakMB(),
	}
}

// streamLayers fills the stream layer's stall fractions from the I/O
// statistics of the traced ops.
func streamLayers(v map[string]float64, ios []pdm.Stats) {
	var pf, pfStall, wb, wbStall int64
	for _, io := range ios {
		pf += io.PrefetchHits + io.PrefetchStalls
		pfStall += io.PrefetchStalls
		wb += io.WriteBehindHits + io.WriteBehindStalls
		wbStall += io.WriteBehindStalls
	}
	v["stream.prefetch_stall_frac"] = ratio(float64(pfStall), float64(pf))
	v["stream.writebehind_stall_frac"] = ratio(float64(wbStall), float64(wb))
}
