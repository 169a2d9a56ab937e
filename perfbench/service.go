package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/pdm"
	"repro/internal/pdmdapi"
)

// The service-mix job mix: every ten jobs hold five sorts of 2^16 keys
// (rotating uniform/zipf/sortedruns), one in-memory sort of M keys, two
// top-K queries and two ingests of a 2^12 batch into a sorted 2^16
// dataset.  A round is svcRoundJobs jobs on a fresh node.
const (
	svcSortN     = 1 << 16
	svcOneN      = benchMem
	svcTopK      = 1024
	svcBatchN    = 1 << 12
	svcPageKeys  = 8192
	svcRoundJobs = 20
)

// A client polls a job's status the way the repository's own programmatic
// client does (internal/dist's shard await): first after 2 ms, then at
// doubling intervals up to 64 ms.
const (
	svcPollFirst = 2 * time.Millisecond
	svcPollCap   = 64 * time.Millisecond
)

var svcCycle = []string{"sort", "topk", "sort", "ingest", "sort", "onepass", "sort", "topk", "sort", "ingest"}

// svcJob is one pre-encoded job of the mix and how to check its result.
type svcJob struct {
	kind    string
	body    []byte // POST /jobs body
	route   string // result route: "keys" or "result"
	resultN int    // keys the result holds
	words   int    // user keys submitted
	check   func([]int64) error
}

// svcJobs builds a round's jobs from the seed.  A run reuses them every
// round, so each round does identical work.
func svcJobs(seed int64) ([]svcJob, error) {
	kinds := []string{"uniform", "zipf", "sortedruns"}
	gen := func(kind string, n, i int) ([]int64, error) {
		return (&repro.WorkloadSpec{Kind: kind, N: n, Seed: seed*1000 + int64(i)}).Generate()
	}
	var jobs []svcJob
	sorts := 0
	for i := 0; i < svcRoundJobs; i++ {
		kind := svcCycle[i%len(svcCycle)]
		var req pdmdapi.SubmitRequest
		var j svcJob
		switch kind {
		case "sort", "onepass":
			n, wk := svcOneN, "uniform"
			if kind == "sort" {
				n, wk = svcSortN, kinds[sorts%len(kinds)]
				sorts++
			}
			keys, err := gen(wk, n, i)
			if err != nil {
				return nil, err
			}
			want := sumOf(keys)
			req = pdmdapi.SubmitRequest{Keys: keys}
			j = svcJob{kind: kind + "-" + wk, route: "keys", resultN: n, words: n,
				check: func(out []int64) error { return checkSorted(out, want) }}
		case "topk":
			keys, err := gen("uniform", svcSortN, i)
			if err != nil {
				return nil, err
			}
			want := topKWant(keys, svcTopK)
			req = pdmdapi.SubmitRequest{Keys: keys, Scenario: "topk", TopK: svcTopK}
			j = svcJob{kind: kind, route: "result", resultN: svcTopK, words: svcSortN,
				check: func(out []int64) error { return checkEqual(out, want) }}
		case "ingest":
			dataset, err := gen("uniform", svcSortN, i)
			if err != nil {
				return nil, err
			}
			slices.Sort(dataset)
			batch, err := gen("uniform", svcBatchN, i+svcRoundJobs)
			if err != nil {
				return nil, err
			}
			want := ingestWant(dataset, batch)
			req = pdmdapi.SubmitRequest{Keys: dataset, Scenario: "ingest", IngestBatch: batch}
			j = svcJob{kind: kind, route: "result", resultN: len(want), words: len(want),
				check: func(out []int64) error { return checkEqual(out, want) }}
		}
		req.KeepKeys = true
		req.Label = j.kind
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		j.body = body
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// svcSchedConfig is the service node: journaled and file-backed, M =
// 16384 jobs on a pool loadWidth wide, and a memory budget that
// admits one job at a time.
func svcSchedConfig(dir string) repro.SchedulerConfig {
	envelope := pdm.Config{Mem: benchMem, D: 32, B: 128}.ArenaCapacity()
	return repro.SchedulerConfig{
		Memory:     envelope * 3 / 2,
		Workers:    loadWidth,
		JobMemory:  benchMem,
		Dir:        filepath.Join(dir, "scratch"),
		JournalDir: filepath.Join(dir, "journal"),
	}
}

// svcResult is one finished job as the client saw it.
type svcResult struct {
	job     *svcJob
	seconds float64
	status  repro.JobStatus
	polls   int
	pages   [][]byte
	err     error
	refused bool
}

// runJob submits one job, polls it to completion and fetches its whole
// result in pages; the latency runs from the POST to the last page byte.
// Pages are kept raw and decoded by the check after the round.
func runJob(c *http.Client, base string, j *svcJob, op int, tr *tracer) svcResult {
	r := svcResult{job: j}
	t0 := time.Now()
	raw, code, err := call(c, http.MethodPost, base+"/jobs", j.body)
	tSubmit := time.Now()
	if err == nil && code != http.StatusAccepted {
		r.refused = code == http.StatusServiceUnavailable
		err = fmt.Errorf("POST /jobs: %d %s", code, raw)
	}
	if err == nil {
		err = json.Unmarshal(raw, &r.status)
	}
	for delay := svcPollFirst; err == nil && r.status.State != repro.JobDone; delay = min(2*delay, svcPollCap) {
		if r.status.State == repro.JobFailed || r.status.State == repro.JobCanceled {
			err = fmt.Errorf("job %d %s: %s", r.status.ID, r.status.State, r.status.Error)
			break
		}
		time.Sleep(delay)
		raw, code, err = call(c, http.MethodGet, fmt.Sprintf("%s/jobs/%d", base, r.status.ID), nil)
		r.polls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /jobs/%d: %d %s", r.status.ID, code, raw)
		}
		if err == nil {
			err = json.Unmarshal(raw, &r.status)
		}
	}
	tDone := time.Now()
	for off := 0; err == nil && off < j.resultN; off += svcPageKeys {
		raw, code, err = call(c, http.MethodGet, fmt.Sprintf("%s/jobs/%d/%s?offset=%d&limit=%d", base, r.status.ID, j.route, off, svcPageKeys), nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET %s page %d: %d %s", j.route, off, code, raw)
		}
		r.pages = append(r.pages, raw)
	}
	t1 := time.Now()
	r.seconds, r.err = t1.Sub(t0).Seconds(), err
	if tr != nil && err == nil {
		root := tr.add(op, 0, "job:"+j.kind, t0, t1)
		tr.add(op, root, "pdmdapi.submit", t0, tSubmit)
		tr.add(op, root, "sched.queue", r.status.Submitted, r.status.Started)
		tr.add(op, root, "sched.run", r.status.Started, r.status.Finished)
		tr.add(op, root, "pdmdapi.pages", tDone, t1)
	}
	return r
}

// verify decodes a finished job's pages and checks the result.
func (r *svcResult) verify() error {
	if r.err != nil {
		return r.err
	}
	out := make([]int64, 0, r.job.resultN)
	for _, raw := range r.pages {
		var page struct {
			N    int     `json:"n"`
			Keys []int64 `json:"keys"`
		}
		if err := json.Unmarshal(raw, &page); err != nil {
			return fmt.Errorf("result page: %w", err)
		}
		if page.N != r.job.resultN {
			return fmt.Errorf("result holds %d keys, want %d", page.N, r.job.resultN)
		}
		out = append(out, page.Keys...)
	}
	if err := r.job.check(out); err != nil {
		return fmt.Errorf("%s job %d: %w", r.job.kind, r.status.ID, err)
	}
	if r.status.Report == nil {
		return fmt.Errorf("%s job %d: done without a report", r.job.kind, r.status.ID)
	}
	return nil
}

// svcRound runs jobs through a fresh node with loadWidth closed-loop
// clients and returns the round's wall time and the results in
// submission order.
func svcRound(dir string, jobs []svcJob, client *http.Client, tr *tracer, op0 int) (wall float64, res []svcResult, err error) {
	n, err := startNode(svcSchedConfig(dir))
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		n.close()
		os.RemoveAll(dir)
	}()
	res = make([]svcResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC() // the harness's garbage, outside the clock (see runFacade)
	t1 := time.Now()
	for c := 0; c < loadWidth; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				res[i] = runJob(client, n.url, &jobs[i], op0+i, tr)
			}
		}()
	}
	wg.Wait()
	return time.Since(t1).Seconds(), res, nil
}

func runServiceMix(cfg config) (*outcome, error) {
	jobs, err := svcJobs(cfg.seed)
	if err != nil {
		return nil, err
	}
	plain := &http.Client{Transport: newLoopbackTransport()}
	timing := newTimingTransport()
	traced := &http.Client{Transport: timing}
	var tr *tracer
	v := zeroLayers()
	if cfg.trace {
		tr = newTracer()
		// Before any job: the first Explain pays the calibration probe.
		if err := explainProbe(cfg, v, svcSortN); err != nil {
			return nil, err
		}
	}

	setup, err := setupSeconds(cfg, func(dir string) (func(), error) {
		n, err := startNode(svcSchedConfig(dir))
		if err != nil {
			return nil, err
		}
		return n.close, nil
	})
	if err != nil {
		return nil, err
	}

	out := &outcome{}
	// wordRate and jobRate hold each untraced round's verified result
	// keys and jobs per second of its wall time; roundP90 its p90 job
	// latency.
	var wordRate, jobRate, roundP90, plainLat, tracedLat []float64
	var done, tracedRes []svcResult
	refused := 0
	// An op of this workload is a round of jobs on a fresh node.
	err = measure(cfg, func(round int, isTraced bool) (float64, bool, error) {
		c, t := plain, (*tracer)(nil)
		if isTraced {
			c, t = traced, tr
		}
		wall, res, err := svcRound(filepath.Join(cfg.dir, fmt.Sprintf("round%d", round)), jobs, c, t, round*len(jobs))
		if err != nil {
			return 0, false, err
		}
		words, jobsOK := 0.0, 0.0
		var roundLat []float64
		for i := range res {
			if res[i].refused && isTraced {
				refused++
			}
			ok := out.record(round*len(jobs)+i, res[i].verify())
			res[i].pages = nil
			if !ok {
				continue
			}
			words += float64(res[i].job.resultN)
			jobsOK++
			switch {
			case round == 0: // warm-up
			case isTraced:
				tracedLat = append(tracedLat, res[i].seconds)
				tracedRes = append(tracedRes, res[i])
			default:
				plainLat = append(plainLat, res[i].seconds)
				roundLat = append(roundLat, res[i].seconds)
				done = append(done, res[i])
			}
		}
		if round > 0 && !isTraced && jobsOK > 0 {
			wordRate = append(wordRate, words/wall)
			jobRate = append(jobRate, jobsOK/wall)
			roundP90 = append(roundP90, quantile(roundLat, 0.9))
		}
		return wall, jobsOK > 0, nil
	})
	if err != nil {
		return noMetrics(out, err)
	}
	if !cfg.trace {
		// Every round runs the same jobs, so the first one gives the per-job
		// counts exactly; sums over all of a run's rounds would round
		// differently from run to run.
		first := done[:min(len(done), len(jobs))]
		var words, passes, foot float64
		for _, r := range first {
			words += float64(r.job.words)
			passes += r.status.Report.Passes + r.status.Report.PermutePasses
			foot += float64(r.status.DiskFootprint)
		}
		// op_p90_s is the median round's p90: CPU steal bursts on a
		// shared host inflate a few rounds, which a pooled p90 reports.
		out.values = map[string]float64{
			"setup_s":       setup,
			"words_per_s":   median(wordRate),
			"op_p50_s":      median(plainLat),
			"op_p90_s":      median(roundP90),
			"jobs_per_s":    median(jobRate),
			"ok_frac":       float64(out.attempted-out.failed) / float64(out.attempted),
			"io_passes":     passes / float64(len(first)),
			"scratch_ratio": foot / words,
			"rss_peak_mb":   rssPeakMB(),
		}
		return out, nil
	}
	out.values = v
	svcLayers(v, tracedRes, timing.take())
	v["sched.refused"] = float64(refused)
	v["trace_overhead"] = median(tracedLat)/median(plainLat) - 1
	ap, bp, err := journalProbe(cfg, jobs[:len(svcCycle)], plain)
	if err != nil {
		return nil, err
	}
	v["journal.appends_per_job"], v["journal.bytes_per_job"] = ap, bp
	kernel, err := defaultKernel()
	if err != nil {
		return nil, err
	}
	if err := probeLayers(cfg, v, repro.BackendFile, kernel); err != nil {
		return nil, err
	}
	return out, writeTrace(cfg, tr)
}

// svcLayers fills the per-layer metrics of the traced service-mix jobs
// from their final statuses and the client's exchange log.
func svcLayers(v map[string]float64, res []svcResult, log []exchange) {
	var wait, run, topk, ingest, predErr, compute, busy []float64
	var readSteps, writeSteps, passes, polls, words float64
	scen, fallbacks := 0, 0
	for _, r := range res {
		st, rep := r.status, r.status.Report
		wait = append(wait, st.Started.Sub(st.Submitted).Seconds())
		run = append(run, st.Finished.Sub(st.Started).Seconds())
		if st.Planned != nil && st.Planned.PredictedSeconds > 0 {
			predErr = append(predErr, st.PredictionError) // sorts only: scenario plans predict passes, not seconds
		}
		compute = append(compute, rep.ComputeSeconds)
		busy = append(busy, rep.WorkerUtilization)
		readSteps += float64(rep.IO.ReadSteps)
		writeSteps += float64(rep.IO.WriteSteps)
		passes += rep.Passes + rep.PermutePasses
		polls += float64(r.polls)
		words += float64(r.job.words)
		switch r.job.kind {
		case "topk":
			topk = append(topk, st.Finished.Sub(st.Started).Seconds())
		case "ingest":
			ingest = append(ingest, st.Finished.Sub(st.Started).Seconds())
		}
		if st.Scenario != "" {
			scen++
			if rep.ScenarioRoute == "fullsort" {
				fallbacks++
			}
		}
	}
	n := float64(len(res))
	v["pdm.read_steps"] = readSteps / n
	v["pdm.write_steps"] = writeSteps / n
	v["par.compute_s"] = median(compute)
	v["par.busy_frac"] = median(busy)
	v["core.passes"] = passes / n
	v["plan.pred_rel_err"] = median(predErr)
	v["scenario.topk_run_s"] = median(topk)
	v["scenario.ingest_run_s"] = median(ingest)
	v["scenario.fallback_frac"] = ratio(float64(fallbacks), float64(scen))
	v["sched.queue_wait_p50_s"] = median(wait)
	v["sched.queue_wait_p90_s"] = quantile(wait, 0.9)
	v["sched.run_p50_s"] = median(run)
	v["pdmdapi.submit_p50_s"] = median(routeSeconds(log, "POST /jobs"))
	v["pdmdapi.polls_per_job"] = polls / n
	v["pdmdapi.page_p50_s"] = median(append(routeSeconds(log, "GET /jobs/{id}/keys"), routeSeconds(log, "GET /jobs/{id}/result")...))
	v["pdmdapi.wire_bytes_per_key"] = float64(wireBytes(log)) / words
}

// explainProbe times the planner's first Explain for an n-key sort on the
// nodes' job geometry (file-backed, a pool loadWidth wide); the first
// call in a process includes the calibration probe.
func explainProbe(cfg config, v map[string]float64, n int) error {
	dir := filepath.Join(cfg.dir, "explain")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m, err := repro.NewMachine(repro.MachineConfig{Memory: benchMem, Dir: dir, Workers: loadWidth})
	if err != nil {
		return err
	}
	defer m.Close()
	t0 := time.Now()
	if _, err := m.Explain(repro.SortSpec{N: n}); err != nil {
		return err
	}
	v["plan.explain_s"] = time.Since(t0).Seconds()
	return nil
}

// journalProbe runs one cycle of the mix, one job at a time, through a
// journaled node whose compaction is off, and returns the journal's
// appends and bytes per job from /stats deltas.
func journalProbe(cfg config, jobs []svcJob, c *http.Client) (appends, bytes float64, err error) {
	dir := filepath.Join(cfg.dir, "journal-probe")
	sc := svcSchedConfig(dir)
	sc.JournalCompactBytes = 1 << 40
	n, err := startNode(sc)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		n.close()
		os.RemoveAll(dir)
	}()
	stats := func() (st repro.SchedStats, err error) {
		raw, code, err := call(c, http.MethodGet, n.url+"/stats", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /stats: %d %s", code, raw)
		}
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
		return st, err
	}
	st0, err := stats()
	if err != nil {
		return 0, 0, err
	}
	for i := range jobs {
		if r := runJob(c, n.url, &jobs[i], i, nil); r.err != nil {
			return 0, 0, r.err
		}
	}
	st1, err := stats()
	if err != nil {
		return 0, 0, err
	}
	k := float64(len(jobs))
	return float64(st1.JournalAppends-st0.JournalAppends) / k, float64(st1.JournalBytes-st0.JournalBytes) / k, nil
}
