package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/pdm"
)

// dist-sort: 2^21 uniform keys over two in-process pdmd nodes, each
// loadWidth/2 = 1 worker wide, so N, M and the total compute width match
// sort-keys.
const (
	distN     = sortKeysN
	distNodes = 2
)

// fleet is one distributed set-up: the nodes and the coordinator.
type fleet struct {
	nodes []*node
	ds    *repro.DistSorter
}

func startFleet(dir string, client *http.Client) (*fleet, error) {
	envelope := pdm.Config{Mem: benchMem, D: 32, B: 128}.ArenaCapacity()
	f := &fleet{}
	var urls []string
	for i := 0; i < distNodes; i++ {
		n, err := startNode(repro.SchedulerConfig{
			Memory:     envelope * 3 / 2,
			DiskBudget: 16 * distN,
			Workers:    loadWidth / distNodes,
			JobMemory:  benchMem,
			Dir:        filepath.Join(dir, fmt.Sprintf("node%d", i)),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		urls = append(urls, n.url)
	}
	ds, err := repro.NewDistSorter(repro.DistConfig{
		Workers:     urls,
		Client:      client,
		Concurrency: loadWidth,
		Label:       "perfbench",
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.ds = ds
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		n.close()
	}
}

// distOp is one measured distributed sort.
type distOp struct {
	seconds    float64
	rep        *repro.DistReport
	shards     []repro.JobStatus // final shard statuses, read after the op
	log        []exchange        // traced ops only
	start, end time.Time
}

func runDistSort(cfg config) (*outcome, error) {
	input, err := (&repro.WorkloadSpec{Kind: "uniform", N: distN, Seed: cfg.seed}).Generate()
	if err != nil {
		return nil, err
	}
	want := sumOf(input)
	buf := make([]int64, len(input))
	plain := &http.Client{Transport: newLoopbackTransport()}
	timing := newTimingTransport()
	traced := &http.Client{Transport: timing}
	var tr *tracer
	v := zeroLayers()
	if cfg.trace {
		tr = newTracer()
		if err := explainProbe(cfg, v, distN/distNodes); err != nil {
			return nil, err
		}
	}

	setup, err := setupSeconds(cfg, func(dir string) (func(), error) {
		f, err := startFleet(dir, plain)
		if err != nil {
			return nil, err
		}
		return f.close, nil
	})
	if err != nil {
		return nil, err
	}

	out := &outcome{}
	var plainOps, tracedOps []distOp
	// Each op runs on a fresh fleet.  It stops the run only when the fleet
	// cannot be built; a failed or wrong sort is counted.
	err = measure(cfg, func(id int, isTraced bool) (float64, bool, error) {
		client := plain
		if isTraced {
			client = traced
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("op%d", id))
		defer os.RemoveAll(dir)
		f, err := startFleet(dir, client)
		if err != nil {
			return 0, false, err
		}
		defer f.close()
		copy(buf, input)
		timing.take()
		runtime.GC() // the harness's garbage, outside the clock (see runFacade)
		t1 := time.Now()
		sorted, rep, err := f.ds.Sort(context.Background(), buf)
		t2 := time.Now()
		op := distOp{seconds: t2.Sub(t1).Seconds(), rep: rep, start: t1, end: t2}
		if isTraced {
			op.log = timing.take()
		}
		if err == nil {
			err = checkSorted(sorted, want)
		}
		if err == nil {
			op.shards, err = shardStatuses(plain, rep)
		}
		if !out.record(id, err) {
			return op.seconds, false, nil
		}
		switch {
		case id == 0: // warm-up
		case isTraced:
			traceDist(tr, id, op)
			tracedOps = append(tracedOps, op)
		default:
			plainOps = append(plainOps, op)
		}
		return op.seconds, true, nil
	})
	if err != nil {
		return noMetrics(out, err)
	}
	lat := func(ops []distOp) []float64 {
		var s []float64
		for _, op := range ops {
			s = append(s, op.seconds)
		}
		return s
	}
	if !cfg.trace {
		op := plainOps[0]
		foot := 0
		for _, st := range op.shards {
			foot += st.DiskFootprint
		}
		out.values = opValues(out, setup, lat(plainOps), distN, op.rep.Passes, float64(foot)/distN)
		return out, nil
	}
	out.values = v
	distLayers(v, tracedOps)
	v["trace_overhead"] = median(lat(tracedOps))/median(lat(plainOps)) - 1
	kernel, err := defaultKernel()
	if err != nil {
		return nil, err
	}
	if err := probeLayers(cfg, v, repro.BackendFile, kernel); err != nil {
		return nil, err
	}
	return out, writeTrace(cfg, tr)
}

// shardStatuses reads each shard job's final status from its node.
func shardStatuses(c *http.Client, rep *repro.DistReport) ([]repro.JobStatus, error) {
	var out []repro.JobStatus
	for _, s := range rep.Shards {
		raw, code, err := call(c, http.MethodGet, fmt.Sprintf("%s/jobs/%d", s.Worker, s.JobID), nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /jobs/%d: %d %s", s.JobID, code, raw)
		}
		var st repro.JobStatus
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// distPhases splits one distributed sort at its first page upload, last
// commit and first result page: partition, upload, shard wait, merge.
// The four tile the op's wall time.
func distPhases(op distOp) (partition, upload, wait, merge time.Duration) {
	var firstUp, lastCommit, firstPage time.Time
	for _, e := range op.log {
		switch e.route {
		case "POST /uploads/{id}/pages":
			if firstUp.IsZero() || e.start.Before(firstUp) {
				firstUp = e.start
			}
		case "POST /uploads/{id}/commit":
			if e.end.After(lastCommit) {
				lastCommit = e.end
			}
		case "GET /jobs/{id}/keys":
			if firstPage.IsZero() || e.start.Before(firstPage) {
				firstPage = e.start
			}
		}
	}
	if firstUp.IsZero() || lastCommit.IsZero() || firstPage.IsZero() {
		return 0, 0, 0, 0
	}
	return firstUp.Sub(op.start), lastCommit.Sub(firstUp), firstPage.Sub(lastCommit), op.end.Sub(firstPage)
}

func traceDist(tr *tracer, id int, op distOp) {
	root := tr.add(id, 0, "dist.sort", op.start, op.end)
	p, u, w, _ := distPhases(op)
	t := op.start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"dist.partition", p}, {"dist.upload", u}, {"dist.shard_wait", w}} {
		tr.add(id, root, ph.name, t, t.Add(ph.d))
		t = t.Add(ph.d)
	}
	tr.add(id, root, "dist.merge", t, op.end)
	for _, e := range op.log {
		tr.add(id, root, e.route, e.start, e.end)
	}
}

// distLayers fills the per-layer metrics of the traced distributed sorts.
func distLayers(v map[string]float64, ops []distOp) {
	var part, up, wait, merge, qwait, run, predErr, compute, busy []float64
	var log []exchange
	var ios []pdm.Stats
	jobs := 0
	for _, op := range ops {
		p, u, w, m := distPhases(op)
		part, up = append(part, p.Seconds()), append(up, u.Seconds())
		wait, merge = append(wait, w.Seconds()), append(merge, m.Seconds())
		log = append(log, op.log...)
		for _, st := range op.shards {
			qwait = append(qwait, st.Started.Sub(st.Submitted).Seconds())
			run = append(run, st.Finished.Sub(st.Started).Seconds())
			predErr = append(predErr, st.PredictionError)
			jobs++
		}
		compute = append(compute, op.rep.IO.ComputeSeconds())
		busy = append(busy, op.rep.IO.WorkerUtilization(1))
		ios = append(ios, op.rep.IO)
	}
	rep := ops[0].rep
	maxN, totalN := 0, 0
	for _, s := range rep.Shards {
		maxN = max(maxN, s.N)
		totalN += s.N
	}
	v["pdm.read_steps"] = float64(rep.IO.ReadSteps)
	v["pdm.write_steps"] = float64(rep.IO.WriteSteps)
	streamLayers(v, ios)
	v["par.compute_s"] = median(compute)
	v["par.busy_frac"] = median(busy)
	v["core.passes"] = rep.Passes
	v["plan.pred_rel_err"] = median(predErr)
	v["sched.queue_wait_p50_s"] = median(qwait)
	v["sched.queue_wait_p90_s"] = quantile(qwait, 0.9)
	v["sched.run_p50_s"] = median(run)
	v["pdmdapi.submit_p50_s"] = median(routeSeconds(log, "POST /uploads/{id}/commit"))
	v["pdmdapi.polls_per_job"] = float64(len(routeSeconds(log, "GET /jobs/{id}"))) / float64(jobs)
	v["pdmdapi.page_p50_s"] = median(routeSeconds(log, "GET /jobs/{id}/keys"))
	v["pdmdapi.upload_page_p50_s"] = median(routeSeconds(log, "POST /uploads/{id}/pages"))
	v["pdmdapi.wire_bytes_per_key"] = float64(wireBytes(ops[0].log)) / distN
	v["dist.partition_s"] = median(part)
	v["dist.upload_s"] = median(up)
	v["dist.shard_wait_s"] = median(wait)
	v["dist.merge_s"] = median(merge)
	v["dist.shard_skew"] = ratio(float64(maxN), float64(totalN)/float64(len(rep.Shards)))
}
