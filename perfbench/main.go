// Command perfbench is the repository's benchmark: it runs one named
// workload against the public entry points (the repro facade, the job
// scheduler behind pdmd's HTTP handler, and the distributed coordinator)
// for a fixed measuring time, checks every output, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer metrics — as one
// JSON object on the last line of standard output.
//
//	perfbench -workload sort-keys -seed 7 -seconds 20 -trace 0
//
// Workloads: sort-keys, sort-records, service-mix, dist-sort (see
// README.md for why each exists and which layers it bypasses).  The seed
// drives every generated input.  The exit code is 0 only when every
// output checked correct; a run that cannot set up exits non-zero
// without a result line.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one run's settings, fixed from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is the run's private scratch directory.
	dir string
}

// loadWidth is both the compute pool width and the number of load
// goroutines (service-mix clients, dist upload concurrency).
const loadWidth = 2

// outcome is what a workload reports back: the top-level counts and the
// metric values by name (units come from the metric tables).
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

// workloads maps the benchmark's workload names to the functions that
// run them.
var workloads = map[string]func(config) (*outcome, error){
	"sort-keys":    runSortKeys,
	"sort-records": runSortRecords,
	"service-mix":  runServiceMix,
	"dist-sort":    runDistSort,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: sort-keys, sort-records, service-mix, dist-sort")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	cfg.trace = trace == 1
	drive, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		return 2
	}
	if n := runtime.NumCPU(); loadWidth > n {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to run: load goroutines and pool width %d exceed nproc = %d\n", loadWidth, n)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.dir = filepath.Join(wd, ".bench_build", "run", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// A healthy run ends well inside this; a hung layer must not keep the
	// benchmark from exiting.
	limit := 2*time.Duration(cfg.seconds*float64(time.Second)) + time.Minute
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run exceeded %v\n", cfg.workload, limit)
		os.Exit(1)
	})
	steal0, total0 := cpuTicks()
	out, err := drive(cfg)
	steal1, total1 := cpuTicks()
	os.RemoveAll(cfg.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s width=%d steal=%.3f\n",
		cfg.workload, cfg.seed, cfg.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), loadWidth,
		ratio(float64(steal1-steal0), float64(total1-total0)))
	for _, d := range table {
		if out.values == nil {
			break // every op failed: the result carries the counts only
		}
		v, ok := out.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s missing or not finite (%v)\n", cfg.workload, d.name, v)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  attempted=%d failed=%d\n", out.attempted, out.failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one reported metric and its unit; the tables below
// mirror BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"words_per_s", "words/s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"jobs_per_s", "1/s"},
	{"ok_frac", "frac"},
	{"io_passes", "passes"},
	{"scratch_ratio", "ratio"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"pdm.read_steps", "count"},
	{"pdm.write_steps", "count"},
	{"pdm.block_read_us", "us"},
	{"pdm.block_write_us", "us"},
	{"stream.prefetch_stall_frac", "frac"},
	{"stream.writebehind_stall_frac", "frac"},
	{"par.compute_s", "s"},
	{"par.busy_frac", "frac"},
	{"memsort.runform_keys_per_s", "keys/s"},
	{"memsort.merge_keys_per_s", "keys/s"},
	{"core.pass1_s", "s"},
	{"core.pass2_s", "s"},
	{"core.pass3_s", "s"},
	{"core.pass1_compute_frac", "frac"},
	{"core.pass2_compute_frac", "frac"},
	{"core.pass3_compute_frac", "frac"},
	{"core.passes", "passes"},
	{"plan.explain_s", "s"},
	{"plan.pred_rel_err", "frac"},
	{"records.keysort_s", "s"},
	{"records.permute_s", "s"},
	{"records.tail_s", "s"},
	{"records.permute_passes", "passes"},
	{"records.key_rounds", "count"},
	{"scenario.topk_run_s", "s"},
	{"scenario.ingest_run_s", "s"},
	{"scenario.fallback_frac", "frac"},
	{"sched.queue_wait_p50_s", "s"},
	{"sched.queue_wait_p90_s", "s"},
	{"sched.run_p50_s", "s"},
	{"sched.refused", "count"},
	{"journal.appends_per_job", "count"},
	{"journal.bytes_per_job", "B"},
	{"pdmdapi.submit_p50_s", "s"},
	{"pdmdapi.polls_per_job", "count"},
	{"pdmdapi.page_p50_s", "s"},
	{"pdmdapi.upload_page_p50_s", "s"},
	{"pdmdapi.wire_bytes_per_key", "B/key"},
	{"dist.partition_s", "s"},
	{"dist.upload_s", "s"},
	{"dist.shard_wait_s", "s"},
	{"dist.merge_s", "s"},
	{"dist.shard_skew", "ratio"},
	{"trace_overhead", "frac"},
}

// setupReps is how many times a run constructs its system before it
// measures.  A construction takes about a millisecond, most of it
// creating scratch files, and on a shared disk that time switches between
// regimes for tens of constructions at a time; the fastest of a few
// hundred is the figure that repeats from run to run.
const setupReps = 300

// setupSeconds constructs a workload's system setupReps times, each in
// its own scratch directory, and returns the fastest construction; start
// returns the function that tears the system down again.
func setupSeconds(cfg config, start func(dir string) (stop func(), err error)) (float64, error) {
	fastest := math.Inf(1)
	// Flush what earlier runs left dirty, so that creating files below
	// does not wait on their writeback.
	syscall.Sync()
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		stop, err := start(dir)
		if err != nil {
			return 0, err
		}
		fastest = min(fastest, time.Since(t0).Seconds())
		stop()
		os.RemoveAll(dir)
	}
	return fastest, nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssPeakMB is the benchmark process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// record counts one op (a facade call, a job, a distributed sort) and
// reports whether its output checked correct; err is why it did not.
func (o *outcome) record(id int, err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", id, err)
		return false
	}
	return true
}

// measure drives a workload: one untimed warm-up op (id 0), then ops
// until their measured seconds reach cfg.seconds.  In a traced run every
// other op is traced, so the untraced ones give the tracing overhead.
// op returns the seconds it measured and whether it checked correct; an
// error stops the run.  measure fails with errNoMetrics when no op of a
// kind the metrics need checked correct.
func measure(cfg config, op func(id int, traced bool) (seconds float64, ok bool, err error)) error {
	if _, _, err := op(0, false); err != nil {
		return err
	}
	plain, traced := 0, 0
	for id, measured := 1, 0.0; measured < cfg.seconds; id++ {
		isTraced := cfg.trace && id%2 == 1
		s, ok, err := op(id, isTraced)
		if err != nil {
			return err
		}
		measured += s
		switch {
		case ok && isTraced:
			traced++
		case ok:
			plain++
		}
	}
	if plain == 0 || (cfg.trace && traced == 0) {
		return errNoMetrics
	}
	return nil
}

// errNoMetrics is measure's failure when ops ran but none of a needed
// kind checked correct.
var errNoMetrics = errors.New("no op checked correct")

// noMetrics is a workload's outcome after measure failed with err: with
// failed ops it carries the counts (the metrics cannot be reported);
// otherwise the run could not measure at all.
func noMetrics(out *outcome, err error) (*outcome, error) {
	if err != errNoMetrics || out.failed == 0 {
		return nil, err
	}
	out.values = nil
	return out, nil
}

// zeroLayers returns a per-layer value map with every metric at 0: the
// reading for a layer the workload bypasses or cannot observe from
// outside.  Workloads overwrite the ones they measure.
func zeroLayers() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

// cpuTicks reads the machine's steal and total CPU ticks from /proc/stat
// (zeros where it does not exist).  The steal share of a run is printed
// with its result: on a shared host it explains most run-to-run spread.
func cpuTicks() (steal, total int64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	for i, fld := range fields[1:] {
		v, _ := strconv.ParseInt(fld, 10, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}
