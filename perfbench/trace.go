package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/pdm"
)

// span is one timed interval of a traced run, recorded from outside the
// program around a call into a layer (or between two of its callbacks).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are offsets from the run's start.
	Start time.Duration `json:"startNs"`
	End   time.Duration `json:"endNs"`
	// Self is the span minus the union of its children, filled in when
	// the spans are written out.
	Self time.Duration `json:"selfNs"`
}

// tracer keeps a run's spans in memory; write dumps them at the end.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.  A nil tracer records nothing
// (the untraced path) and returns 0.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// selfTimes fills each span's Self: its duration minus the part of it
// its children cover (children may overlap one another, as concurrent
// page uploads do).
func selfTimes(spans []span) {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps the spans, with self times, as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// boundary is one pass boundary reported through pdm.Array's
// checkpointer: the algorithm's tag and pass, when it arrived, and the
// array's cumulative statistics at that point.
type boundary struct {
	label string
	at    time.Time
	stats pdm.Stats
}

// passRecorder collects the boundaries of one op; install records as
// the array's checkpointer.
type passRecorder struct{ bounds []boundary }

func (r *passRecorder) record(cp pdm.Checkpoint) error {
	r.bounds = append(r.bounds, boundary{label: fmt.Sprintf("%s#%d", cp.Alg, cp.Pass), at: time.Now(), stats: cp.Stats})
	return nil
}

// passSpan is a stretch of one op between pass boundaries, labelled by
// the boundary that closes it ("tail" for the stretch after the last).
type passSpan struct {
	label      string
	start, end time.Time
	// compute is the parallel-compute wall time inside the span.
	compute time.Duration
}

// tailLabel names the span from the last boundary to the op's end.
const tailLabel = "tail"

// groupSpans tiles one op's wall time [start, end] into spans at its
// pass boundaries.  Consecutive boundaries with the same label (a records
// permutation reports one per partition) merge into one span; an op with
// no boundaries (OnePass, ExpTwoPassMesh, ExpectedThreePass) is a single
// tail span.  The spans never overlap and their durations sum exactly to
// end − start.  st0 and stEnd are the array's statistics at the op's
// start and end, from which each span's compute share is taken.
func groupSpans(start time.Time, st0 pdm.Stats, bounds []boundary, end time.Time, stEnd pdm.Stats) []passSpan {
	var out []passSpan
	prevAt, prevStats := start, st0
	for _, b := range bounds {
		dc := time.Duration(b.stats.ComputeWallNanos - prevStats.ComputeWallNanos)
		if n := len(out); n > 0 && out[n-1].label == b.label {
			out[n-1].end = b.at
			out[n-1].compute += dc
		} else {
			out = append(out, passSpan{label: b.label, start: prevAt, end: b.at, compute: dc})
		}
		prevAt, prevStats = b.at, b.stats
	}
	dc := time.Duration(stEnd.ComputeWallNanos - prevStats.ComputeWallNanos)
	return append(out, passSpan{label: tailLabel, start: prevAt, end: end, compute: dc})
}

func (s passSpan) seconds() float64 { return s.end.Sub(s.start).Seconds() }

// computeFrac is the share of the span spent in parallel compute.
func (s passSpan) computeFrac() float64 {
	return ratio(s.compute.Seconds(), s.seconds())
}
