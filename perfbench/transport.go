package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// exchange is one finished HTTP round trip as the client saw it: from
// sending the request until the response body was read to its end or
// closed.
type exchange struct {
	route              string
	start, end         time.Time
	reqBytes, resBytes int64
}

func (e exchange) seconds() float64 { return e.end.Sub(e.start).Seconds() }

// timingTransport is an http.RoundTripper that times every exchange and
// counts its request and response body bytes under a normalised route
// ("POST /uploads/{id}/pages").  One instance serves as the transport of
// the service-mix client and of DistConfig.Client.
type timingTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	log  []exchange
}

func newTimingTransport() *timingTransport {
	return &timingTransport{base: newLoopbackTransport()}
}

// newLoopbackTransport is the plain transport both the traced and the
// untraced clients use, with enough idle connections per host that the
// load goroutines never reconnect.
func newLoopbackTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	t.Proxy = nil
	return t
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	route := routeOf(req.Method, req.URL.Path)
	var reqBody *countingReader
	if req.Body != nil {
		reqBody = &countingReader{r: req.Body}
		req = req.Clone(req.Context())
		req.Body = reqBody
	}
	res, err := t.base.RoundTrip(req)
	if err != nil {
		t.add(exchange{route: route, start: start, end: time.Now(), reqBytes: reqBody.count()})
		return nil, err
	}
	body := &countingReader{r: res.Body}
	var once sync.Once
	body.done = func() {
		once.Do(func() {
			t.add(exchange{route: route, start: start, end: time.Now(), reqBytes: reqBody.count(), resBytes: body.count()})
		})
	}
	res.Body = body
	return res, nil
}

func (t *timingTransport) add(e exchange) {
	t.mu.Lock()
	t.log = append(t.log, e)
	t.mu.Unlock()
}

// take returns the exchanges recorded since the last take and clears
// the log.
func (t *timingTransport) take() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}

// countingReader counts the bytes read through it and calls done once
// at EOF or Close.  The count is atomic: the transport reads a request
// body on its own goroutine.
type countingReader struct {
	r    io.ReadCloser
	n    atomic.Int64
	done func()
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	if err == io.EOF && c.done != nil {
		c.done()
	}
	return n, err
}

func (c *countingReader) Close() error {
	err := c.r.Close()
	if c.done != nil {
		c.done()
	}
	return err
}

func (c *countingReader) count() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// routeOf normalises a request to its route: the segment after "jobs"
// or "uploads" is an id.
func routeOf(method, path string) string {
	segs := strings.Split(strings.Trim(path, "/"), "/")
	for i := 1; i < len(segs); i++ {
		if segs[i-1] == "jobs" || segs[i-1] == "uploads" {
			segs[i] = "{id}"
		}
	}
	return method + " /" + strings.Join(segs, "/")
}

// dataRoute reports whether a route's response body carries result keys
// (as opposed to job status, whose timestamps vary run to run).
func dataRoute(route string) bool {
	return strings.HasSuffix(route, "/keys") || strings.HasSuffix(route, "/result") || strings.HasSuffix(route, "/records")
}

// wireBytes sums what the exchanges moved of user data: every request
// body plus every result-page response body.
func wireBytes(log []exchange) int64 {
	var n int64
	for _, e := range log {
		n += e.reqBytes
		if dataRoute(e.route) {
			n += e.resBytes
		}
	}
	return n
}

// routeSeconds lists the durations of the exchanges on one route.
func routeSeconds(log []exchange, route string) []float64 {
	var out []float64
	for _, e := range log {
		if e.route == route {
			out = append(out, e.seconds())
		}
	}
	return out
}
