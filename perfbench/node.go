package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro"
	"repro/internal/pdmdapi"
)

// node is one in-process pdmd: pdmdapi's handler over a Scheduler,
// served on a loopback listener.
type node struct {
	sch    *repro.Scheduler
	srv    *http.Server
	url    string
	served chan struct{}
}

// startNode builds a node and waits until its /healthz answers.
func startNode(sc repro.SchedulerConfig) (*node, error) {
	for _, d := range []string{sc.Dir, sc.JournalDir} {
		if d != "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
		}
	}
	sch, err := repro.NewScheduler(sc)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sch.Close()
		return nil, err
	}
	n := &node{
		sch:    sch,
		srv:    &http.Server{Handler: pdmdapi.New(sch, pdmdapi.Options{})},
		url:    "http://" + l.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		n.srv.Serve(l) //nolint:errcheck // ErrServerClosed on close
		close(n.served)
	}()
	if _, code, err := call(healthClient, http.MethodGet, n.url+"/healthz", nil); err != nil || code != http.StatusOK {
		n.close()
		return nil, fmt.Errorf("node %s not healthy: %d %v", n.url, code, err)
	}
	return n, nil
}

// close stops the listener, waits for the server loop, and closes the
// scheduler (cancelling whatever is left).
func (n *node) close() {
	n.srv.Close()
	<-n.served
	n.sch.Close()
}

var healthClient = &http.Client{Transport: newLoopbackTransport(), Timeout: 10 * time.Second}

// call performs one request and reads the whole response body.
func call(c *http.Client, method, url string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	return raw, res.StatusCode, err
}
