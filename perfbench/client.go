package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reqIDHeader tags each request in traced runs so the handler wrapper's span
// can be joined to the client's record of the same request. The server
// ignores the header.
const reqIDHeader = "X-Perfbench-Req"

// client sends the workload over at most conns keep-alive connections;
// requests beyond that wait for a free connection, as they would behind any
// pooled client.
type client struct {
	http   *http.Client
	base   string
	tagged bool
	ids    atomic.Int64
}

func newClient(base string, conns int, tagged bool) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{http: &http.Client{Transport: tr}, base: base, tagged: tagged}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is the outcome of one request.
type reply struct {
	id     int64 // request id; 0 when untagged
	status int
	body   []byte
	// sent is when the request got a connection and went out; before it,
	// the request waited for one of the pool's connections.
	sent, end time.Time
}

// post sends one request and reads the whole response.
func (c *client) post(path string, body []byte) (reply, error) {
	var r reply
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { r.sent = time.Now() }}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
		http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tagged {
		r.id = c.ids.Add(1)
		req.Header.Set(reqIDHeader, strconv.FormatInt(r.id, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.body, err = io.ReadAll(resp.Body)
	r.end = time.Now()
	return r, err
}

// get fetches a path and returns its body, failing on any status but 200.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// closedLoop runs clients that each send their next operation only after
// the previous one completes, until the deadline. Operation indexes are
// handed out in order, so the run covers a prefix of the operation list.
func closedLoop(clients int, deadline time.Time, op func(i int, due time.Time)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(int(next.Add(1)-1), time.Time{})
			}
		}()
	}
	wg.Wait()
}

// sleepUntil blocks until t. The last two milliseconds are slept in the
// kernel on a locked OS thread: when every P is idle, the runtime's timers
// wake a goroutine at millisecond granularity (up to a millisecond late),
// which made open-loop sends half a millisecond late on average.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
		d = time.Until(t)
	}
	if d <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// pacedLoop runs operations one at a time, in order: operation i is sent at
// start + i/rate, or as soon as operation i-1 completes if that is later,
// for every due time before the deadline.
func pacedLoop(start, deadline time.Time, rate float64, op func(i int, due time.Time)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(deadline) {
			return
		}
		sleepUntil(due)
		op(i, due)
	}
}

// maxOpenInFlight bounds the goroutines an open loop keeps waiting on the
// server. At the workloads' rates it is seconds of backlog; an operation due
// beyond it is dropped and counted as failed.
const maxOpenInFlight = 4096

// openLoop sends operation i at start + i/rate, whether or not earlier ones
// have completed, for every due time before the deadline, then waits for all
// of them. It returns the number of operations dropped at the in-flight
// bound.
func openLoop(start, deadline time.Time, rate float64, op func(i int, due time.Time)) int {
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOpenInFlight)
	dropped := 0
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !due.Before(deadline) {
			break
		}
		sleepUntil(due)
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			op(i, due)
		}(i)
	}
	wg.Wait()
	return dropped
}
