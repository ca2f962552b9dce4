package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A stalled response must be charged to the sessions queued behind it: an
// open loop times every request from its due time, so later sessions read
// the stall as latency instead of the client quietly sending less.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.hc.CloseIdleConnections()

	const n, interval = 6, 20 * time.Millisecond
	lat := make([]time.Duration, n)
	start := time.Now()
	late := openLoop(start, n, 1, interval, func(_, i int, due time.Time) {
		tc := timedCall{due: due}
		if _, _, err := c.do("GET", "/", "req", nil); err != nil {
			t.Error(err)
		}
		lat[i] = tc.done()
	})

	if lat[0] < stall {
		t.Fatalf("stalled request latency %v, want at least %v", lat[0], stall)
	}
	for i := 1; i < n; i++ {
		// Session i was due i intervals after the stalled one began and
		// could not start before it ended.
		want := stall - time.Duration(i)*interval
		if lat[i] < want {
			t.Errorf("session %d latency %v, want at least %v (the stall minus its head start)", i, lat[i], want)
		}
		if late[i] < want {
			t.Errorf("session %d started %v late, want at least %v", i, late[i], want)
		}
	}
}

// Without stalls an open loop keeps its schedule: sessions start on time.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	const n, interval = 5, 30 * time.Millisecond
	start := time.Now()
	late := openLoop(start, n, 2, interval, func(_, i int, due time.Time) {})
	if took := time.Since(start); took < (n-1)*interval {
		t.Errorf("%d sessions at %v spacing ended after %v: the loop ran ahead of schedule", n, interval, took)
	}
	for i, l := range late {
		if l > 20*time.Millisecond {
			t.Errorf("session %d started %v late with nothing in its way", i, l)
		}
	}
}
