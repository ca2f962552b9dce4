package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop runs sessions 0..n-1 on lanes concurrent client lanes and
// returns how late each session started. Session i is due at
// start + i*interval whatever happened before it: a lane takes the lowest
// session not yet taken, waits for its due time if it is early, and runs
// it. run must time its requests from due, so a stalled response is
// charged to every session queued behind it, not hidden by a client that
// simply sends less.
func openLoop(start time.Time, n, lanes int, interval time.Duration, run func(lane, i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late[i] = time.Since(due)
				run(lane, i, due)
			}
		}(l)
	}
	wg.Wait()
	return late
}

// timedCall times consecutive requests of one session from their due
// times: the first is due when the session is, each later one when the
// previous response arrived.
type timedCall struct {
	due time.Time
}

// done returns the latency of the request that just completed, measured
// from its due time, and makes the next request due now.
func (t *timedCall) done() time.Duration {
	now := time.Now()
	lat := now.Sub(t.due)
	t.due = now
	return lat
}
