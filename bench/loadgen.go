package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loadSample is one request of a load phase.
type loadSample struct {
	due, sent, done time.Time
	err             error
}

// openLoop issues n requests at a fixed rate, as independent users
// would, over at most conns concurrent connections. A request waits
// for a free connection when all are busy, so a stall delays the
// requests behind it; that wait counts, because every request is timed
// from the moment it was due.
func openLoop(n int, rate float64, conns int, do func(i int) error) []loadSample {
	out := make([]loadSample, n)
	start := time.Now()
	for i := range out {
		out[i].due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	queue := make(chan int, n) // sized to every send: the dispatcher never blocks
	go func() {
		defer close(queue)
		for i := range out {
			if d := time.Until(out[i].due); d > 0 {
				time.Sleep(d)
			}
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].sent = time.Now()
				out[i].err = do(i)
				out[i].done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs n requests from `sessions` callers that each send the
// next request only after the previous one completed, and returns each
// request's outcome and the phase's wall time.
func closedLoop(n, sessions int, do func(i int) error) ([]loadSample, time.Duration) {
	out := make([]loadSample, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i].sent = time.Now()
				out[i].due = out[i].sent
				out[i].err = do(i)
				out[i].done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// recordLoad adds a load phase's requests to the recorder. A request
// counts as failed when it errored or failed verification (bad[i]);
// limit > 0 is the latency limit a successful request may not exceed
// without counting as an SLO miss.
func recordLoad(rec *recorder, samples []loadSample, bad []bool, limit time.Duration) {
	for i, s := range samples {
		failed := s.err != nil || (bad != nil && bad[i])
		lat := s.done.Sub(s.due)
		rec.op(lat, failed)
		if !failed && limit > 0 && lat > limit {
			rec.sloMiss++
		}
		rec.lag = append(rec.lag, s.sent.Sub(s.due))
	}
}
