package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime drives the open loop against a stub that
// refuses every fifth request with 503 and stalls once: refused
// requests count as failed and as SLO misses, the stall shows in the
// latency of the requests queued behind it, and the generator's lag is
// reported.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch i := n.Add(1) - 1; {
		case i%5 == 4:
			http.Error(w, "busy", http.StatusServiceUnavailable)
		case i == 2:
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	do := func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return nil
	}

	// One connection at 100 requests/s: requests due 10 ms apart.
	samples := openLoop(10, 100, 1, do)
	rec := &recorder{}
	recordLoad(rec, samples, nil, 50*time.Millisecond)

	if rec.failed != 2 {
		t.Errorf("failed = %d, want the 2 refused requests", rec.failed)
	}
	// Request 3 was due 10 ms after the stalled request 2 but could only
	// start when it finished: timed from its due time, it waited about
	// stall - 10 ms, though its own service time was tiny.
	if got := samples[3].done.Sub(samples[3].due); got < stall-20*time.Millisecond {
		t.Errorf("request behind the stall: latency %v from due time, want >= %v", got, stall-20*time.Millisecond)
	}
	if got := samples[3].done.Sub(samples[3].sent); got > stall/2 {
		t.Errorf("request behind the stall: service time %v, want much less than the stall", got)
	}
	// The stalled request and those behind it miss the 50 ms limit, in
	// addition to the refusals.
	if rec.sloMiss <= rec.failed {
		t.Errorf("slo misses %d, want more than the %d failures", rec.sloMiss, rec.failed)
	}
	side := rec.sideMetrics()
	if side["loadgen.lag_ms"] < 50 {
		t.Errorf("loadgen.lag_ms = %v, want the stall's backlog (>= 50 ms)", side["loadgen.lag_ms"])
	}
	if side["failed_frac"] != 0.2 {
		t.Errorf("failed_frac = %v, want 0.2", side["failed_frac"])
	}
	// A percentile that lands on a failed request reads as a failure.
	if p99 := rec.latency(0.99); p99 != failedLatency {
		t.Errorf("p99 = %v, want %v: failures rank above every success", p99, failedLatency)
	}
}
