package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestPoolDrainCompletesInFlightJobs: close() must let jobs already
// dequeued-or-queued finish and deliver their results, while concurrent
// and subsequent submits are rejected with ErrPoolClosed.
func TestPoolDrainCompletesInFlightJobs(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	place := func(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
		started <- struct{}{}
		<-release
		return &PlacementResult{Hosts: []int{int(req.Seed)}}, nil
	}
	p := newPool(1, 3, metrics.NewRegistry())

	// One job running in the worker, three parked in a now-full queue —
	// full, so the rejection probe below can never sneak a job in while
	// racing close().
	type outcome struct {
		res *PlacementResult
		err error
	}
	results := make(chan outcome, 4)
	var wg sync.WaitGroup
	submit := func(seed int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.submitKeyed(context.Background(), "", place, PlacementRequest{Seed: seed})
			results <- outcome{res, err}
		}()
	}
	submit(0)
	<-started // the worker holds job 0 now
	for seed := int64(1); seed <= 3; seed++ {
		submit(seed)
	}
	// Wait until the three queued jobs are actually enqueued (submit
	// either parks them in the channel or would have errored).
	deadline := time.After(2 * time.Second)
	for len(p.queue) != 3 {
		select {
		case <-deadline:
			t.Fatalf("queue depth = %d, want 3", len(p.queue))
		case <-time.After(time.Millisecond):
		}
	}

	// Drain concurrently with the stuck jobs.
	closed := make(chan struct{})
	go func() {
		p.close()
		close(closed)
	}()

	// close() marks the pool closed immediately; a fresh submit must be
	// turned away without blocking.
	rejectDeadline := time.After(2 * time.Second)
	for {
		_, err := p.submitKeyed(context.Background(), "", place, PlacementRequest{Seed: 99})
		if errors.Is(err, ErrPoolClosed) {
			break
		}
		select {
		case <-rejectDeadline:
			t.Fatalf("submit during drain: err = %v, want ErrPoolClosed", err)
		case <-time.After(time.Millisecond):
		}
	}

	select {
	case <-closed:
		t.Fatalf("close returned while jobs were still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(release) // let the worker finish all four jobs
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatalf("close did not return after jobs finished")
	}
	wg.Wait()
	close(results)

	got := 0
	for r := range results {
		if r.err != nil {
			t.Fatalf("drained job failed: %v", r.err)
		}
		if r.res == nil {
			t.Fatalf("drained job lost its result")
		}
		got++
	}
	if got != 4 {
		t.Fatalf("completed jobs = %d, want 4 (1 running + 3 queued)", got)
	}

	// After drain, rejection is permanent.
	if _, err := p.submitKeyed(context.Background(), "", place, PlacementRequest{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-drain submit err = %v, want ErrPoolClosed", err)
	}
}

// TestPoolCloseIdempotent: double close must not panic or deadlock.
func TestPoolCloseIdempotent(t *testing.T) {
	p := newPool(2, 2, metrics.NewRegistry())
	p.close()
	p.close()
}
