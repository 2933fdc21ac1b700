package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Errors the placement pool can return from submit.
var (
	// ErrQueueFull means the bounded job queue had no room; the HTTP
	// layer translates it to 429 Too Many Requests.
	ErrQueueFull = errors.New("server: placement queue full")
	// ErrPoolClosed means the pool has been shut down.
	ErrPoolClosed = errors.New("server: placement pool closed")
	// ErrJobPanicked means the placement function panicked; the worker
	// recovered (one bad job must not take the daemon down) and the HTTP
	// layer reports 500.
	ErrJobPanicked = errors.New("server: placement job panicked")
	// ErrTenantBusy means one scenario already has its per-tenant quota of
	// placement jobs queued or running; the HTTP layer translates it to
	// 429 so a single noisy tenant cannot monopolize the shared pool.
	ErrTenantBusy = errors.New("server: scenario placement job limit reached")
)

// ServiceSpec is the wire form of one service to place.
type ServiceSpec struct {
	Name    string `json:"name,omitempty"`
	Clients []int  `json:"clients"`
}

// PlacementRequest is the body of POST /v1/placements.
type PlacementRequest struct {
	Services  []ServiceSpec `json:"services"`
	Alpha     float64       `json:"alpha"`
	Objective string        `json:"objective,omitempty"`
	// Algorithm selects the placement strategy: "lazy", "greedy",
	// "greedy+ls", "qos", "random", "bruteforce", or "branchbound"; any
	// other name is an unknown algorithm, a 400. Empty selects the facade
	// default — lazy for submodular objectives, greedy otherwise; both
	// produce the identical deterministic placement.
	Algorithm string `json:"algorithm,omitempty"`
	K         int    `json:"k,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
}

// PlacementResult is the body of a successful placement response.
type PlacementResult struct {
	Hosts                 []int   `json:"hosts"`
	Objective             float64 `json:"objective"`
	Coverage              int     `json:"coverage"`
	Identifiable          int     `json:"identifiable"`
	Distinguishable       int64   `json:"distinguishable"`
	WorstRelativeDistance float64 `json:"worst_relative_distance"`
	Evaluations           int     `json:"evaluations"`
	DurationSeconds       float64 `json:"duration_seconds"`
}

// PlaceFunc runs one placement job. Implementations must be safe for
// concurrent use (the facade's Network methods are). ctx is the
// submitting request's context and carries its trace span, so engine
// progress can be recorded against the originating request. An error is
// treated as a bad request: the placement library validates inputs and
// only fails on infeasible or malformed jobs.
type PlaceFunc func(ctx context.Context, req PlacementRequest) (*PlacementResult, error)

// pool is a bounded worker pool for placement jobs: a fixed number of
// workers drain a fixed-capacity queue, and submission never blocks —
// when the queue is full the caller gets ErrQueueFull immediately, which
// is the backpressure contract the API exposes as HTTP 429.
type pool struct {
	queue   chan *job
	wg      sync.WaitGroup
	mu      sync.RWMutex // guards closed against concurrent submits
	closed  bool
	jobs    func(status string) *metrics.Counter
	latency *metrics.Histogram

	// Per-key accounting: a keyed job occupies one slot of its key's
	// quota from submit until the worker retires it, so queued and
	// running jobs both count. keyCond broadcasts on every release,
	// which is what waitIdle (per-tenant drain) sleeps on.
	keyMu     sync.Mutex
	keyCond   *sync.Cond
	inflight  map[string]int
	maxPerKey int // ≤ 0 means no per-key quota
}

type job struct {
	ctx      context.Context
	req      PlacementRequest
	key      string    // per-tenant quota key; "" for unkeyed jobs
	place    PlaceFunc // runs the job
	enqueued time.Time
	done     chan jobResult // buffered; workers never block on delivery
}

type jobResult struct {
	res *PlacementResult
	err error
}

func newPool(workers, depth int, reg *metrics.Registry) *pool {
	p := &pool{
		queue: make(chan *job, depth),
		jobs: func(status string) *metrics.Counter {
			return reg.Counter("placemond_placement_jobs_total",
				"Placement jobs by final status.", "status", status)
		},
		latency: reg.Histogram("placemond_placement_job_duration_seconds",
			"Wall-clock duration of executed placement jobs.", nil),
		inflight: make(map[string]int),
		// By default one key may use the pool's whole capacity (running
		// plus queued); the quota only bites below that when configured.
		maxPerKey: workers + depth,
	}
	p.keyCond = sync.NewCond(&p.keyMu)
	// Pre-register every status so /metrics shows the full vocabulary
	// from the first scrape.
	for _, st := range []string{"completed", "failed", "rejected", "canceled"} {
		p.jobs(st)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		// The submitter may have given up (request timeout, client gone)
		// while the job sat in the queue; don't burn a worker on it.
		if j.ctx.Err() != nil {
			p.jobs("canceled").Inc()
			j.done <- jobResult{err: j.ctx.Err()}
			p.release(j.key)
			continue
		}
		sp := trace.FromContext(j.ctx)
		sp.AddStage("queue wait", time.Since(j.enqueued), "")
		start := time.Now()
		st := sp.StartStage("place")
		res, err := p.run(j)
		st.EndDetail("ok=%t", err == nil)
		p.latency.Observe(time.Since(start).Seconds())
		if err != nil {
			p.jobs("failed").Inc()
		} else {
			res.DurationSeconds = time.Since(start).Seconds()
			p.jobs("completed").Inc()
		}
		j.done <- jobResult{res: res, err: err}
		p.release(j.key)
	}
}

// run executes one job, converting a panic in the placement function
// into ErrJobPanicked so a poisoned request cannot kill the worker (or
// the process — workers run outside the HTTP recovery middleware).
func (p *pool) run(j *job) (res *PlacementResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrJobPanicked, r)
		}
	}()
	return j.place(j.ctx, j.req)
}

// acquire claims one quota slot for key; it fails with ErrTenantBusy at
// the per-key cap. An empty key is unkeyed and never limited.
func (p *pool) acquire(key string) error {
	if key == "" {
		return nil
	}
	p.keyMu.Lock()
	defer p.keyMu.Unlock()
	if p.maxPerKey > 0 && p.inflight[key] >= p.maxPerKey {
		return fmt.Errorf("%w: %q", ErrTenantBusy, key)
	}
	p.inflight[key]++
	return nil
}

// release returns key's quota slot and wakes any drain waiting on it.
func (p *pool) release(key string) {
	if key == "" {
		return
	}
	p.keyMu.Lock()
	if p.inflight[key]--; p.inflight[key] <= 0 {
		delete(p.inflight, key)
	}
	p.keyCond.Broadcast()
	p.keyMu.Unlock()
}

// waitIdle blocks until key has no queued or running jobs, or ctx ends;
// it reports whether the key actually drained.
func (p *pool) waitIdle(ctx context.Context, key string) bool {
	stop := context.AfterFunc(ctx, func() {
		p.keyMu.Lock()
		p.keyCond.Broadcast()
		p.keyMu.Unlock()
	})
	defer stop()
	p.keyMu.Lock()
	defer p.keyMu.Unlock()
	for p.inflight[key] > 0 {
		if ctx.Err() != nil {
			return false
		}
		p.keyCond.Wait()
	}
	return true
}

// submitKeyed enqueues a job charged against key's per-tenant quota
// (none for an empty key), running place, and waits for its result or
// for ctx to end. It returns ErrQueueFull or ErrTenantBusy without
// blocking when there is no room.
func (p *pool) submitKeyed(ctx context.Context, key string, place PlaceFunc, req PlacementRequest) (*PlacementResult, error) {
	if err := p.acquire(key); err != nil {
		p.jobs("rejected").Inc()
		if len(p.queue) == cap(p.queue) {
			// Both limits are hit: report the pool-wide condition, which
			// keeps single-tenant behavior identical to the pre-registry
			// daemon's.
			return nil, ErrQueueFull
		}
		return nil, err
	}
	j := &job{ctx: ctx, req: req, key: key, place: place, enqueued: time.Now(), done: make(chan jobResult, 1)}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		p.release(key)
		return nil, ErrPoolClosed
	}
	select {
	case p.queue <- j:
		p.mu.RUnlock()
	default:
		p.mu.RUnlock()
		p.release(key)
		p.jobs("rejected").Inc()
		return nil, ErrQueueFull
	}

	select {
	case r := <-j.done:
		return r.res, r.err
	case <-ctx.Done():
		// The worker will notice the dead context (or deliver into the
		// buffered channel and move on); either way nothing leaks — the
		// quota slot is released when the worker retires the job.
		return nil, ctx.Err()
	}
}

// close stops accepting jobs and waits for queued work to drain, so a
// graceful server shutdown finishes in-flight placements.
func (p *pool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
