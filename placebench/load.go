package main

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/placemonclient"
)

// opKind classifies a load-phase operation.
type opKind int

const (
	opIngest opKind = iota
	opDiagnosis
	opPlace
	opReplace
)

// slo is slo.json's latency limit: a reply later than this counts as a
// failed operation.
const slo = 2500 * time.Millisecond

// op is one load-phase operation and everything measured about it.
type op struct {
	kind   opKind
	due    time.Duration // offset from the load start
	tenant int
	batch  int // opIngest: index into the tenant's batches

	late     time.Duration // how late the pacer released it
	latency  time.Duration // due time to reply
	done     time.Time     // when the reply arrived
	err      error
	ingest   *placemonclient.IngestResult
	diag     *placemonclient.DiagnosisResponse
	place    *placemonclient.PlacementResult
	net      int // replan operator ops: index of the network it ran on
	span     callSpan
	ok       bool // set by the workload's checks
	checkErr error
}

// callSpan is the benchmark's own span around one placemonclient call:
// the call's trace ID, its duration and every HTTP delivery inside it.
type callSpan struct {
	traceID string
	call    time.Duration
	trips   []time.Duration
}

// tripRecorder times each HTTP delivery of one sender's calls. A sender
// makes one call at a time, so it needs no lock.
type tripRecorder struct {
	next  http.RoundTripper
	id    string
	trips []time.Duration
}

// traceHeader carries the trace ID placemonclient stamps on every
// delivery of a call.
const traceHeader = "Placemond-Trace-Id"

func (r *tripRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := r.next.RoundTrip(req)
	r.trips = append(r.trips, time.Since(t0))
	r.id = req.Header.Get(traceHeader)
	return resp, err
}

// sender is one sending thread's client: its own keep-alive connection,
// and, on traced passes, its own span recorder.
type sender struct {
	client *placemonclient.Client
	rec    *tripRecorder
}

func newSender(baseURL string, traced bool) (*sender, error) {
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	s := &sender{}
	if traced {
		s.rec = &tripRecorder{next: rt}
		rt = s.rec
	}
	c, err := placemonclient.New(placemonclient.Config{BaseURL: baseURL, HTTPClient: &http.Client{Transport: rt}})
	if err != nil {
		return nil, err
	}
	s.client = c
	return s, nil
}

// do runs one call, recording its span when tracing.
func (s *sender) do(o *op, call func(context.Context, *placemonclient.Client, *op) error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if s.rec != nil {
		s.rec.id, s.rec.trips = "", nil
	}
	t0 := time.Now()
	o.err = call(ctx, s.client, o)
	o.done = time.Now()
	if s.rec != nil {
		o.span = callSpan{traceID: s.rec.id, call: o.done.Sub(t0), trips: s.rec.trips}
	}
}

// sleepUntil blocks the calling OS thread until t and returns how late it
// woke. It sleeps with nanosleep rather than a Go timer: Go timers woke
// about 0.6 ms late at the median on the 2-vCPU host the benchmark was
// tuned on, nanosleep on a locked thread about 0.07 ms.
func sleepUntil(t time.Time) time.Duration {
	for {
		d := time.Until(t)
		if d <= 0 {
			return -d
		}
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep just loops with the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// runOpen plays an open-loop schedule from start: sender k, on its own
// locked OS thread, owns ops k, k+n, k+2n, ... Every op is timed from its
// due time, so an op queued behind a slow reply counts the wait.
func runOpen(start time.Time, senders []*sender, ops []*op, call func(context.Context, *placemonclient.Client, *op) error) {
	var wg sync.WaitGroup
	for k, s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i := k; i < len(ops); i += len(senders) {
				o := ops[i]
				due := start.Add(o.due)
				o.late = sleepUntil(due)
				s.do(o, call)
				o.latency = o.done.Sub(due)
			}
		}()
	}
	wg.Wait()
}

// callOp is the placemonclient call behind each op kind for workloads
// whose tenants are addressed by index.
func callOp(tenants []*tenant, batches [][]batch) func(context.Context, *placemonclient.Client, *op) error {
	return func(ctx context.Context, c *placemonclient.Client, o *op) error {
		sc := c.Scenario(tenants[o.tenant].id)
		var err error
		switch o.kind {
		case opIngest:
			o.ingest, err = sc.ReportObservations(ctx, placemonclient.ObservationBatch{
				Time:    float64(o.batch),
				Reports: batches[o.tenant][o.batch].reports,
			})
		case opDiagnosis:
			o.diag, err = sc.Diagnosis(ctx)
		}
		return err
	}
}
