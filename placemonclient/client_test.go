package placemonclient

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// newTestClient builds a fast deterministic client against url.
func newTestClient(t *testing.T, url string, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL:           url,
		MaxAttempts:       4,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        4 * time.Millisecond,
		PerAttemptTimeout: 2 * time.Second,
		BreakerThreshold:  -1, // off unless a test turns it on
		Seed:              1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatalf("empty BaseURL accepted")
	}
	if _, err := New(Config{BaseURL: "not a url at all\x7f"}); err == nil {
		t.Fatalf("garbage BaseURL accepted")
	}
	if _, err := New(Config{BaseURL: "/just/a/path"}); err == nil {
		t.Fatalf("schemeless BaseURL accepted")
	}
}

// TestRetriesTransientServerErrors: 5xx answers are retried until the
// server recovers, and the call succeeds overall.
func TestRetriesTransientServerErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz = %v, want success after retries", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hits = %d, want 3 (2 failures + 1 success)", hits.Load())
	}
	if got := c.retries.Value(); got != 2 {
		t.Fatalf("retries counter = %v, want 2", got)
	}
}

// TestNoRetryOnPermanent4xx: a 400 is the server's final word.
func TestNoRetryOnPermanent4xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"no reports in batch"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	_, err := c.ReportObservations(context.Background(), ObservationBatch{
		Time: 1, Reports: []Report{{Connection: 0, Up: false}},
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if apiErr.Message != "no reports in batch" {
		t.Fatalf("message = %q", apiErr.Message)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want exactly 1 (no retry on 4xx)", hits.Load())
	}
}

// TestHonorsRetryAfter: a 429's Retry-After floors the backoff.
func TestHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	start := time.Now()
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The client's own jittered backoff caps at 4ms; only an honored
	// Retry-After explains a ≥1s wait.
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("waited %v, want ≥ 1s from Retry-After", waited)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hits = %d", hits.Load())
	}
}

func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Fatalf("seconds form = %v", d)
	}
	if d := parseRetryAfter(time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)); d <= 0 || d > 2*time.Second {
		t.Fatalf("http-date form = %v", d)
	}
	for _, bad := range []string{"", "-5", "soon", "Mon, 99 Jan"} {
		if d := parseRetryAfter(bad); d != 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want 0", bad, d)
		}
	}
}

// TestContextDeadlineStopsRetries: once the caller's context expires the
// loop must stop immediately instead of burning remaining attempts.
func TestContextDeadlineStopsRetries(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.MaxAttempts = 100
		cfg.BaseBackoff = 20 * time.Millisecond
		cfg.MaxBackoff = 20 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := c.Healthz(ctx)
	if err == nil {
		t.Fatalf("succeeded against an all-500 server")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if hits.Load() >= 100 {
		t.Fatalf("burned all %d attempts despite a 100ms deadline", hits.Load())
	}
}

// TestMaxAttemptsOne disables retries entirely.
func TestMaxAttemptsOne(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(cfg *Config) { cfg.MaxAttempts = 1 })
	if err := c.Healthz(context.Background()); err == nil {
		t.Fatalf("want error with retries disabled")
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want 1", hits.Load())
	}
}

// TestBreakerLifecycle drives closed → open → half-open → closed with a
// fake clock.
func TestBreakerLifecycle(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if fail.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.MaxAttempts = 1 // isolate breaker behavior from retry behavior
		cfg.BreakerThreshold = 3
		cfg.BreakerCooldown = time.Minute
	})
	now := time.Unix(1000, 0)
	c.breaker.now = func() time.Time { return now }

	// Three consecutive failures open the breaker.
	for i := 0; i < 3; i++ {
		if err := c.Healthz(context.Background()); err == nil {
			t.Fatalf("call %d succeeded against a failing server", i)
		}
	}
	if st := c.breaker.currentState(); st != breakerOpen {
		t.Fatalf("state = %v, want open", st)
	}

	// While open, calls fail fast without touching the network.
	before := hits.Load()
	if err := c.Healthz(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if hits.Load() != before {
		t.Fatalf("open breaker still hit the server")
	}

	// After the cooldown a probe goes through; the server has recovered,
	// so the probe closes the breaker.
	now = now.Add(2 * time.Minute)
	fail.Store(false)
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := c.breaker.currentState(); st != breakerClosed {
		t.Fatalf("state = %v, want closed after successful probe", st)
	}
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("closed breaker rejected a call: %v", err)
	}
}

// TestBreakerReopensOnFailedProbe: a failing half-open probe goes
// straight back to open.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"still down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.BreakerThreshold = 1
		cfg.BreakerCooldown = time.Minute
	})
	now := time.Unix(1000, 0)
	c.breaker.now = func() time.Time { return now }

	if err := c.Healthz(context.Background()); err == nil {
		t.Fatal("want failure")
	}
	now = now.Add(2 * time.Minute)
	if err := c.Healthz(context.Background()); err == nil {
		t.Fatal("probe should have failed")
	}
	if st := c.breaker.currentState(); st != breakerOpen {
		t.Fatalf("state = %v, want open after failed probe", st)
	}
	if err := c.Healthz(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want fail-fast ErrCircuitOpen", err)
	}
}

// TestBatchIDStableAcrossRetries: every delivery of one logical batch
// must carry the same idempotency key, and a fresh key is minted per
// batch. Every delivery is a JSON document.
func TestBatchIDStableAcrossRetries(t *testing.T) {
	var ids []string
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("delivery Content-Type = %q, want application/json", ct)
		}
		var req struct {
			BatchID string `json:"batch_id"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		ids = append(ids, req.BatchID)
		if hits.Add(1) == 1 {
			http.Error(w, `{"error":"flap"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"events":[]}`))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	res, err := c.ReportObservations(context.Background(), ObservationBatch{
		Time: 1, Reports: []Report{{Connection: 0, Up: false}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] == "" || ids[0] != ids[1] {
		t.Fatalf("batch IDs across retries = %v, want one stable non-empty ID", ids)
	}
	if res.BatchID != ids[0] {
		t.Fatalf("result BatchID = %q, deliveries carried %q", res.BatchID, ids[0])
	}

	res2, err := c.ReportObservations(context.Background(), ObservationBatch{
		Time: 2, Reports: []Report{{Connection: 0, Up: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.BatchID == res.BatchID {
		t.Fatalf("two logical batches shared idempotency key %q", res.BatchID)
	}
}

// TestReplayedHeaderSurfaces: the server's dedup replay marker reaches
// the caller.
func TestReplayedHeaderSurfaces(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Placemond-Replayed", "true")
		w.Write([]byte(`{"events":[{"time":1,"kind":"outage-started"}]}`))
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	res, err := c.ReportObservations(context.Background(), ObservationBatch{
		Time: 1, Reports: []Report{{Connection: 0, Up: false}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed {
		t.Fatalf("Replayed = false, want true")
	}
	if len(res.Events) != 1 || res.Events[0].Kind != "outage-started" {
		t.Fatalf("events = %v", res.Events)
	}
}

// TestBackoffCapsAndJitter: waits stay within [0, min(base<<n, max)] and
// Retry-After floors them.
func TestBackoffCapsAndJitter(t *testing.T) {
	c := newTestClient(t, "http://example.invalid", func(cfg *Config) {
		cfg.BaseBackoff = 8 * time.Millisecond
		cfg.MaxBackoff = 20 * time.Millisecond
		cfg.MaxRetryAfter = 50 * time.Millisecond
	})
	for attempt := 1; attempt < 20; attempt++ {
		ceil := 8 * time.Millisecond << (attempt - 1)
		if ceil > 20*time.Millisecond || ceil <= 0 {
			ceil = 20 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			if w := c.backoff(attempt, 0); w < 0 || w > ceil {
				t.Fatalf("attempt %d: wait %v outside [0, %v]", attempt, w, ceil)
			}
		}
	}
	if w := c.backoff(1, 40*time.Millisecond); w != 40*time.Millisecond {
		t.Fatalf("Retry-After floor: wait = %v, want 40ms", w)
	}
	if w := c.backoff(1, time.Hour); w != 50*time.Millisecond {
		t.Fatalf("Retry-After cap: wait = %v, want MaxRetryAfter 50ms", w)
	}
}

// TestReadOnlyNotRetried: a 503 carrying Placemond-Read-Only (the
// daemon's WAL failed; the condition is sticky until an operator
// intervenes) is surfaced as ErrReadOnly after a single attempt instead
// of being burned through the retry budget like a transient 503.
func TestReadOnlyNotRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Placemond-Read-Only", "true")
		http.Error(w, `{"error":"daemon is read-only: WAL unavailable"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	_, err := c.ReportObservations(context.Background(), ObservationBatch{
		Reports: []Report{{Connection: 0, Up: true}},
	})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("APIError not preserved in chain: %v", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("read-only 503 retried: %d attempts", n)
	}
}
