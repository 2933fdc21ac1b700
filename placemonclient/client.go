// Package placemonclient is the typed Go client for the placemond
// monitoring API (internal/server): observation ingest, the rolling
// diagnosis, health, and placement jobs.
//
// The client is built for the network the paper assumes away: every call
// runs with a per-attempt timeout, retries transport errors and 429/5xx
// answers with capped exponential backoff and full jitter, honors
// Retry-After, propagates the caller's context deadline, and fails fast
// through a closed/open/half-open circuit breaker once the server looks
// down. Observation batches carry client-generated idempotency keys
// (batch IDs), so at-least-once delivery — retries, duplicates — yields
// exactly-once ingestion against a dedup-enabled placemond. Everything is
// instrumented via internal/metrics.
//
// Every call is traced end to end: the client stamps a Placemond-Trace-Id
// header (minted with the same crypto-random construction as its
// idempotency keys, or adopted from a server-side span already in ctx)
// that is stable across the call's retries, so all deliveries of one
// logical request share one trace ID in the server's logs and
// /debug/traces ring.
package placemonclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrCircuitOpen means the breaker refused the call without touching the
// network; retry after the cooldown or inspect the server out of band.
var ErrCircuitOpen = errors.New("placemonclient: circuit breaker open")

// OwnerHeader names the owning node on a cluster node's 307 answers.
const OwnerHeader = "Placemond-Owner"

// maxRedirectHops bounds how many 307s one delivery follows. In a
// healthy cluster a request crosses at most two (stale hint → ring
// owner → migrated-to node); more means the nodes' membership views
// disagree and following further would ping-pong forever.
const maxRedirectHops = 4

// ErrReadOnly means the daemon refused the mutation because a WAL write
// failure froze it read-only (503 with Placemond-Read-Only). The mode is
// sticky until an operator restarts the daemon, so the client does not
// retry: the failure is permanent for this process lifetime.
var ErrReadOnly = errors.New("placemonclient: daemon is read-only (WAL unavailable)")

// APIError is a non-2xx answer from the server, with the decoded error
// envelope when one was present.
type APIError struct {
	Status  int    // HTTP status code
	Message string // server-provided error text (may be empty)
}

// Error renders the status and message.
func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("placemond answered %d", e.Status)
	}
	return fmt.Sprintf("placemond answered %d: %s", e.Status, e.Message)
}

// Config parameterizes New. Only BaseURL is required.
type Config struct {
	// BaseURL locates the placemond instance, e.g. "http://10.0.0.1:8080".
	BaseURL string
	// HTTPClient performs the requests (default: a fresh http.Client).
	// Wrap its Transport (e.g. with internal/faultinject) to simulate a
	// hostile network.
	HTTPClient *http.Client
	// MaxAttempts bounds deliveries per call (default 4; 1 disables
	// retries entirely).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff cap (default 50ms); each
	// further attempt doubles it, and the actual wait is uniform in
	// [0, cap) — "full jitter".
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// MaxRetryAfter caps how long a server-sent Retry-After is honored
	// (default 30s) so a confused server cannot park the client forever.
	MaxRetryAfter time.Duration
	// PerAttemptTimeout bounds each individual delivery (default 5s;
	// ≤ -1 disables, leaving only the caller's context deadline).
	PerAttemptTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (default 5; ≤ -1 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before admitting
	// a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// Registry receives the client's metrics (default: a fresh registry).
	Registry *metrics.Registry
	// Seed feeds the jitter PRNG so tests can reproduce backoff
	// schedules; 0 means time-seeded.
	Seed int64
}

// Client is a placemond API client; safe for concurrent use. Create with
// New.
type Client struct {
	base    *url.URL
	hc      *http.Client
	cfg     Config
	breaker *breaker

	mu  sync.Mutex
	rng *mathrand.Rand

	// owners caches cluster owner hints learned from 307 redirects:
	// scenario key → *url.URL base of the node that actually owns it.
	// Later calls for the same scenario start at the cached owner and
	// skip the extra hop; a 404 from the hinted node drops the hint.
	owners sync.Map

	registry  *metrics.Registry
	requests  func(outcome string) *metrics.Counter
	retries   *metrics.Counter
	redirects *metrics.Counter
	latency   *metrics.Histogram
}

// New validates cfg, fills defaults, and builds the client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("placemonclient: Config.BaseURL is required")
	}
	base, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("placemonclient: bad BaseURL: %w", err)
	}
	if base.Scheme == "" || base.Host == "" {
		return nil, fmt.Errorf("placemonclient: BaseURL %q needs a scheme and host", cfg.BaseURL)
	}
	// The client must see 307s itself to learn owner hints and cap hops;
	// net/http would otherwise transparently re-send (request bodies are
	// replayable bytes.Readers). A caller-installed CheckRedirect is
	// respected; a nil one is overridden on a copy, not on the caller's
	// client.
	noFollow := func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{CheckRedirect: noFollow}
	} else if cfg.HTTPClient.CheckRedirect == nil {
		hc := *cfg.HTTPClient
		hc.CheckRedirect = noFollow
		cfg.HTTPClient = &hc
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 30 * time.Second
	}
	switch {
	case cfg.PerAttemptTimeout == 0:
		cfg.PerAttemptTimeout = 5 * time.Second
	case cfg.PerAttemptTimeout < 0:
		cfg.PerAttemptTimeout = 0 // disabled
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}

	c := &Client{
		base:     base,
		hc:       cfg.HTTPClient,
		cfg:      cfg,
		rng:      mathrand.New(mathrand.NewSource(seed)),
		registry: reg,
		requests: func(outcome string) *metrics.Counter {
			return reg.Counter("placemonclient_requests_total",
				"API calls by final outcome.", "outcome", outcome)
		},
		retries: reg.Counter("placemonclient_retries_total",
			"Retried deliveries (attempts beyond the first)."),
		redirects: reg.Counter("placemonclient_redirects_total",
			"Cluster 307 redirects followed (routing, not failures)."),
		latency: reg.Histogram("placemonclient_request_duration_seconds",
			"Wall-clock duration of API calls including retries.", nil),
	}
	for _, o := range []string{"success", "error", "circuit_open"} {
		c.requests(o)
	}
	switch {
	case cfg.BreakerThreshold < 0:
		// Disabled: nil breaker short-circuits allow/success/failure.
	case cfg.BreakerThreshold == 0:
		c.breaker = newBreaker(5, cfg.BreakerCooldown, reg)
	default:
		c.breaker = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, reg)
	}
	return c, nil
}

// Registry returns the registry the client's metrics live in.
func (c *Client) Registry() *metrics.Registry { return c.registry }

// --- wire types ---

// Report is one connection state transition.
type Report struct {
	Connection int  `json:"connection"`
	Up         bool `json:"up"`
}

// ObservationBatch is one POST /v1/observations payload. A non-empty
// BatchID is the idempotency key; ReportObservations generates one when
// it is empty, so retries of the same batch always reuse the same key.
type ObservationBatch struct {
	BatchID string   `json:"batch_id,omitempty"`
	Time    float64  `json:"time"`
	Reports []Report `json:"reports"`
}

// Event is one daemon notification triggered by an ingested batch.
type Event struct {
	Time      float64    `json:"time"`
	Kind      string     `json:"kind"`
	Diagnosis *Diagnosis `json:"diagnosis,omitempty"`
}

// Diagnosis is the wire form of a failure localization.
type Diagnosis struct {
	Candidates       [][]int `json:"candidates"`
	DefinitelyFailed []int   `json:"definitely_failed"`
	PossiblyFailed   []int   `json:"possibly_failed"`
	Healthy          []int   `json:"healthy"`
	Unobserved       []int   `json:"unobserved"`
}

// ConnectionStatus is one row of the diagnosis connection table.
type ConnectionStatus struct {
	Service int    `json:"service"`
	Client  int    `json:"client"`
	Host    int    `json:"host"`
	State   string `json:"state"`
}

// DiagnosisResponse is the body of GET /v1/diagnosis. Stale marks a
// served-from-cache diagnosis: the reports are Inconsistent (no failure
// set within the budget explains them), so the server fell back to the
// last good diagnosis, served StaleAgeSeconds ago.
type DiagnosisResponse struct {
	InOutage        bool               `json:"in_outage"`
	Inconsistent    bool               `json:"inconsistent,omitempty"`
	Stale           bool               `json:"stale,omitempty"`
	StaleAgeSeconds float64            `json:"stale_age_seconds,omitempty"`
	Connections     []ConnectionStatus `json:"connections"`
	Diagnosis       *Diagnosis         `json:"diagnosis,omitempty"`
}

// ServiceSpec is one service of a placement job.
type ServiceSpec struct {
	Name    string `json:"name,omitempty"`
	Clients []int  `json:"clients"`
}

// PlacementRequest is the body of POST /v1/placements.
type PlacementRequest struct {
	Services  []ServiceSpec `json:"services"`
	Alpha     float64       `json:"alpha"`
	Objective string        `json:"objective,omitempty"`
	Algorithm string        `json:"algorithm,omitempty"`
	K         int           `json:"k,omitempty"`
	Seed      int64         `json:"seed,omitempty"`
}

// PlacementResult is a successful placement answer.
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

// IngestResult is ReportObservations' answer: the events the batch
// triggered, the idempotency key it was sent under, whether the server
// replayed a cached response for a batch it had already applied, and the
// trace ID the exchange ran under (as echoed by the server).
type IngestResult struct {
	BatchID  string
	Events   []Event
	Replayed bool
	TraceID  string
}

// --- API methods ---

// ReportObservations ingests one batch of connection state transitions.
// An empty batch.BatchID is filled with a fresh idempotency key; every
// retry of the call reuses that key, so the server applies the batch at
// most once no matter how many deliveries succeed.
func (c *Client) ReportObservations(ctx context.Context, batch ObservationBatch) (*IngestResult, error) {
	if len(batch.Reports) == 0 {
		return nil, fmt.Errorf("placemonclient: empty observation batch")
	}
	if batch.BatchID == "" {
		batch.BatchID = newBatchID()
	}
	var out struct {
		Events []Event `json:"events"`
	}
	hdr, err := c.do(ctx, http.MethodPost, "/v1/observations", batch, &out)
	if err != nil {
		return nil, err
	}
	return &IngestResult{
		BatchID:  batch.BatchID,
		Events:   out.Events,
		Replayed: hdr.Get("Placemond-Replayed") == "true",
		TraceID:  hdr.Get(trace.Header),
	}, nil
}

// Diagnosis fetches the rolling diagnosis.
func (c *Client) Diagnosis(ctx context.Context) (*DiagnosisResponse, error) {
	var out DiagnosisResponse
	if _, err := c.do(ctx, http.MethodGet, "/v1/diagnosis", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Place runs one placement job on the server's worker pool. Placement is
// a pure computation, so retrying a lost answer is safe.
func (c *Client) Place(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
	var out PlacementResult
	if _, err := c.do(ctx, http.MethodPost, "/v1/placements", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz probes liveness.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}

// --- core delivery loop ---

// do runs the retry loop for one API call: breaker gate, delivery with a
// per-attempt timeout, classification, backoff with full jitter and
// Retry-After honoring. It returns the successful response's headers.
//
// One trace ID covers the whole call — adopted from a span already in ctx
// or minted here — and is stamped on every delivery, so the retries of a
// single logical request are correlated in the server's logs.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (http.Header, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return nil, fmt.Errorf("placemonclient: encoding %s body: %w", path, err)
		}
	}
	traceID := trace.IDFromContext(ctx)
	if traceID == "" {
		traceID = trace.NewID()
	}
	start := time.Now()
	defer func() { c.latency.Observe(time.Since(start).Seconds()) }()

	// Cluster routing: start at the cached owner when a prior 307 taught
	// us who owns this scenario, else at the configured base.
	key := scenarioKey(path)
	base := c.ownerBase(key)

	var lastErr error
	retryAfter := time.Duration(0)
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
				c.requests("error").Inc()
				return nil, fmt.Errorf("placemonclient: %s %s: %w (last error: %v)", method, path, err, lastErr)
			}
		}
		if c.breaker != nil && !c.breaker.allow() {
			c.requests("circuit_open").Inc()
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last error: %v)", ErrCircuitOpen, lastErr)
			}
			return nil, ErrCircuitOpen
		}

		// One delivery = one attempt plus any 307s it is routed through.
		// Redirects are routing, not failures: they consume no retry
		// budget, trigger no backoff, and never touch the breaker's
		// failure count — but the hop cap stops a ping-pong between nodes
		// with stale membership views.
		var (
			hdr       http.Header
			retryable bool
			ra        time.Duration
			err       error
		)
		for hops := 0; ; hops++ {
			var redirect *url.URL
			hdr, redirect, retryable, ra, err = c.attempt(ctx, base, method, path, traceID, body, out)
			if redirect == nil {
				break
			}
			if hops+1 > maxRedirectHops {
				c.requests("error").Inc()
				return nil, fmt.Errorf("placemonclient: %s %s: gave up after %d redirect hops (stale cluster membership?)",
					method, path, maxRedirectHops)
			}
			c.redirects.Inc()
			base = &url.URL{Scheme: redirect.Scheme, Host: redirect.Host}
			if key != "" {
				c.owners.Store(key, base)
			}
		}
		if err == nil {
			c.requests("success").Inc()
			return hdr, nil
		}
		lastErr, retryAfter = err, ra
		if !retryable {
			c.dropStaleOwner(key, err)
			c.requests("error").Inc()
			return nil, fmt.Errorf("placemonclient: %s %s: %w", method, path, lastErr)
		}
		if ctx.Err() != nil {
			c.requests("error").Inc()
			return nil, fmt.Errorf("placemonclient: %s %s: %w (last error: %v)", method, path, ctx.Err(), lastErr)
		}
	}
	c.requests("error").Inc()
	return nil, fmt.Errorf("placemonclient: %s %s failed after %d attempts: %w",
		method, path, c.cfg.MaxAttempts, lastErr)
}

// scenarioKey maps a request path to the scenario whose owner hint it
// should use: the {id} of a scenario-scoped route, "default" for the
// legacy tenant routes, "" (no hint) for node-local endpoints.
func scenarioKey(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/scenarios/"); ok {
		id, _, _ := strings.Cut(rest, "/")
		id, _, _ = strings.Cut(id, "?")
		return id
	}
	if strings.HasPrefix(path, "/v1/") {
		return "default"
	}
	return ""
}

// ownerBase returns the cached owner for key, or the configured base.
func (c *Client) ownerBase(key string) *url.URL {
	if key != "" {
		if v, ok := c.owners.Load(key); ok {
			return v.(*url.URL)
		}
	}
	return c.base
}

// dropStaleOwner forgets a cached owner hint when the hinted node says
// the scenario does not exist — deleted, or moved while the membership
// changed — so the next call starts over at the configured base.
func (c *Client) dropStaleOwner(key string, err error) {
	if key == "" {
		return
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		c.owners.Delete(key)
	}
}

// attempt performs one delivery against base and classifies the
// outcome: retryable covers transport errors, per-attempt timeouts,
// 429, and 5xx; other 4xx answers are permanent (and count as breaker
// successes — the server is alive, it just rejected the request). A
// 307 returns the redirect target (also a breaker success: a node that
// knows who owns the scenario is a healthy node).
func (c *Client) attempt(ctx context.Context, base *url.URL, method, path, traceID string, body []byte, out any) (http.Header, *url.URL, bool, time.Duration, error) {
	actx := ctx
	if c.cfg.PerAttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.PerAttemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	path, query, _ := strings.Cut(path, "?")
	u := base.JoinPath(path)
	u.RawQuery = query
	req, err := http.NewRequestWithContext(actx, method, u.String(), rd)
	if err != nil {
		return nil, nil, false, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(trace.Header, traceID)

	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's deadline expired, not just this attempt's:
			// retrying would only burn the corpse.
			return nil, nil, false, 0, ctx.Err()
		}
		c.breakerFailure()
		return nil, nil, true, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		c.breakerSuccess()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				// A 2xx whose body died mid-read (connection reset after
				// the status line): the server answered, the network ate
				// it. Retry — idempotency keys make that safe.
				return nil, nil, true, 0, fmt.Errorf("decoding %s answer: %w", path, err)
			}
		}
		return resp.Header, nil, false, 0, nil
	case resp.StatusCode == http.StatusTemporaryRedirect:
		// Cluster ownership routing: this node does not host the
		// scenario and Location names the node that does.
		c.breakerSuccess()
		loc := resp.Header.Get("Location")
		target, perr := u.Parse(loc)
		if perr != nil || target.Host == "" {
			return nil, nil, false, 0, fmt.Errorf("redirect with unusable Location %q: %w", loc, apiError(resp))
		}
		return nil, target, false, 0, nil
	case resp.StatusCode == http.StatusServiceUnavailable &&
		resp.Header.Get("Placemond-Read-Only") == "true":
		// Deliberate, sticky degradation — not an outage: the daemon is
		// alive (breaker success) but refuses mutations until restarted,
		// so retrying this call is wasted work.
		c.breakerSuccess()
		return nil, nil, false, 0, fmt.Errorf("%w: %w", ErrReadOnly, apiError(resp))
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		c.breakerFailure()
		ra := parseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, nil, true, ra, apiError(resp)
	default:
		c.breakerSuccess()
		return nil, nil, false, 0, apiError(resp)
	}
}

func (c *Client) breakerSuccess() {
	if c.breaker != nil {
		c.breaker.success()
	}
}

func (c *Client) breakerFailure() {
	if c.breaker != nil {
		c.breaker.failure()
	}
}

// backoff computes the wait before the attempt-th delivery (attempt ≥ 1):
// full jitter over an exponentially growing cap, floored by any
// Retry-After the server sent (itself capped by MaxRetryAfter).
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	ceil := c.cfg.BaseBackoff << (attempt - 1)
	if ceil > c.cfg.MaxBackoff || ceil <= 0 {
		ceil = c.cfg.MaxBackoff
	}
	c.mu.Lock()
	wait := time.Duration(c.rng.Int63n(int64(ceil) + 1))
	c.mu.Unlock()
	if retryAfter > c.cfg.MaxRetryAfter {
		retryAfter = c.cfg.MaxRetryAfter
	}
	if retryAfter > wait {
		wait = retryAfter
	}
	return wait
}

// sleep waits d or until ctx ends, whichever first.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter handles both RFC 9110 forms: delay-seconds and
// HTTP-date. Unparseable values are ignored.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// apiError decodes the server's {"error": ...} envelope, falling back to
// the raw body.
func apiError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var envelope struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(raw))
	if err := json.Unmarshal(raw, &envelope); err == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

// newBatchID mints a 96-bit random idempotency key — the same
// construction as trace IDs, shared via internal/trace.
func newBatchID() string {
	return trace.NewID()
}
