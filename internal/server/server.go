// Package server is placemond's HTTP serving layer: it wraps the online
// monitoring daemon (internal/monitord) and the placement engine behind a
// small JSON API so that observations can arrive over the network — the
// paper's premise that end-to-end measurements are "a byproduct of
// fulfilling the service" realized as a long-running ingestion service.
//
// The server is multi-tenant: it hosts many independent monitoring
// scenarios (each its own network, placement, monitor state, dedup
// window, and trace ring) behind a sharded registry, so tenants never
// serialize against each other on the hot ingest path. Every scenario is
// built from a stored document by Config.BuildScenario, and so is the one
// named "default": Config.DefaultSpec seeds it at boot, and from then on
// it is logged, migrated, revised and deleted like any other. The legacy
// single-scenario routes are pure aliases of their /v1/scenarios/default/
// twins and are byte-compatible with the single-network daemon they
// replace.
//
// Legacy (default-scenario) endpoints:
//
//	POST /v1/observations  ingest connection state transitions → events
//	GET  /v1/diagnosis     current rolling diagnosis + connection states
//	POST /v1/placements    run a placement job on the bounded worker pool
//	GET  /healthz          liveness probe
//	GET  /metrics          Prometheus text exposition
//	GET  /debug/traces     recent request traces with per-stage timings
//	GET  /debug/pprof/*    optional profiling (Config.EnablePprof)
//
// Scenario-scoped endpoints (the same wire formats, per tenant):
//
//	POST   /v1/scenarios/{id}/observations
//	GET    /v1/scenarios/{id}/diagnosis
//	POST   /v1/scenarios/{id}/placements
//	GET    /v1/scenarios/{id}/traces
//
// Scenario administration:
//
//	GET    /v1/scenarios        list scenarios
//	PUT    /v1/scenarios/{id}   create from a scenario document
//	GET    /v1/scenarios/{id}   one scenario's status
//	DELETE /v1/scenarios/{id}   drain and remove
//
// Scenarios live in memory unless a write-ahead log is configured
// (Config.WAL); then every create is logged before it is acknowledged, so
// a restarted daemon recovers the fleet it was serving.
//
// Every request carries a trace ID (minted here or adopted from the
// client's Placemond-Trace-Id header), echoed in the response header,
// attached to every structured log line, and recorded — together with
// named per-stage timings — in a bounded in-memory ring served at
// /debug/traces.
//
// The package depends only on the standard library and internal packages
// below the facade. The scenario document format and the placement engine
// are injected (BuildFunc, ReviseFunc, PlaceFunc), so the root facade can
// close over its Network without an import cycle.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitord"
	"repro/internal/registry"
	"repro/internal/tomography"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Connection describes one monitored client↔host pair, index-aligned with
// a TenantConfig's Paths.
type Connection struct {
	Service int `json:"service"`
	Client  int `json:"client"`
	Host    int `json:"host"`
}

// Config parameterizes New. BuildScenario is required; everything else
// has serviceable defaults.
type Config struct {
	// K is the failure budget for the rolling diagnosis (default 1).
	K int
	// Workers is the placement pool size (default: half the CPUs, ≥ 1).
	Workers int
	// QueueDepth bounds the placement backlog (default 8); a full queue
	// rejects with 429.
	QueueDepth int
	// RequestTimeout bounds each request's context (default 15s; ≤ -1
	// disables, 0 means default).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// DedupWindow is how many recent batch IDs the idempotent-ingest
	// window remembers; retried or duplicated POST /v1/observations
	// deliveries carrying a remembered batch_id replay the original
	// response instead of re-applying (default 1024; ≤ -1 disables).
	DedupWindow int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logger receives structured request and error records
	// (default: discard).
	Logger *slog.Logger
	// SlowRequest is the latency at or above which a request additionally
	// logs a warning (default 1s; ≤ -1 disables slow-request warnings).
	SlowRequest time.Duration
	// TraceBuffer is how many finished request traces the /debug/traces
	// ring retains, newest first (default 64; ≤ -1 disables the ring and
	// the endpoint). Each tenant gets its own ring of the same size for
	// GET /v1/scenarios/{id}/traces.
	TraceBuffer int
	// Registry receives the server's metrics (default: a fresh registry).
	Registry *metrics.Registry

	// BuildScenario turns a scenario document into its monitoring state;
	// required. Every scenario, DefaultScenario included, is built by it.
	BuildScenario BuildFunc
	// DefaultSpec, when non-nil, is the boot document of DefaultScenario,
	// the scenario the legacy single-scenario routes address. New creates
	// the scenario from it like any other — logged when a write-ahead log
	// is configured — unless the log already holds it or another node owns
	// it; see New for the boot rule.
	DefaultSpec []byte
	// MaxScenarios caps concurrently hosted scenarios (default 64).
	MaxScenarios int
	// TenantSeriesCap caps tenant-labeled metric cardinality: the first
	// cap tenants get their own series, later ones share tenant="other"
	// (default 32; ≤ -1 removes the cap).
	TenantSeriesCap int
	// MaxJobsPerScenario caps one scenario's queued-plus-running
	// placement jobs, rejecting the excess with 429 so a noisy tenant
	// cannot monopolize the shared pool (default: Workers + QueueDepth,
	// i.e. the whole pool; < 0 removes the quota).
	MaxJobsPerScenario int
	// WAL enables the crash-safe write-ahead log, the only persistence
	// layer; see WALConfig. Without it, scenarios last for the life of
	// the process.
	WAL *WALConfig
	// Cluster enables multi-node ownership routing, peer forwarding, and
	// live scenario migration; see ClusterConfig. Nil keeps the server a
	// plain single-node daemon with zero routing overhead.
	Cluster *ClusterConfig
}

// Server is the placemond HTTP service. Create with New; the embedded
// worker pool starts immediately, so either Serve or Close must be called
// eventually.
type Server struct {
	tenants        *registry.Registry[*tenant]
	build          BuildFunc
	labeler        *metrics.Labeler
	pool           *pool
	registry       *metrics.Registry
	logger         *slog.Logger
	logRequests    bool // logger enabled at Info: skip per-request log arg boxing otherwise
	slowRequest    time.Duration
	traces         *trace.Ring // global ring; nil when disabled
	requestTimeout time.Duration
	drainTimeout   time.Duration
	handler        http.Handler
	closeOnce      sync.Once
	closeErr       error

	// cluster is non-nil in multi-node mode: ownership routing, peer
	// forwarding, relocation table, migration endpoints.
	cluster *clusterNode

	// Write-ahead log state (wlog nil when disabled). walMu orders
	// apply+append pairs (read side) against compaction's state capture
	// (write side); readOnly freezes mutations after a WAL write failure.
	wlog            *wal.Log
	walMu           sync.RWMutex
	readOnly        atomic.Bool
	walCompactEvery int
	walRecordCount  atomic.Int64
	walCompacting   atomic.Bool
	readOnlyGauge   *metrics.Gauge
	walFsync        *metrics.Histogram
	walSegments     *metrics.Gauge
	walRecoveryDur  *metrics.Gauge
	walReplayed     *metrics.Counter

	// Per-tenant knobs applied to every scenario as it is built.
	defaultK  int
	dedupSize int // ≤ 0 disables the idempotent-ingest window
	traceBuf  int // ≤ 0 disables per-tenant trace rings

	obsIngested    *metrics.Counter
	obsReplayed    *metrics.Counter
	staleServed    *metrics.Counter
	dedupGauge     *metrics.Gauge
	outageGauge    *metrics.Gauge
	roundHist      *metrics.Histogram
	scenarioGauge  *metrics.Gauge
	connsGauge     *metrics.Gauge
	snapshotErrors *metrics.Counter
	eventTotal     map[monitord.EventKind]*metrics.Counter
}

// New builds the service: a bounded placement pool shared by all
// tenants, the scenario registry, and the routed, instrumented HTTP
// handler. Before the handler exists, boot runs three steps:
//
//  1. With a write-ahead log, recovery rebuilds every scenario the log
//     holds.
//  2. With a boot document (Config.DefaultSpec), DefaultScenario is
//     seeded. If the log already holds it, its document must equal the
//     boot one, or New refuses to boot. If another node owns it (by the
//     ring, or by a recorded migration away from this node), nothing is
//     created and the legacy routes forward there. Otherwise it is
//     created like any other scenario, and logged.
//  3. In cluster mode, no hosted scenario may belong to another node (see
//     validateClusterOwnership).
func New(cfg Config) (*Server, error) {
	if cfg.BuildScenario == nil {
		return nil, fmt.Errorf("server: Config.BuildScenario is required")
	}
	k := cfg.K
	if k == 0 {
		k = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / 2
		if workers < 1 {
			workers = 1
		}
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 8
	}
	reqTimeout := cfg.RequestTimeout
	if reqTimeout == 0 {
		reqTimeout = 15 * time.Second
	}
	drain := cfg.DrainTimeout
	if drain <= 0 {
		drain = 10 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	slowReq := cfg.SlowRequest
	if slowReq == 0 {
		slowReq = time.Second
	}
	traceBuf := cfg.TraceBuffer
	if traceBuf == 0 {
		traceBuf = 64
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	dedupSize := cfg.DedupWindow
	if dedupSize == 0 {
		dedupSize = 1024
	}
	maxScenarios := cfg.MaxScenarios
	if maxScenarios == 0 {
		maxScenarios = 64
	}
	seriesCap := cfg.TenantSeriesCap
	if seriesCap == 0 {
		seriesCap = 32
	}

	s := &Server{
		tenants:        registry.New[*tenant](maxScenarios),
		build:          cfg.BuildScenario,
		labeler:        metrics.NewLabeler(seriesCap),
		pool:           newPool(workers, depth, reg),
		registry:       reg,
		logger:         logger,
		logRequests:    logger.Enabled(context.Background(), slog.LevelInfo),
		slowRequest:    slowReq,
		requestTimeout: reqTimeout,
		drainTimeout:   drain,
		defaultK:       k,
		dedupSize:      dedupSize,
		traceBuf:       traceBuf,
		obsIngested: reg.Counter("placemond_observations_ingested_total",
			"Connection state reports accepted by POST /v1/observations."),
		obsReplayed: reg.Counter("placemond_ingest_replayed_total",
			"Duplicate observation batches answered from the dedup window."),
		staleServed: reg.Counter("placemond_diagnosis_stale_total",
			"Diagnosis requests served from the last good diagnosis."),
		outageGauge: reg.Gauge("placemond_outage",
			"1 while at least one reporting connection is down, else 0."),
		roundHist: reg.Histogram("placemond_placement_round_duration_seconds",
			"Wall-clock duration of individual placement engine rounds.", nil),
		scenarioGauge: reg.Gauge("placemond_scenarios",
			"Number of hosted monitoring scenarios."),
		connsGauge: reg.Gauge("placemond_connections",
			"Number of monitored connections across all scenarios."),
		snapshotErrors: reg.Counter("placemond_snapshot_errors_total",
			"Final WAL compactions that failed at shutdown; a non-zero value at exit means state was NOT fully saved."),
		eventTotal: map[monitord.EventKind]*metrics.Counter{},
	}
	if cfg.MaxJobsPerScenario != 0 {
		s.pool.maxPerKey = cfg.MaxJobsPerScenario // < 0 removes the quota
	}
	if traceBuf > 0 {
		s.traces = trace.NewRing(traceBuf)
	}
	if dedupSize > 0 {
		s.dedupGauge = reg.Gauge("placemond_dedup_window_batches",
			"Batch IDs remembered by the idempotent-ingest windows, all scenarios.")
	}
	for _, kind := range []monitord.EventKind{
		monitord.EventOutageStarted, monitord.EventDiagnosisChanged,
		monitord.EventOutageCleared, monitord.EventInconsistent,
	} {
		s.eventTotal[kind] = reg.Counter("placemond_events_total",
			"Monitoring daemon events by kind.", "kind", kind.String())
	}

	if err := s.boot(cfg); err != nil {
		s.pool.close()
		if s.wlog != nil {
			s.wlog.Abort()
		}
		s.closeMonitors()
		return nil, err
	}

	// One mux for every route. The request-timeout deadline is applied
	// per-route, and only to handlers that actually observe it: the
	// placement pool, network revision, migration, and scenario
	// create/delete (job drains). Ingest, the diagnosis read and the
	// other quick handlers never read the deadline, so building a timer
	// context for them would be pure overhead — and pprof profile
	// collection legitimately runs longer than an API request is allowed
	// to.
	mux := http.NewServeMux()
	mux.Handle("POST /v1/observations", s.instrument("/v1/observations", s.forScenario(DefaultScenario, s.serveObservations)))
	mux.Handle("GET /v1/diagnosis", s.instrument("/v1/diagnosis", s.forScenario(DefaultScenario, s.serveDiagnosis)))
	mux.Handle("POST /v1/placements", s.withTimeout(s.instrument("/v1/placements", s.forScenario(DefaultScenario, s.servePlacements))))
	mux.Handle("GET /healthz", s.instrument("/healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /metrics", s.instrument("/metrics", http.HandlerFunc(s.handleMetrics)))

	mux.Handle("POST /v1/scenarios/{id}/observations",
		s.instrument("/v1/scenarios/{id}/observations", s.forScenario("", s.serveObservations)))
	mux.Handle("GET /v1/scenarios/{id}/diagnosis",
		s.instrument("/v1/scenarios/{id}/diagnosis", s.forScenario("", s.serveDiagnosis)))
	mux.Handle("POST /v1/scenarios/{id}/placements",
		s.withTimeout(s.instrument("/v1/scenarios/{id}/placements", s.forScenario("", s.servePlacements))))
	mux.Handle("GET /v1/scenarios/{id}/traces",
		s.instrument("/v1/scenarios/{id}/traces", s.forScenario("", s.serveTenantTraces)))
	mux.Handle("GET /v1/scenarios/{id}/audit",
		s.instrument("/v1/scenarios/{id}/audit", s.forScenario("", s.serveAudit)))
	mux.Handle("PUT /v1/scenarios/{id}/network",
		s.withTimeout(s.instrument("/v1/scenarios/{id}/network", s.forScenario("", s.serveScenarioNetwork))))
	mux.Handle("POST /v1/scenarios/{id}/migrate",
		s.withTimeout(s.instrument("/v1/scenarios/{id}/migrate", s.forScenario("", s.serveScenarioMigrate))))
	if s.cluster != nil {
		mux.Handle("POST /v1/cluster/adopt",
			s.instrument("/v1/cluster/adopt", http.HandlerFunc(s.handleClusterAdopt)))
		mux.Handle("GET /v1/cluster",
			s.instrument("/v1/cluster", http.HandlerFunc(s.handleClusterInfo)))
	}

	mux.Handle("GET /v1/scenarios", s.instrument("/v1/scenarios", http.HandlerFunc(s.handleScenarioList)))
	mux.Handle("PUT /v1/scenarios/{id}", s.withTimeout(s.instrument("/v1/scenarios/{id}", http.HandlerFunc(s.handleScenarioCreate))))
	mux.Handle("GET /v1/scenarios/{id}", s.instrument("/v1/scenarios/{id}", s.forScenario("", s.serveScenarioInfo)))
	mux.Handle("DELETE /v1/scenarios/{id}", s.withTimeout(s.instrument("/v1/scenarios/{id}", http.HandlerFunc(s.handleScenarioDelete))))

	if s.traces != nil {
		mux.Handle("GET /debug/traces", s.instrument("/debug/traces", http.HandlerFunc(s.handleTraces)))
	}
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.withObservability(mux)
	return s, nil
}

// boot joins the cluster, recovers the write-ahead log, seeds
// DefaultScenario and checks ownership, in the order New documents. It
// runs before the handler exists, so nothing races it.
func (s *Server) boot(cfg Config) error {
	if cfg.Cluster != nil {
		cn, err := newClusterNode(cfg.Cluster, s.registry)
		if err != nil {
			return err
		}
		s.cluster = cn
	}
	if cfg.WAL != nil {
		if err := s.openWAL(cfg.WAL); err != nil {
			return err
		}
	}
	if cfg.DefaultSpec != nil {
		if err := s.seedDefault(cfg.DefaultSpec); err != nil {
			return err
		}
	}
	return s.validateClusterOwnership()
}

// seedDefault applies the boot rule to DefaultScenario's boot document.
func (s *Server) seedDefault(spec []byte) error {
	// The log keeps documents as encoding/json re-encodes them; compare
	// the boot document in that form.
	spec, err := json.Marshal(json.RawMessage(spec))
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadSpec, DefaultScenario, err)
	}
	if t, ok := s.tenants.Get(DefaultScenario); ok {
		if bytes.Equal(t.spec, spec) {
			return nil
		}
		return fmt.Errorf("server: the write-ahead log holds scenario %q with a document other than the boot one: "+
			"start without the boot document (placemond -placement) to serve the logged one, or delete the scenario first",
			DefaultScenario)
	}
	if s.cluster != nil {
		if owner := s.ownerOf(DefaultScenario); owner.ID != s.cluster.self() {
			s.logger.Info("default scenario owned by another node; legacy routes will forward", "owner", owner.ID)
			return nil
		}
	}
	return s.createScenario(DefaultScenario, spec, true)
}

// Handler returns the fully middleware-wrapped HTTP handler (also usable
// under httptest without a real listener).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry returns the metrics registry the server writes to.
func (s *Server) Registry() *metrics.Registry { return s.registry }

// Close stops the placement pool (draining queued jobs) and persists
// final state: a compaction fold + clean close of the write-ahead log
// when one is configured (without one there is nothing to persist). The
// returned error is non-nil when the final fold failed — placemond exits
// non-zero on it, so supervisors restart instead of believing state was
// saved. Idempotent (later calls return the first outcome) and implied
// by Serve returning.
func (s *Server) Close() error {
	s.pool.close()
	s.closeOnce.Do(func() {
		s.closeErr = s.persistFinal()
		s.closeMonitors()
	})
	return s.closeErr
}

// VerifyIncremental cross-checks every tenant's kept rolling diagnosis,
// the one serveDiagnosis serves, against a from-scratch recompute,
// returning the first divergence. It is a test seam: the chaos soak and crash matrix call it
// to pin the tentpole invariant — the event-driven O(changed paths)
// update must stay bit-identical to a full rebuild. Closed tenants
// (mid-removal) are skipped.
func (s *Server) VerifyIncremental() error {
	var firstErr error
	s.tenants.Range(func(id string, t *tenant) bool {
		t.mu.Lock()
		var err error
		if !t.closed {
			err = t.mon.VerifyIncremental()
		}
		t.mu.Unlock()
		if err != nil {
			firstErr = fmt.Errorf("scenario %q: %w", id, err)
			return false
		}
		return true
	})
	return firstErr
}

// closeMonitors closes every tenant, so a request that outlives the
// server gets a conflict instead of changing state nothing will persist.
// Runs after final persistence: compaction still needs to export
// monitor state.
func (s *Server) closeMonitors() {
	s.tenants.Range(func(id string, t *tenant) bool {
		t.close()
		return true
	})
}

// persistFinal is the once-only shutdown persistence step behind Close.
func (s *Server) persistFinal() error {
	if s.wlog == nil {
		return nil
	}
	var err error
	if s.readOnly.Load() {
		// The log is poisoned: nothing more can be folded. The earlier
		// failure is the exit status.
		err = s.wlog.Err()
		if err == nil {
			err = errWALUnavailable
		}
	} else {
		s.walMu.Lock()
		var state []byte
		state, err = json.Marshal(s.buildWALState())
		if err == nil {
			err = s.wlog.Compact(state)
		}
		s.walMu.Unlock()
	}
	if cerr := s.wlog.Close(); err == nil && cerr != nil && !errors.Is(cerr, wal.ErrClosed) {
		err = cerr
	}
	if err != nil {
		s.snapshotErrors.Inc()
		s.logger.Error("final WAL fold failed", "error", err)
		return fmt.Errorf("server: final WAL fold: %w", err)
	}
	s.logger.Info("WAL closed cleanly", "snapshot_seq", s.wlog.SnapshotSeq())
	return nil
}

// Abort terminates without final persistence — the in-process stand-in
// for kill -9 used by crash tests: the pool stops, the WAL file handle
// is dropped without a closing fsync, and nothing is folded. Whatever
// the sync policy already made durable is what the next boot recovers.
func (s *Server) Abort() {
	s.pool.close()
	s.closeOnce.Do(func() {
		if s.wlog != nil {
			s.wlog.Abort()
		}
		s.closeMonitors()
	})
}

// Serve accepts connections on ln until ctx is canceled, then drains:
// in-flight requests get DrainTimeout to complete, the placement pool
// finishes queued jobs, and Serve returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		ErrorLog:          slog.NewLogLogger(s.logger.Handler(), slog.LevelError),
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		drainCtx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
		defer cancel()
		shutdownErr <- srv.Shutdown(drainCtx)
	}()

	err := srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		// Listener failure, not a shutdown: report it (and still stop the
		// pool so workers don't leak).
		s.Close()
		return err
	}
	err = <-shutdownErr
	if cerr := s.Close(); err == nil {
		// A failed final snapshot surfaces here so placemond exits
		// non-zero: state was NOT fully saved.
		err = cerr
	}
	return err
}

// --- tenant resolution ---

// tenantHandler is a request handler bound to one resolved tenant.
type tenantHandler func(t *tenant, w http.ResponseWriter, r *http.Request)

// forScenario resolves the route's scenario against the registry, stamps
// the request's trace span with it, and rejects scenarios mid-drain so
// removal has a clean cutoff. The scenario is fixedID when that is
// non-empty, else the {id} path segment: the legacy single-scenario
// routes pass DefaultScenario, which makes them pure aliases of their
// /v1/scenarios/default/... twins.
func (s *Server) forScenario(fixedID string, fn tenantHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fixedID
		if id == "" {
			id = r.PathValue("id")
		}
		t, ok := s.tenants.Get(id)
		if !ok {
			if s.cluster != nil && s.routeScenario(w, r, id) {
				return
			}
			writeError(w, http.StatusNotFound, "scenario %q not found", id)
			return
		}
		if s.cluster != nil {
			if h := t.handoff.Load(); h != nil && !s.resolveHandoff(h, w, r, false) {
				return
			}
		}
		if t.draining.Load() {
			writeError(w, http.StatusConflict, "scenario %q is draining", id)
			return
		}
		trace.FromContext(r.Context()).SetTenant(id)
		t.requests.Inc()
		fn(t, w, r)
	})
}

// --- handlers ---

// observationsRequest is the body of POST /v1/observations.
type observationsRequest struct {
	// BatchID is an optional client-supplied idempotency key: deliveries
	// repeating a remembered ID replay the original response instead of
	// re-applying the batch, so at-least-once delivery (client retries,
	// duplicated packets) yields exactly-once ingestion.
	BatchID string `json:"batch_id,omitempty"`
	// Time is the virtual or wall-clock timestamp of the batch.
	Time float64 `json:"time"`
	// Reports are the state transitions, applied in order.
	Reports []reportEntry `json:"reports"`
}

type reportEntry struct {
	Connection int  `json:"connection"`
	Up         bool `json:"up"`
}

// eventJSON is the wire form of a monitord.Event.
type eventJSON struct {
	Time      float64        `json:"time"`
	Kind      string         `json:"kind"`
	Diagnosis *diagnosisJSON `json:"diagnosis,omitempty"`
}

// diagnosisJSON is the wire form of a tomography diagnosis.
type diagnosisJSON struct {
	Candidates       [][]int `json:"candidates"`
	DefinitelyFailed []int   `json:"definitely_failed"`
	PossiblyFailed   []int   `json:"possibly_failed"`
	Healthy          []int   `json:"healthy"`
	Unobserved       []int   `json:"unobserved"`
}

// obsResponse is the body of a successful observations POST.
type obsResponse struct {
	Events []eventJSON `json:"events"`
}

// buildObsResponse turns emitted events into the wire response plus the
// index-aligned diagnosis documents. Both the live handler and WAL boot
// replay use it, which is what keeps recovered dedup-window bodies
// byte-identical to the originally served ones.
func buildObsResponse(events []monitord.Event) (obsResponse, []*diagnosisJSON) {
	out := obsResponse{Events: make([]eventJSON, 0, len(events))}
	diags := make([]*diagnosisJSON, len(events))
	for i, ev := range events {
		diags[i] = diagnosisToJSON(ev.Diagnosis)
		out.Events = append(out.Events, eventJSON{
			Time:      ev.Time,
			Kind:      ev.Kind.String(),
			Diagnosis: diags[i],
		})
	}
	return out, diags
}

// serveObservations (the ingest hot path) lives in ingest.go.

// connectionJSON is one row of GET /v1/diagnosis's connection table.
type connectionJSON struct {
	Connection
	State string `json:"state"`
}

// serveDiagnosis answers from one locked copy of the tenant: the outage
// flag, the connection states, the diagnosis the last state change
// computed and the last good one. A read never localizes and never
// writes, so it holds the tenant's state lock only for the copy.
func (s *Server) serveDiagnosis(t *tenant, w http.ResponseWriter, r *http.Request) {
	out := struct {
		InOutage        bool             `json:"in_outage"`
		Inconsistent    bool             `json:"inconsistent,omitempty"`
		Stale           bool             `json:"stale,omitempty"`
		StaleAgeSeconds float64          `json:"stale_age_seconds,omitempty"`
		Connections     []connectionJSON `json:"connections"`
		Diagnosis       *diagnosisJSON   `json:"diagnosis,omitempty"`
	}{Connections: make([]connectionJSON, len(t.conns))}
	var (
		diag, lastGood *tomography.Diagnosis
		diagErr        error
		lastGoodAt     time.Time
	)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		writeError(w, http.StatusConflict, "scenario %q was removed", t.id)
		return
	}
	out.InOutage = t.mon.InOutage()
	for i, c := range t.conns {
		out.Connections[i] = connectionJSON{Connection: c, State: t.mon.State(i).String()}
	}
	if out.InOutage {
		diag, diagErr = t.mon.Diagnosis()
		lastGood, lastGoodAt = t.lastGood, t.lastGoodAt
	}
	t.mu.Unlock()
	if out.InOutage {
		if diagErr == nil {
			out.Diagnosis = diagnosisToJSON(diag)
		} else {
			// More simultaneous failures than the budget k explains, or
			// conflicting reports: the outage is real but unlocalizable
			// right now.
			out.Inconsistent = true
			// Degrade gracefully: a stale localization beats a blank
			// page during an outage, as long as it is marked as such.
			if lastGood != nil {
				out.Diagnosis = diagnosisToJSON(lastGood)
				out.Stale = true
				out.StaleAgeSeconds = time.Since(lastGoodAt).Seconds()
				s.staleServed.Inc()
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) servePlacements(t *tenant, w http.ResponseWriter, r *http.Request) {
	sp := trace.FromContext(r.Context())
	var req PlacementRequest
	st := sp.StartStage("decode")
	ok := decodeJSON(w, r, &req)
	st.EndDetail("services=%d", len(req.Services))
	if !ok {
		return
	}
	if len(req.Services) == 0 {
		writeError(w, http.StatusBadRequest, "no services to place")
		return
	}
	for i, svc := range req.Services {
		if len(svc.Clients) == 0 {
			writeError(w, http.StatusBadRequest, "service %d has no clients", i)
			return
		}
	}

	res, err := s.pool.submitKeyed(r.Context(), t.id, t.place, req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "placement queue full")
	case errors.Is(err, ErrTenantBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "scenario placement job limit reached")
	case errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "placement job timed out")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request canceled")
	case errors.Is(err, ErrJobPanicked):
		s.logger.Error("placement job panicked",
			"error", err, "trace_id", trace.IDFromContext(r.Context()))
		writeError(w, http.StatusInternalServerError, "placement job failed")
	case err != nil:
		// The placement library validates inputs; its errors describe
		// what was wrong with the job.
		writeError(w, http.StatusBadRequest, "placement: %v", err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenants.Get(DefaultScenario); ok {
		// Byte-compatible with the single-scenario daemon.
		writeJSON(w, http.StatusOK, map[string]any{
			"status":      "ok",
			"connections": len(t.conns),
			"in_outage":   t.inOutage(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"scenarios": s.tenants.Len(),
	})
}

// handleTraces serves the trace ring, newest first. The ring itself
// skips /debug/ paths, so reading traces never pollutes them. Query
// filters scope the read: ?limit=N caps the answer to the N newest
// records (large rings make an unbounded dump a self-inflicted slow
// request) and ?scenario=ID keeps only traces served for that scenario.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, ok := traceLimit(w, r)
	if !ok {
		return
	}
	var keep func(*trace.Record) bool
	if scenario := r.URL.Query().Get("scenario"); scenario != "" {
		keep = func(rec *trace.Record) bool { return rec.Tenant == scenario }
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []trace.Record `json:"traces"`
	}{Traces: s.traces.SnapshotFunc(limit, keep)})
}

// traceLimit parses the ?limit= query parameter shared by the trace
// endpoints: absent or 0 means the whole ring, negative or non-numeric
// values answer 400. The second return is false when the response has
// already been written.
func traceLimit(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return 0, true
	}
	limit, err := strconv.Atoi(raw)
	if err != nil || limit < 0 {
		writeError(w, http.StatusBadRequest, "limit must be a non-negative integer, got %q", raw)
		return 0, false
	}
	return limit, true
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.registry.WriteText(w); err != nil {
		s.logger.Error("metrics exposition failed", "error", err)
	}
}

// --- scenario administration ---

// scenarioInfoJSON is one scenario's status row.
type scenarioInfoJSON struct {
	ID          string `json:"id"`
	Connections int    `json:"connections"`
	InOutage    bool   `json:"in_outage"`
	// Persistent reports whether the scenario survives a restart: true
	// exactly when the daemon runs with a write-ahead log.
	Persistent bool `json:"persistent"`
}

func (s *Server) scenarioInfo(t *tenant) scenarioInfoJSON {
	return scenarioInfoJSON{
		ID:          t.id,
		Connections: len(t.conns),
		InOutage:    t.inOutage(),
		Persistent:  s.wlog != nil,
	}
}

func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Scenarios []scenarioInfoJSON `json:"scenarios"`
	}{Scenarios: []scenarioInfoJSON{}}
	s.tenants.Range(func(id string, t *tenant) bool {
		out.Scenarios = append(out.Scenarios, s.scenarioInfo(t))
		return true
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) serveScenarioInfo(t *tenant, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.scenarioInfo(t))
}

// serveTenantTraces serves the tenant's own trace ring, newest first —
// the per-scenario view of /debug/traces. ?limit=N caps the answer to
// the N newest records.
func (s *Server) serveTenantTraces(t *tenant, w http.ResponseWriter, r *http.Request) {
	limit, ok := traceLimit(w, r)
	if !ok {
		return
	}
	traces := []trace.Record{}
	if t.ring != nil {
		traces = t.ring.SnapshotFunc(limit, nil)
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []trace.Record `json:"traces"`
	}{Traces: traces})
}

func (s *Server) handleScenarioCreate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.cluster != nil && !s.clusterAdminLocal(w, r, id) {
		return
	}
	if s.rejectReadOnly(w) {
		return
	}
	const maxSpec = 1 << 20
	spec, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpec))
	if err != nil {
		writeBodyError(w, "scenario document", err)
		return
	}
	switch err := s.CreateScenario(id, spec); {
	case errors.Is(err, registry.ErrExists):
		writeError(w, http.StatusConflict, "scenario %q already exists", id)
	case errors.Is(err, registry.ErrFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, errWALUnavailable):
		respondReadOnly(w)
	case err != nil:
		// ID validation failures and persistence errors; the former are
		// the caller's fault, and the latter must not report success.
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		if t, ok := s.tenants.Get(id); ok {
			writeJSON(w, http.StatusCreated, s.scenarioInfo(t))
		} else {
			// Deleted again between create and response; report the create.
			writeJSON(w, http.StatusCreated, scenarioInfoJSON{ID: id})
		}
	}
}

func (s *Server) handleScenarioDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.cluster != nil && !s.clusterAdminLocal(w, r, id) {
		return
	}
	if s.rejectReadOnly(w) {
		return
	}
	switch err := s.RemoveScenario(r.Context(), id); {
	case errors.Is(err, registry.ErrNotFound):
		writeError(w, http.StatusNotFound, "scenario %q not found", id)
	case errors.Is(err, errWALUnavailable):
		respondReadOnly(w)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// decodeJSON strictly decodes the request body into v, writing the 4xx
// response itself (and returning false) on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	const maxBody = 1 << 20
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		}
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

func diagnosisToJSON(d *tomography.Diagnosis) *diagnosisJSON {
	if d == nil {
		return nil
	}
	return &diagnosisJSON{
		Candidates:       d.Consistent,
		DefinitelyFailed: d.DefinitelyFailed,
		PossiblyFailed:   d.PossiblyFailed,
		Healthy:          d.Healthy,
		Unobserved:       d.Unobserved,
	}
}
