package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// statusWriter records the status code and byte count a handler produced
// so the logging/metrics layer can report them. Wrappers are pooled —
// one is checked out per request and returned after the deferred
// observability epilogue, the last code to touch it.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

func getStatusWriter(w http.ResponseWriter) *statusWriter {
	sw := statusWriterPool.Get().(*statusWriter)
	sw.ResponseWriter = w
	sw.status = 0
	sw.bytes = 0
	return sw
}

func putStatusWriter(sw *statusWriter) {
	sw.ResponseWriter = nil
	statusWriterPool.Put(sw)
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Flush lets streaming handlers (pprof) keep working through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObservability is the outermost middleware: it adopts the client's
// Placemond-Trace-Id (minting one when absent), attaches a span to the
// request context, echoes the ID on the response, captures the response
// status, converts panics into 500s (logging the stack), writes one
// structured request record per request — plus a warning above the
// slow-request threshold — and files the finished trace into the
// /debug/traces ring.
func (s *Server) withObservability(next http.Handler) http.Handler {
	// The stage hook closes only over the server, so one closure serves
	// every request instead of allocating per request.
	onStage := func(st trace.Stage) {
		// Engine rounds surface as span stages; fold them into the
		// round-duration histogram as they land.
		if strings.HasPrefix(st.Name, "placement round") {
			s.roundHist.Observe(st.DurationSeconds)
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := getStatusWriter(w)
		defer putStatusWriter(sw)
		start := time.Now()
		sp := trace.NewSpan(r.Header.Get(trace.Header))
		sp.OnStage(onStage)
		sw.Header().Set(trace.Header, sp.ID())
		r = r.WithContext(trace.NewContext(r.Context(), sp))
		defer func() {
			if p := recover(); p != nil {
				s.logger.Error("panic serving request",
					"method", r.Method, "path", r.URL.Path,
					"trace_id", sp.ID(), "panic", p, "stack", string(debug.Stack()))
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal server error")
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			elapsed := time.Since(start)
			if s.logRequests {
				// Guarded so a disabled logger skips the variadic arg
				// boxing entirely, not just the record formatting.
				s.logger.Info("request",
					"method", r.Method, "path", r.URL.Path,
					"status", sw.status, "bytes", sw.bytes,
					"duration", elapsed.Round(time.Microsecond),
					"trace_id", sp.ID())
			}
			if s.slowRequest > 0 && elapsed >= s.slowRequest {
				s.logger.Warn("slow request",
					"method", r.Method, "path", r.URL.Path,
					"status", sw.status,
					"duration", elapsed.Round(time.Microsecond),
					"threshold", s.slowRequest,
					"trace_id", sp.ID())
			}
			if !strings.HasPrefix(r.URL.Path, "/debug/") {
				// Reading /debug/traces (or profiling) must not evict the
				// traces being inspected.
				rec := sp.Finish(r.Method, r.URL.Path, sw.status, elapsed)
				if s.traces != nil {
					s.traces.Add(rec)
				}
				// Scenario-scoped requests (span carries the tenant) are
				// also filed into that tenant's own ring.
				if rec.Tenant != "" {
					if t, ok := s.tenants.Get(rec.Tenant); ok && t.ring != nil {
						t.ring.Add(rec)
					}
				}
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// withTimeout bounds every request with a context deadline. Handlers that
// wait (the placement pool) observe the deadline and abort; quick handlers
// never notice it.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.requestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// instrument counts requests and observes latency for one named route.
// The per-status counters are registered through the registry on first
// use and then cached per route, so the hot path skips the registry's
// label rendering and lock.
func (s *Server) instrument(route string, next http.Handler) http.Handler {
	hist := s.registry.Histogram("placemond_http_request_duration_seconds",
		"HTTP request latency by route.", nil, "route", route)
	var (
		mu       sync.RWMutex
		byStatus = make(map[int]*metrics.Counter)
	)
	counterFor := func(status int) *metrics.Counter {
		mu.RLock()
		c, ok := byStatus[status]
		mu.RUnlock()
		if ok {
			return c
		}
		c = s.registry.Counter("placemond_http_requests_total",
			"HTTP requests by route and status code.",
			"route", route, "code", strconv.Itoa(status))
		mu.Lock()
		byStatus[status] = c
		mu.Unlock()
		return c
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, ok := w.(*statusWriter)
		if !ok {
			sw = &statusWriter{ResponseWriter: w}
		}
		start := time.Now()
		next.ServeHTTP(sw, r)
		hist.Observe(time.Since(start).Seconds())
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		counterFor(status).Inc()
	})
}

// discardHandler is the backend of the default (nil Config.Logger)
// logger: Enabled reports false for every level, so slog skips record
// construction entirely. The previous default — a TextHandler writing to
// io.Discard — paid full record formatting per request on the hot path
// just to throw the bytes away.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// writeJSON renders v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors after WriteHeader can only be transport failures;
	// there is nothing useful left to tell the client.
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders the uniform error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeBodyError answers a request whose body could not be read: 413 when
// the body overran its http.MaxBytesReader limit, 400 for any other
// failure, such as a client that hangs up mid-body.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "reading %s: %v", what, err)
}
