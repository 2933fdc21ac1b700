package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// Header is the HTTP header carrying the trace ID end to end: the client
// stamps it on requests, the server middleware adopts (or mints) the ID
// and echoes it on the response.
const Header = "Placemond-Trace-Id"

// idBatch refills the ID entropy pool 4 KiB at a time, so minting an ID
// costs one mutex and a copy instead of a crypto/rand read per call.
var idBatch struct {
	mu  sync.Mutex
	buf [4096]byte
	off int // == len(buf) when empty
}

func init() { idBatch.off = len(idBatch.buf) }

// NewID mints a 96-bit random trace ID — the same construction as the
// client's idempotency keys, so IDs are unique without coordination.
// Entropy is drawn from a batched crypto/rand pool.
func NewID() string {
	var b [12]byte
	idBatch.mu.Lock()
	if idBatch.off+len(b) > len(idBatch.buf) {
		if _, err := rand.Read(idBatch.buf[:]); err != nil {
			idBatch.mu.Unlock()
			// crypto/rand failing is effectively fatal elsewhere; a
			// time-derived ID keeps tracing alive with unique-enough values.
			return fmt.Sprintf("t-%d", time.Now().UnixNano())
		}
		idBatch.off = 0
	}
	copy(b[:], idBatch.buf[idBatch.off:])
	idBatch.off += len(b)
	idBatch.mu.Unlock()
	// Encode into a stack buffer so the only allocation is the returned
	// string (hex.EncodeToString would allocate the byte slice too).
	var dst [2 * len(b)]byte
	hex.Encode(dst[:], b[:])
	return string(dst[:])
}

// Stage is one named, timed segment of a request: offset is relative to
// the span's start, so stages reconstruct the request timeline.
type Stage struct {
	Name            string  `json:"name"`
	OffsetSeconds   float64 `json:"offset_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	// Detail optionally annotates the stage (e.g. the winning candidate
	// of a placement round).
	Detail string `json:"detail,omitempty"`
}

// Span records the stages of one request. Create with NewSpan; all
// methods are safe for concurrent use and no-ops on a nil receiver, so
// handlers and worker goroutines can record without nil checks.
type Span struct {
	id    string
	start time.Time

	mu      sync.Mutex
	tenant  string
	stages  []Stage
	attrs   map[string]any
	onStage func(Stage) // called after each stage lands, outside mu

	// stageArr backs the first few stages so typical requests (two to
	// four stages) never grow the slice on the heap.
	stageArr [4]Stage
}

// NewSpan starts a span; an empty id mints a fresh one.
func NewSpan(id string) *Span {
	if id == "" {
		id = NewID()
	}
	s := &Span{id: id, start: time.Now()}
	s.stages = s.stageArr[:0]
	return s
}

// ID returns the trace ID ("" on a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// Start returns the span's start time (zero on a nil span).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// OnStage installs a hook called with every stage as it finishes (the
// server uses it to feed per-stage histograms). At most one hook; called
// without the span lock held.
func (s *Span) OnStage(fn func(Stage)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.onStage = fn
	s.mu.Unlock()
}

// SetTenant tags the span with the scenario (tenant) that served the
// request; the ring record and /debug/traces surface it, so one trace
// stream stays attributable in a multi-tenant daemon. Requests on the
// legacy tenant-less routes leave it empty.
func (s *Span) SetTenant(tenant string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.tenant = tenant
	s.mu.Unlock()
}

// Tenant returns the scenario tag set by SetTenant ("" when unset or on
// a nil span).
func (s *Span) Tenant() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenant
}

// StageTimer measures one in-flight stage; obtain with StartStage and
// finish with End or EndDetail.
type StageTimer struct {
	span  *Span
	name  string
	begin time.Time
}

// StartStage begins a named stage ending when the returned timer's End
// (or EndDetail) runs.
func (s *Span) StartStage(name string) *StageTimer {
	if s == nil {
		return &StageTimer{}
	}
	return &StageTimer{span: s, name: name, begin: time.Now()}
}

// End finishes the stage with no detail.
func (t *StageTimer) End() { t.EndDetail("") }

// EndDetail finishes the stage with a formatted annotation.
func (t *StageTimer) EndDetail(format string, args ...any) {
	if t == nil || t.span == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	t.span.addStage(t.name, t.begin, time.Since(t.begin), detail)
}

// EndCount finishes the stage with a "<label>=<n>" annotation. It is the
// allocation-free alternative to EndDetail("label=%d", n) for hot paths:
// no variadic boxing, no fmt state, just the final detail string.
func (t *StageTimer) EndCount(label string, n int) {
	if t == nil || t.span == nil {
		return
	}
	var buf [32]byte
	b := append(buf[:0], label...)
	b = append(b, '=')
	b = strconv.AppendInt(b, int64(n), 10)
	t.span.addStage(t.name, t.begin, time.Since(t.begin), string(b))
}

// AddStage records an already-measured stage of the given duration that
// ended now — the form engine progress hooks use, since the engine
// measures its own rounds.
func (s *Span) AddStage(name string, d time.Duration, detail string) {
	if s == nil {
		return
	}
	s.addStage(name, time.Now().Add(-d), d, detail)
}

func (s *Span) addStage(name string, begin time.Time, d time.Duration, detail string) {
	if d < 0 {
		d = 0
	}
	offset := begin.Sub(s.start)
	if offset < 0 {
		offset = 0
	}
	st := Stage{
		Name:            name,
		OffsetSeconds:   offset.Seconds(),
		DurationSeconds: d.Seconds(),
		Detail:          detail,
	}
	s.mu.Lock()
	s.stages = append(s.stages, st)
	hook := s.onStage
	s.mu.Unlock()
	if hook != nil {
		hook(st)
	}
}

// Annotate attaches a key/value attribute to the span (rendered in the
// ring entry's "attrs" object).
func (s *Span) Annotate(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Stages returns a copy of the stages recorded so far.
func (s *Span) Stages() []Stage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Stage(nil), s.stages...)
}

// Record is one finished trace as stored in the ring and served at
// /debug/traces.
type Record struct {
	TraceID string `json:"trace_id"`
	// Tenant is the scenario the request was served for; empty for
	// requests on the legacy tenant-less routes and non-scenario
	// endpoints.
	Tenant          string         `json:"tenant,omitempty"`
	Method          string         `json:"method"`
	Path            string         `json:"path"`
	Status          int            `json:"status"`
	Start           time.Time      `json:"start"`
	DurationSeconds float64        `json:"duration_seconds"`
	Stages          []Stage        `json:"stages,omitempty"`
	Attrs           map[string]any `json:"attrs,omitempty"`
}

// Finish snapshots the span into a Record; the span remains usable (a
// nil span yields a Record with only the passed fields).
func (s *Span) Finish(method, path string, status int, d time.Duration) Record {
	rec := Record{
		Method:          method,
		Path:            path,
		Status:          status,
		DurationSeconds: d.Seconds(),
	}
	if s == nil {
		return rec
	}
	rec.TraceID = s.id
	rec.Start = s.start
	s.mu.Lock()
	rec.Tenant = s.tenant
	rec.Stages = append([]Stage(nil), s.stages...)
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			rec.Attrs[k] = v
		}
	}
	s.mu.Unlock()
	return rec
}

// --- context plumbing ---

type ctxKey struct{}

// NewContext returns ctx carrying the span.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil — safe to use
// unconditionally, since all Span methods accept a nil receiver.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// IDFromContext returns the trace ID carried by ctx, or "".
func IDFromContext(ctx context.Context) string {
	return FromContext(ctx).ID()
}
