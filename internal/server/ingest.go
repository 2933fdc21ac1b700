package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/trace"
)

// The observation ingest wire path. A request body is one JSON
// observationsRequest document, decoded by a hand-rolled scanner into
// pooled scratch buffers, so a steady-state ingest request allocates
// nothing for parsing. The scanner accepts exactly the documents the
// strict encoding/json path accepts; any deviation (unknown field,
// escape sequence, number overflow, trailing data) falls back to the
// stdlib decoder over the same buffered bytes, which keeps every error
// response byte-identical to the stdlib decoder's.

// maxObsBody bounds the observation request body (same limit as the
// generic decodeJSON path).
const maxObsBody = 1 << 20

// emptyObsBody is the response body for a batch that emitted no events —
// byte-identical to json.Marshal(obsResponse{Events: []eventJSON{}})
// plus the trailing newline json.Encoder appends. The slice is shared
// (responses and dedup entries reference it); it must never be mutated.
var emptyObsBody = []byte("{\"events\":[]}\n")

// obsScratch is the pooled per-request ingest state: the buffered body
// and the decoded batch. Everything is reused across requests; only the
// batch ID (when present) is materialized as a string, because the dedup
// window keys on it.
type obsScratch struct {
	buf     []byte
	batchID string
	time    float64
	conns   []int
	ups     []bool
}

var obsScratchPool = sync.Pool{
	New: func() any { return &obsScratch{buf: make([]byte, 0, 4096)} },
}

func getObsScratch() *obsScratch {
	sc := obsScratchPool.Get().(*obsScratch)
	sc.buf = sc.buf[:0]
	sc.batchID = ""
	sc.time = 0
	sc.conns = sc.conns[:0]
	sc.ups = sc.ups[:0]
	return sc
}

func putObsScratch(sc *obsScratch) {
	if cap(sc.buf) > maxObsBody/4 {
		// Don't let one huge batch pin a megabyte per pooled entry.
		sc.buf = make([]byte, 0, 4096)
	}
	obsScratchPool.Put(sc)
}

// readBody buffers the whole request body into sc.buf, enforcing the
// size limit. On a failed read it answers the request itself (and
// returns false).
func readBody(sc *obsScratch, w http.ResponseWriter, r *http.Request) bool {
	body := http.MaxBytesReader(w, r.Body, maxObsBody)
	for {
		if len(sc.buf) == cap(sc.buf) {
			sc.buf = append(sc.buf, 0)[:len(sc.buf)]
		}
		n, err := body.Read(sc.buf[len(sc.buf):cap(sc.buf)])
		sc.buf = sc.buf[:len(sc.buf)+n]
		if err == io.EOF {
			return true
		}
		if err != nil {
			writeBodyError(w, "body", err)
			return false
		}
	}
}

// --- hand-rolled JSON scanner ---

// obsParser scans the fixed observationsRequest shape. Every method
// reports false on anything unexpected, which sends the request down the
// stdlib fallback path; the scanner never needs to produce an error
// message of its own.
type obsParser struct {
	b []byte
	i int
}

func (p *obsParser) skipWS() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c (after whitespace) or reports false.
func (p *obsParser) eat(c byte) bool {
	p.skipWS()
	if p.i >= len(p.b) || p.b[p.i] != c {
		return false
	}
	p.i++
	return true
}

// peek returns the next non-space byte without consuming it.
func (p *obsParser) peek() (byte, bool) {
	p.skipWS()
	if p.i >= len(p.b) {
		return 0, false
	}
	return p.b[p.i], true
}

// str scans a JSON string with no escapes and returns the raw bytes
// between the quotes. Escapes and control characters report false (the
// fallback handles them).
func (p *obsParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start:p.i]
			p.i++
			return s, true
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// number scans one JSON number token and validates it against the JSON
// grammar (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?). strconv is
// more permissive than the grammar ("+5", "01", "1.", ".5"), so shapes
// strconv would accept but encoding/json rejects must fail here to keep
// the fallback's error responses authoritative.
func (p *obsParser) number() ([]byte, bool) {
	p.skipWS()
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			p.i++
		} else {
			break
		}
	}
	tok := p.b[start:p.i]
	if !validJSONNumber(tok) {
		return nil, false
	}
	return tok, true
}

// validJSONNumber checks tok against RFC 8259's number grammar.
func validJSONNumber(tok []byte) bool {
	i, n := 0, len(tok)
	if i < n && tok[i] == '-' {
		i++
	}
	switch {
	case i < n && tok[i] == '0':
		i++
	case i < n && tok[i] >= '1' && tok[i] <= '9':
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < n && tok[i] == '.' {
		i++
		if i >= n || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	if i < n && (tok[i] == 'e' || tok[i] == 'E') {
		i++
		if i < n && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if i >= n || tok[i] < '0' || tok[i] > '9' {
			return false
		}
		for i < n && tok[i] >= '0' && tok[i] <= '9' {
			i++
		}
	}
	return i == n
}

// intTok parses a strict integer (no fraction, no exponent) — the shape
// encoding/json accepts for an int field.
func (p *obsParser) intTok() (int, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(string(tok)) // no alloc: tok stays on the stack
	if err != nil {
		return 0, false
	}
	return v, true
}

// float parses a float64, rejecting range overflow (the fallback
// reproduces encoding/json's overflow error).
func (p *obsParser) float() (float64, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// boolean parses true/false.
func (p *obsParser) boolean() (bool, bool) {
	p.skipWS()
	if bytes.HasPrefix(p.b[p.i:], []byte("true")) {
		p.i += 4
		return true, true
	}
	if bytes.HasPrefix(p.b[p.i:], []byte("false")) {
		p.i += 5
		return false, true
	}
	return false, false
}

// report scans one {"connection": N, "up": B} object into sc. Missing
// keys default to the zero value, duplicate keys take the last write —
// both matching encoding/json.
func (p *obsParser) report(sc *obsScratch) bool {
	if !p.eat('{') {
		return false
	}
	conn, up := 0, false
	if c, ok := p.peek(); ok && c == '}' {
		p.i++
		sc.conns = append(sc.conns, conn)
		sc.ups = append(sc.ups, up)
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return false
		}
		switch string(key) {
		case "connection":
			if conn, ok = p.intTok(); !ok {
				return false
			}
		case "up":
			if up, ok = p.boolean(); !ok {
				return false
			}
		default:
			return false
		}
		c, ok := p.peek()
		if !ok {
			return false
		}
		p.i++
		if c == '}' {
			sc.conns = append(sc.conns, conn)
			sc.ups = append(sc.ups, up)
			return true
		}
		if c != ',' {
			return false
		}
	}
}

// document scans the top-level observationsRequest object: its
// batch_id, time and reports keys.
func (p *obsParser) document(sc *obsScratch) bool {
	if !p.eat('{') {
		return false
	}
	if c, ok := p.peek(); ok && c == '}' {
		p.i++
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return false
		}
		switch string(key) {
		case "batch_id":
			id, ok := p.str()
			if !ok {
				return false
			}
			for _, c := range id {
				if c >= 0x80 {
					// encoding/json sanitizes invalid UTF-8; defer to it so
					// the dedup key matches what the stdlib path would use.
					return false
				}
			}
			sc.batchID = string(id)
		case "time":
			if sc.time, ok = p.float(); !ok {
				return false
			}
		case "reports":
			// A duplicate reports key replaces the slice, matching
			// json.Unmarshal's overwrite semantics.
			sc.conns = sc.conns[:0]
			sc.ups = sc.ups[:0]
			if !p.reports(sc) {
				return false
			}
		default:
			return false
		}
		c, ok := p.peek()
		if !ok {
			return false
		}
		p.i++
		if c == '}' {
			return true
		}
		if c != ',' {
			return false
		}
	}
}

// reports scans the reports array.
func (p *obsParser) reports(sc *obsScratch) bool {
	if !p.eat('[') {
		return false
	}
	if c, ok := p.peek(); ok && c == ']' {
		p.i++
		return true
	}
	for {
		if !p.report(sc) {
			return false
		}
		c, ok := p.peek()
		if !ok {
			return false
		}
		p.i++
		if c == ']' {
			return true
		}
		if c != ',' {
			return false
		}
	}
}

// parseObsJSON scans a whole application/json observations body into sc.
// False means "let the stdlib decoder have it", not necessarily
// malformed.
func parseObsJSON(sc *obsScratch) bool {
	p := obsParser{b: sc.buf}
	if !p.document(sc) {
		return false
	}
	p.skipWS()
	return p.i == len(p.b) // trailing data falls back too
}

// decodeObsFallback re-decodes the buffered body with the strict stdlib
// decoder, reproducing its error responses byte for byte.
// It returns false when it wrote the error response itself.
func decodeObsFallback(w http.ResponseWriter, body []byte, v *observationsRequest) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		return false
	}
	return true
}

// decodeObservations fills sc from the request, preferring the zero-alloc
// scanner and falling back to encoding/json for anything irregular. It
// writes the 4xx itself and reports false on failure.
func decodeObservations(sc *obsScratch, w http.ResponseWriter, r *http.Request) bool {
	if !readBody(sc, w, r) {
		return false
	}
	if parseObsJSON(sc) {
		return true
	}
	// Irregular document: reset and let the stdlib decoder either accept
	// it (escaped strings, exotic-but-valid spacing) or produce the
	// canonical error response.
	sc.batchID = ""
	sc.time = 0
	sc.conns = sc.conns[:0]
	sc.ups = sc.ups[:0]
	var req observationsRequest
	if !decodeObsFallback(w, sc.buf, &req) {
		return false
	}
	sc.batchID = req.BatchID
	sc.time = req.Time
	for _, rep := range req.Reports {
		sc.conns = append(sc.conns, rep.Connection)
		sc.ups = append(sc.ups, rep.Up)
	}
	return true
}

func (s *Server) serveObservations(t *tenant, w http.ResponseWriter, r *http.Request) {
	sp := trace.FromContext(r.Context())
	sc := getObsScratch()
	defer putObsScratch(sc)
	st := sp.StartStage("decode")
	ok := decodeObservations(sc, w, r)
	st.EndCount("reports", len(sc.conns))
	if !ok {
		return
	}
	if len(sc.conns) == 0 {
		writeError(w, http.StatusBadRequest, "no reports in batch")
		return
	}
	if s.wlog != nil && s.rejectReadOnly(w) {
		return
	}
	// Batches of one tenant do not interleave, in any mode. The per-tenant
	// lock makes dedup lookup, apply and dedup store one step, so
	// concurrent deliveries of one batch_id apply it once and all get its
	// one answer. With a WAL it also makes log order equal apply order,
	// which replay relies on; the shared read lock lets compaction capture
	// a state that matches the log position exactly. In cluster mode the
	// same lock is the migration fence: a migration snapshots under it,
	// so a batch that acquires it must re-check for a handoff armed while
	// it waited — applying after the fence would silently diverge the two
	// nodes' states. Such a batch releases the lock, waits the migration
	// out, and answers 307 toward the new owner (the body is already
	// consumed, so the client re-sends it there): the batch is never
	// applied post-fence and never dropped.
	for {
		t.ingestMu.Lock()
		if s.cluster == nil {
			break
		}
		h := t.handoff.Load()
		if h == nil {
			break
		}
		t.ingestMu.Unlock()
		if !s.resolveHandoff(h, w, r, true) {
			return
		}
	}
	defer t.ingestMu.Unlock()
	if s.wlog != nil {
		s.walMu.RLock()
		defer s.walMu.RUnlock()
		if s.rejectReadOnly(w) {
			// Mode may have flipped while waiting on the locks.
			return
		}
	}
	// One step under the state lock: the closed check, the dedup lookup,
	// validation and the apply.
	t.mu.Lock()
	if t.closed {
		// The scenario was removed, migrated away or replaced between
		// tenant resolution and apply.
		t.mu.Unlock()
		writeError(w, http.StatusConflict, "scenario %q was removed", t.id)
		return
	}
	if t.dedup != nil && sc.batchID != "" {
		st := sp.StartStage("dedup")
		cached, hit := t.dedup.lookup(sc.batchID)
		st.EndDetail("batch_id=%s hit=%t", sc.batchID, hit)
		if hit {
			t.mu.Unlock()
			// Already applied: replay the original answer byte for byte
			// so the retrying client observes the events it missed.
			s.obsReplayed.Inc()
			sp.Annotate("replayed", true)
			w.Header().Set("Placemond-Replayed", "true")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(cached.status)
			w.Write(cached.body)
			return
		}
	}
	ingest := sp.StartStage("ingest")
	n := len(t.conns)
	for i, conn := range sc.conns {
		if conn < 0 || conn >= n {
			// Validated up front so a bad entry rejects the whole batch
			// without side effects.
			t.mu.Unlock()
			ingest.EndDetail("rejected report %d", i)
			writeError(w, http.StatusBadRequest,
				"report %d: connection %d out of range [0, %d)", i, conn, n)
			return
		}
	}
	events, err := t.mon.ReportBatch(sc.time, sc.conns, sc.ups)
	t.keepGood()
	t.mu.Unlock()
	if err != nil {
		// Unreachable after validation; kept as a hard failure signal.
		ingest.EndDetail("error")
		writeError(w, http.StatusInternalServerError, "ingest: %v", err)
		return
	}
	var (
		out   obsResponse
		diags []*diagnosisJSON
	)
	if len(events) > 0 {
		out, diags = buildObsResponse(events)
	}
	if s.wlog != nil {
		// Append-before-ack: the batch (and each emitted diagnosis) must
		// be durable before the client hears 200. A failed append flips
		// the daemon read-only — the batch was applied in memory but not
		// logged, and freezing further mutations caps the divergence at
		// this one unacknowledged batch, which the client will retry
		// after the restart that recovers pre-batch state.
		walStage := sp.StartStage("wal")
		err := s.walAppendIngest(t, sc.batchID, sc.time, sc.conns, sc.ups, events, diags)
		walStage.EndDetail("records=%d ok=%t", 1+len(events), err == nil)
		if err != nil {
			ingest.EndDetail("wal append failed")
			respondReadOnly(w)
			return
		}
	}
	s.obsIngested.Add(float64(len(sc.conns)))
	t.obsIngested.Add(float64(len(sc.conns)))
	for _, ev := range events {
		if c, ok := s.eventTotal[ev.Kind]; ok {
			c.Inc()
		}
	}
	// The legacy unlabeled gauge keeps its pre-registry meaning: the
	// default scenario's outage state.
	s.setOutageGauges(t)

	ingest.EndCount("events", len(events))
	body := emptyObsBody
	if len(events) > 0 {
		b, err := json.Marshal(out)
		if err != nil {
			writeJSON(w, http.StatusOK, out)
			return
		}
		body = append(b, '\n')
	}
	if t.dedup != nil && sc.batchID != "" {
		t.mu.Lock()
		grew := t.dedup.store(sc.batchID, dedupEntry{status: http.StatusOK, body: body})
		t.mu.Unlock()
		if grew {
			s.dedupGauge.Add(1)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
