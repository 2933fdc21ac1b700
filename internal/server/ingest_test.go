package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postCT posts body with an explicit content type and returns the
// response plus its raw body.
func postCT(t *testing.T, url, contentType, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

// decodeCase runs one body through the streaming decode path (scanner +
// fallback) and through the pure-stdlib reference, returning the scratch
// fields, the HTTP outcome, and the error response body for each.
func decodeCase(t *testing.T, body string) (handSC, refSC *obsScratch, handOK, refOK bool, handResp, refResp string) {
	t.Helper()

	req := httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	recA := httptest.NewRecorder()
	handSC = &obsScratch{}
	handOK = decodeObservations(handSC, recA, req)
	handResp = recA.Body.String()

	recB := httptest.NewRecorder()
	var ref observationsRequest
	refOK = decodeObsFallback(recB, []byte(body), &ref)
	refResp = recB.Body.String()
	refSC = &obsScratch{batchID: ref.BatchID, time: ref.Time}
	for _, rep := range ref.Reports {
		refSC.conns = append(refSC.conns, rep.Connection)
		refSC.ups = append(refSC.ups, rep.Up)
	}
	return handSC, refSC, handOK, refOK, handResp, refResp
}

// The hand-rolled scanner plus its stdlib fallback must be observably
// identical to a pure-stdlib strict decode: same accept/reject verdict,
// same decoded fields, and byte-identical error responses. This is the
// correctness contract that lets the zero-alloc path replace the old
// decoder without any golden-body drift.
func TestHandParserMatchesStdlib(t *testing.T) {
	cases := []string{
		// Plain valid documents.
		`{"time": 1, "reports": [{"connection": 0, "up": true}]}`,
		`{"batch_id":"b-1","time":2.5,"reports":[{"connection":1,"up":false},{"connection":0,"up":true}]}`,
		`{}`,
		`{"reports":[]}`,
		`{"reports":[{}]}`,
		"\n\t {\"time\": 3 ,\n\"reports\":[ { \"up\" : true , \"connection\" : 1 } ] } \r\n",
		// Duplicate keys: last write wins, reports replaces wholesale.
		`{"time":1,"time":2,"reports":[{"connection":0,"up":true}],"reports":[{"connection":1,"up":false}]}`,
		`{"reports":[{"connection":0,"connection":1,"up":true,"up":false}]}`,
		// Numbers exercising the RFC 8259 grammar edge.
		`{"time": -0.5e2, "reports": []}`,
		`{"time": 0, "reports": []}`,
		`{"time": 01, "reports": []}`,                   // invalid: leading zero
		`{"time": +5, "reports": []}`,                   // invalid: leading plus
		`{"time": 1., "reports": []}`,                   // invalid: bare point
		`{"time": .5, "reports": []}`,                   // invalid: no integer part
		`{"time": 1e, "reports": []}`,                   // invalid: empty exponent
		`{"time": 1e999, "reports": []}`,                // overflow
		`{"reports":[{"connection": 1.5, "up": true}]}`, // float into int field
		`{"reports":[{"connection": 1e2, "up": true}]}`, // exponent into int field
		// Escapes and non-ASCII (handled by the fallback path).
		`{"batch_id": "aAb", "time": 1, "reports": []}`,
		`{"batch_id": "café", "reports": []}`,
		"{\"batch_id\": \"caf\xc3\xa9\", \"reports\": []}",
		"{\"batch_id\": \"bad\xff\", \"reports\": []}",
		// Malformed documents.
		``,
		`{`,
		`[]`,
		`null`,
		`{"time": 1 "reports": []}`,
		`{"time": 1,}`,
		`{"unknown": 1}`,
		`{"reports": [{"unknown": 1}]}`,
		`{"reports": {"connection": 0}}`,
		`{"time": "1"}`,
		`{"reports":[{"connection": 0, "up": "yes"}]}`,
		`{"time": 1}{"time": 2}`, // trailing data
		`{"time": 1} garbage`,    // trailing garbage
		`{"time": 1}` + "\n\n",   // trailing whitespace only: valid
	}
	for _, body := range cases {
		handSC, refSC, handOK, refOK, handResp, refResp := decodeCase(t, body)
		if handOK != refOK {
			t.Errorf("body %q: verdict %v, stdlib %v", body, handOK, refOK)
			continue
		}
		if !handOK {
			if handResp != refResp {
				t.Errorf("body %q: error response %q, stdlib %q", body, handResp, refResp)
			}
			continue
		}
		if handSC.batchID != refSC.batchID || handSC.time != refSC.time ||
			!sameInts(handSC.conns, refSC.conns) || !sameBools(handSC.ups, refSC.ups) {
			t.Errorf("body %q: decoded {%q %v %v %v}, stdlib {%q %v %v %v}", body,
				handSC.batchID, handSC.time, handSC.conns, handSC.ups,
				refSC.batchID, refSC.time, refSC.conns, refSC.ups)
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNDJSONMalformed: NDJSON (a header line carrying batch_id and time,
// then one report object per line) is not an ingest format, whatever
// Content-Type the request names. Every NDJSON body, well-formed as
// NDJSON or not, is refused with the 400 the stdlib JSON decoder answers
// for it, byte for byte.
func TestNDJSONMalformed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	bodies := []string{
		"{\"batch_id\": \"b-42\", \"time\": 1}\n{\"connection\": 0, \"up\": false}\n{\"connection\": 1, \"up\": true}\n",
		"{\"time\": 1}\n\n{\"connection\": 0, \"up\": true}\n\n",
		"{\"time\": 1}\r\n{\"connection\": 0, \"up\": false}",
		"not json\n",
		"{\"time\": 1}\nnonsense\n",
	}
	for _, body := range bodies {
		resp, raw := postCT(t, ts.URL+"/v1/observations", "application/x-ndjson", body)
		ref := httptest.NewRecorder()
		if decodeObsFallback(ref, []byte(body), &observationsRequest{}) {
			t.Fatalf("body %q: the stdlib decoder accepted it", body)
		}
		if resp.StatusCode != http.StatusBadRequest || raw != ref.Body.String() {
			t.Errorf("body %q: %d %q, want 400 %q", body, resp.StatusCode, raw, ref.Body.String())
		}
	}
}

// An observation racing a scenario delete — tenant resolved, then the
// monitor closed — must answer 409, not corrupt a deleted scenario.
func TestObservationAfterScenarioRemoved(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	tn, ok := s.tenants.Get(DefaultScenario)
	if !ok {
		t.Fatal("no default tenant")
	}
	// Simulate the delete landing between tenant resolution and apply by
	// closing the monitor directly.
	tn.mon.Close()
	resp, raw := postCT(t, ts.URL+"/v1/observations", "application/json",
		`{"time": 1, "reports": [{"connection": 0, "up": false}]}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d (%s), want 409", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, "was removed") {
		t.Fatalf("error %q does not mention removal", raw)
	}
}

// A batch that flips every path at once — the incremental updater's worst
// case — must emit the outage lifecycle and keep the incremental state
// bit-identical to a from-scratch rebuild.
func TestAllPathsFlipBatch(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	tn, _ := s.tenants.Get(DefaultScenario)

	resp, raw := postCT(t, ts.URL+"/v1/observations", "application/json",
		`{"time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": false}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-down: %d %s", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, "outage-started") {
		t.Fatalf("all-down response %q missing outage-started", raw)
	}
	if err := tn.mon.VerifyIncremental(); err != nil {
		t.Fatalf("after all-down flip: %v", err)
	}

	resp, raw = postCT(t, ts.URL+"/v1/observations", "application/json",
		`{"time": 2, "reports": [{"connection": 0, "up": true}, {"connection": 1, "up": true}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("all-up: %d %s", resp.StatusCode, raw)
	}
	if !strings.Contains(raw, "outage-cleared") {
		t.Fatalf("all-up response %q missing outage-cleared", raw)
	}
	if err := tn.mon.VerifyIncremental(); err != nil {
		t.Fatalf("after all-up flip: %v", err)
	}
}

// Dedup-replayed batches must leave no trace on the incremental state: a
// replay answers from the cache without re-applying, so the rolling
// diagnosis still matches a from-scratch recompute afterwards.
func TestIncrementalConsistentAfterDedupReplay(t *testing.T) {
	cfg := testConfig()
	cfg.DedupWindow = 16
	s, ts := newTestServer(t, cfg)
	tn, _ := s.tenants.Get(DefaultScenario)

	batches := []string{
		`{"batch_id": "r-1", "time": 1, "reports": [{"connection": 0, "up": false}]}`,
		`{"batch_id": "r-1", "time": 1, "reports": [{"connection": 0, "up": false}]}`, // replay
		`{"batch_id": "r-2", "time": 2, "reports": [{"connection": 1, "up": false}]}`,
		`{"batch_id": "r-2", "time": 2, "reports": [{"connection": 1, "up": false}]}`, // replay
		`{"batch_id": "r-3", "time": 3, "reports": [{"connection": 0, "up": true}, {"connection": 1, "up": true}]}`,
		`{"batch_id": "r-1", "time": 1, "reports": [{"connection": 0, "up": false}]}`, // late replay: no re-apply
	}
	for i, b := range batches {
		resp, raw := postCT(t, ts.URL+"/v1/observations", "application/json", b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, raw)
		}
		if err := tn.mon.VerifyIncremental(); err != nil {
			t.Fatalf("after batch %d: %v", i, err)
		}
	}
	// The late replay of r-1 must not have re-applied its down report.
	if tn.mon.InOutage() {
		t.Fatal("replayed batch mutated monitor state")
	}
}
