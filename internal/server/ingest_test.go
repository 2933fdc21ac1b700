package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// ndjsonBatch renders the streaming form of a batch.
func ndjsonBatch(batchID string, tm float64, reports ...string) string {
	var sb strings.Builder
	if batchID != "" {
		fmt.Fprintf(&sb, "{\"batch_id\": %q, \"time\": %g}\n", batchID, tm)
	} else {
		fmt.Fprintf(&sb, "{\"time\": %g}\n", tm)
	}
	for _, r := range reports {
		sb.WriteString(r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// An NDJSON batch must behave exactly like its JSON equivalent: same
// response bytes, same events, same rolling diagnosis — and every
// observation response advertises the streaming content type.
func TestNDJSONIngestMatchesJSON(t *testing.T) {
	_, tsJSON := newTestServer(t, testConfig())
	_, tsND := newTestServer(t, testConfig())

	steps := []struct {
		tm  float64
		ups []bool
	}{
		{1, []bool{false, true}},
		{2, []bool{false, false}},
		{3, []bool{true, true}},
	}
	for i, step := range steps {
		var reports, lines []string
		for conn, up := range step.ups {
			reports = append(reports, fmt.Sprintf(`{"connection": %d, "up": %t}`, conn, up))
			lines = append(lines, fmt.Sprintf(`{"connection": %d, "up": %t}`, conn, up))
		}
		jsonBody := fmt.Sprintf(`{"time": %g, "reports": [%s]}`, step.tm, strings.Join(reports, ","))
		respJ, rawJ := postCT(t, tsJSON.URL+"/v1/observations", "application/json", jsonBody)
		respN, rawN := postCT(t, tsND.URL+"/v1/observations", ndjsonContentType,
			ndjsonBatch("", step.tm, lines...))
		if respJ.StatusCode != http.StatusOK || respN.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status json=%d ndjson=%d (%s | %s)",
				i, respJ.StatusCode, respN.StatusCode, rawJ, rawN)
		}
		if rawJ != rawN {
			t.Fatalf("step %d: response diverged:\njson:   %s\nndjson: %s", i, rawJ, rawN)
		}
		if respJ.Header.Get(ndjsonHeader) != "1" || respN.Header.Get(ndjsonHeader) != "1" {
			t.Fatalf("step %d: missing %s advertisement", i, ndjsonHeader)
		}
	}
	_, diagJ := getJSON(t, tsJSON.URL+"/v1/diagnosis")
	_, diagN := getJSON(t, tsND.URL+"/v1/diagnosis")
	if !reflect.DeepEqual(diagJ, diagN) {
		t.Fatalf("diagnosis diverged: %v vs %v", diagJ, diagN)
	}
}

// Malformed NDJSON is rejected with a line-addressed 400; blank lines are
// tolerated.
func TestNDJSONMalformed(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		body string
		want string
	}{
		{"", "empty NDJSON body"},
		{"not json\n", "line 1: malformed NDJSON header object"},
		{"{\"time\": 1} extra\n", "line 1: trailing data after NDJSON header object"},
		{"{\"time\": 1, \"reports\": []}\n", "line 1: malformed NDJSON header object"},
		{"{\"time\": 1}\nnonsense\n", "line 2: malformed NDJSON report object"},
		{"{\"time\": 1}\n{\"connection\": 0, \"up\": true} x\n", "line 2: trailing data after NDJSON report object"},
		{"{\"time\": 1}\n\n{\"connection\": 0, \"up\": true}\n\n{\"bogus\": 1}\n", "line 5: malformed NDJSON report object"},
	}
	for _, tc := range cases {
		resp, raw := postCT(t, ts.URL+"/v1/observations", ndjsonContentType, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", tc.body, resp.StatusCode)
			continue
		}
		if !strings.Contains(raw, tc.want) {
			t.Errorf("body %q: error %q does not mention %q", tc.body, raw, tc.want)
		}
		// Blank-line tolerance: the valid-with-blank-lines variant works.
	}
	resp, raw := postCT(t, ts.URL+"/v1/observations", ndjsonContentType,
		"{\"time\": 1}\n\n{\"connection\": 0, \"up\": true}\n\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blank-line batch rejected: %d %s", resp.StatusCode, raw)
	}
}

// The dedup window must replay byte-identical answers regardless of which
// encoding delivered the original batch or the retry.
func TestNDJSONDedupReplay(t *testing.T) {
	cfg := testConfig()
	cfg.DedupWindow = 16
	_, ts := newTestServer(t, cfg)

	nd := ndjsonBatch("batch-x", 1, `{"connection": 0, "up": false}`, `{"connection": 1, "up": true}`)
	resp1, raw1 := postCT(t, ts.URL+"/v1/observations", ndjsonContentType, nd)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first delivery: %d %s", resp1.StatusCode, raw1)
	}
	if resp1.Header.Get("Placemond-Replayed") == "true" {
		t.Fatal("first delivery marked replayed")
	}

	// Retry in both encodings: the cached (JSON) answer replays byte for byte.
	jsonRetry := `{"batch_id": "batch-x", "time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`
	for _, retry := range []struct{ ct, body string }{
		{ndjsonContentType, nd},
		{"application/json", jsonRetry},
	} {
		resp, raw := postCT(t, ts.URL+"/v1/observations", retry.ct, retry.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retry (%s): %d %s", retry.ct, resp.StatusCode, raw)
		}
		if resp.Header.Get("Placemond-Replayed") != "true" {
			t.Fatalf("retry (%s) not marked replayed", retry.ct)
		}
		if raw != raw1 {
			t.Fatalf("retry (%s) body %q != original %q", retry.ct, raw, raw1)
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
