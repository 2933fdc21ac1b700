package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// This file pins the ingest decoder's edge cases: bodies landing exactly
// on the pooled-buffer boundary, and a differential corpus holding the
// hand-rolled scanner byte-identical to the stdlib reference on the same
// edges.

// postObs posts one body to a fresh server and returns the status and
// raw response. Every call gets its own server so monitor state never
// bleeds between compared bodies.
func postObs(t *testing.T, body string) (int, string) {
	t.Helper()
	_, ts := newTestServer(t, testConfig())
	resp, raw := postCT(t, ts.URL+"/v1/observations", "application/json", body)
	return resp.StatusCode, raw
}

// padTo pads a document with trailing newlines until it is exactly size
// bytes — whitespace after the document is valid JSON, so padding
// changes only where the body lands relative to the pooled read buffer.
func padTo(t *testing.T, doc string, size int) string {
	t.Helper()
	if len(doc) > size {
		t.Fatalf("document of %d bytes cannot pad to %d", len(doc), size)
	}
	body := doc + strings.Repeat("\n", size-len(doc))
	if len(body) != size {
		t.Fatalf("padded to %d, want %d", len(body), size)
	}
	return body
}

// TestIngestBodyAtBufferBoundary pins readBody's growth edge: the pooled
// scratch buffer starts at 4096 bytes capacity, so bodies of 4095, 4096,
// and 4097 bytes straddle the len==cap grow-and-reread path in every
// way. All must decode exactly like their unpadded form.
func TestIngestBodyAtBufferBoundary(t *testing.T) {
	jsonDoc := `{"time": 1, "reports": [{"connection": 0, "up": false}]}`
	wantCode, wantRaw := postObs(t, jsonDoc)
	if wantCode != http.StatusOK {
		t.Fatalf("unpadded document rejected: %d %s", wantCode, wantRaw)
	}
	for _, size := range []int{4095, 4096, 4097, 8192} {
		code, raw := postObs(t, padTo(t, jsonDoc, size))
		if code != wantCode || raw != wantRaw {
			t.Errorf("JSON body of %d bytes: %d %q, want %d %q", size, code, raw, wantCode, wantRaw)
		}
	}
}

// TestHandParserMatchesStdlibEdges extends the differential corpus with
// the edges this sweep is about: bodies at the pooled-buffer boundary
// (valid and malformed), null fields, exotic-but-valid numbers, control
// characters, and trailing-comma shapes. The contract is the same as
// TestHandParserMatchesStdlib: same verdict, same decoded fields, and
// byte-identical error responses.
func TestHandParserMatchesStdlibEdges(t *testing.T) {
	valid := `{"time": 1, "reports": [{"connection": 0, "up": false}]}`
	invalid := `{"time": 01, "reports": []}`
	cases := []string{
		padTo(t, valid, 4095),
		padTo(t, valid, 4096),
		padTo(t, valid, 4097),
		padTo(t, invalid, 4096),
		`{"reports": null}`,
		`{"batch_id": null, "reports": []}`,
		`{"time": null, "reports": []}`,
		`{"time": -0, "reports": []}`,
		`{"time": 1E+2, "reports": []}`,
		`{"time": 1e-2, "reports": []}`,
		`{"batch_id": "Abc", "reports": []}`,
		"{\"batch_id\": \"a\tb\", \"reports\": []}", // literal control char: invalid
		`{"reports": [{"connection": 0, "up": true},]}`,
		`{"reports": [{"connection": 0, "up": true}, {"connection": 1]}`,
		`{"reports": [[{"connection": 0}]]}`,
		`{"reports": [{"connection": 9223372036854775808, "up": true}]}`, // int64 overflow
		`{"reports": [{"connection": -1, "up": truefalse}]}`,
		"{\"time\": 1, \"reports\": []}\r\n",
		"\r\n{\"time\": 1, \"reports\": []}",
	}
	for _, body := range cases {
		handSC, refSC, handOK, refOK, handResp, refResp := decodeCase(t, body)
		label := body
		if len(label) > 64 {
			label = fmt.Sprintf("%s... (%d bytes)", label[:64], len(body))
		}
		if handOK != refOK {
			t.Errorf("body %q: verdict %v, stdlib %v", label, handOK, refOK)
			continue
		}
		if !handOK {
			if handResp != refResp {
				t.Errorf("body %q: error response %q, stdlib %q", label, handResp, refResp)
			}
			continue
		}
		if handSC.batchID != refSC.batchID || handSC.time != refSC.time ||
			!sameInts(handSC.conns, refSC.conns) || !sameBools(handSC.ups, refSC.ups) {
			t.Errorf("body %q: decoded {%q %v %v %v}, stdlib {%q %v %v %v}", label,
				handSC.batchID, handSC.time, handSC.conns, handSC.ups,
				refSC.batchID, refSC.time, refSC.conns, refSC.ups)
		}
	}
}
