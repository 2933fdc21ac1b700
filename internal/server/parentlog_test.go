package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// The parent-log fixture: testdata/parentlog holds a write-ahead log
// directory written by placemond before it kept emitted events in compact
// form (commit c375066), beside the audit document and every batch's
// response that daemon served. Its snapshot and tail carry a scenario
// create, batches with batch IDs that emit diagnoses, a batch without
// one, a network update and more batches. TestParentLogBoots requires a
// server today to boot that log and answer exactly as its writer did.
//
// To write the fixture again, run TestWriteParentLog on the commit that
// should write it:
//
//	go test -run TestWriteParentLog -write-parent-log=DIR ./internal/server/
var writeParentLog = flag.String("write-parent-log", "", "TestWriteParentLog writes the parent-log fixture into this directory")

// parentLogResponses is the fixture's responses.json: each batch in the
// order it was posted, with the body it was answered.
type parentLogResponses []struct {
	Request json.RawMessage `json:"request"`
	Body    string          `json:"body"`
}

func parentLogConfig(dir string) Config {
	cfg := walConfig(dir)
	cfg.BuildScenario = revisingBuild
	return cfg
}

// TestWriteParentLog writes the fixture (see writeParentLog).
func TestWriteParentLog(t *testing.T) {
	out := *writeParentLog
	if out == "" {
		t.Skip("-write-parent-log not set")
	}
	s, err := New(parentLogConfig(filepath.Join(out, "wal")))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	base := ts.URL + "/v1/scenarios/fx"
	if resp, body := doReq(t, http.MethodPut, base, mustJSON(t, lineSpec())); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var responses parentLogResponses
	post := func(batch string) {
		resp, body := doReq(t, http.MethodPost, base+"/observations", []byte(batch))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", batch, resp.StatusCode, body)
		}
		responses = append(responses, struct {
			Request json.RawMessage `json:"request"`
			Body    string          `json:"body"`
		}{json.RawMessage(batch), body})
	}
	report := func(id string, tm int, ups ...string) string {
		doc := fmt.Sprintf(`{"batch_id":%q,"time":%d,"reports":[`, id, tm)
		if id == "" {
			doc = fmt.Sprintf(`{"time":%d,"reports":[`, tm)
		}
		for i, up := range ups {
			if i > 0 {
				doc += ","
			}
			doc += up
		}
		return doc + "]}"
	}
	down0, up0 := `{"connection":0,"up":false}`, `{"connection":0,"up":true}`
	down1, up1 := `{"connection":1,"up":false}`, `{"connection":1,"up":true}`
	down2, up2 := `{"connection":2,"up":false}`, `{"connection":2,"up":true}`
	// The line network: connection 1 reports only from the second batch
	// on, so unobserved shrinks between the first two diagnoses.
	post(report("b1", 1, down0))
	post(report("b2", 2, down1))
	post(report("b3", 3, up0))
	post(report("", 4, up1, down0))
	post(report("b5", 5, up0))
	s.compactWAL() // the snapshot holds the batches so far
	post(report("b6", 6, down1))
	if resp, body := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec())); resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %d %s", resp.StatusCode, body)
	}
	// The wide network: connection 2 first, then 0 with it.
	post(report("w1", 7, down2))
	post(report("w2", 8, down0, up2))
	post(report("w3", 9, up0, up1))
	_, audit := doReq(t, http.MethodGet, base+"/audit", nil)
	ts.Close()
	s.Abort() // a clean close would fold the tail into a snapshot
	if err := os.WriteFile(filepath.Join(out, "audit.json"), []byte(audit), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(responses, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "responses.json"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentLogBoots boots a copy of the parent-log fixture and requires
// every batch ID to replay its original body byte for byte and the audit
// to serve the events the writer served.
func TestParentLogBoots(t *testing.T) {
	src := filepath.Join("testdata", "parentlog")
	dir := t.TempDir()
	// Boot a copy: opening a log may write to it.
	entries, err := os.ReadDir(filepath.Join(src, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, "wal", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var responses parentLogResponses
	readJSON(t, filepath.Join(src, "responses.json"), &responses)
	var want auditDoc
	readJSON(t, filepath.Join(src, "audit.json"), &want)

	s, err := New(parentLogConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Abort() }()
	base := ts.URL + "/v1/scenarios/fx"
	replays := 0
	for _, r := range responses {
		var req observationsRequest
		if err := json.Unmarshal(r.Request, &req); err != nil {
			t.Fatal(err)
		}
		if req.BatchID == "" {
			continue // nothing to replay
		}
		resp, body := doReq(t, http.MethodPost, base+"/observations", r.Request)
		if resp.Header.Get("Placemond-Replayed") != "true" || body != r.Body {
			t.Fatalf("batch %s: replayed %q\n got %s\nwant %s", req.BatchID, resp.Header.Get("Placemond-Replayed"), body, r.Body)
		}
		replays++
	}
	if replays != 8 {
		t.Fatalf("replayed %d batches, want 8", replays)
	}
	_, raw := doReq(t, http.MethodGet, base+"/audit", nil)
	var got auditDoc
	if err := json.Unmarshal([]byte(raw), &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total || string(got.Events) != string(want.Events) || !got.Chain.Verified {
		t.Fatalf("audit after boot:\n got total %d %s\nwant total %d %s", got.Total, got.Events, want.Total, want.Events)
	}
}

// auditDoc is the part of GET …/audit the fixture pins.
type auditDoc struct {
	Total  int             `json:"total_events"`
	Events json.RawMessage `json:"events"`
	Chain  auditChainJSON  `json:"chain"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
