package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/monitord"
)

// TestCompactRoundTripEmitted drives random monitors at k = 1 and k = 2
// and requires every diagnosis they emit to come back from its compact
// record as the same bytes diagnosisToJSON gives, through the one-record
// pair and through a batch's events, and stored bodies and ledger rows to
// decode as encoding/json decodes them into the wire structs. The runs
// must reach connections that have not reported yet (so unobserved
// changes between events), a state with no healthy node, and a diagnosis
// whose unobserved list is nil.
func TestCompactRoundTripEmitted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sawK2, sawNoHealthy, sawNilUnobserved, sawUnobservedChange bool
	for trial := 0; trial < 300; trial++ {
		n, k, conns := 4+rng.Intn(40), 1+trial%2, 2+rng.Intn(6)
		paths := make([]*bitset.Set, conns)
		for i := range paths {
			paths[i] = bitset.New(n)
			for paths[i].Empty() {
				for v := 0; v < n; v++ {
					if rng.Intn(4) == 0 {
						paths[i].Add(v)
					}
				}
			}
		}
		mon, err := monitord.New(n, k, paths)
		if err != nil {
			t.Fatal(err)
		}
		var (
			u              unobservedSet
			lists          storedLists
			rows           []auditEvent
			prevUnobserved []int
		)
		for step := 0; step < 3*conns; step++ {
			events, err := mon.Report(float64(step)+0.5, rng.Intn(conns), rng.Intn(3) == 0)
			if err != nil {
				t.Fatal(err)
			}
			var wires []eventJSON
			for _, ev := range events {
				d := diagnosisToJSON(ev.Diagnosis)
				wires = append(wires, eventJSON{Time: ev.Time, Kind: ev.Kind.String(), Diagnosis: d})
				rows = append(rows, auditEvent{Seq: uint64(len(rows)), Time: ev.Time, Kind: ev.Kind.String(), Diagnosis: d})
				if d == nil {
					continue
				}
				want := mustJSON(t, d)
				if got := mustJSON(t, compactDiagnosisOf(d, &u).wire()); !bytes.Equal(got, want) {
					t.Fatalf("trial %d step %d: round trip\n got %s\nwant %s", trial, step, got, want)
				}
				sawK2 = sawK2 || k == 2
				sawNoHealthy = sawNoHealthy || len(d.Healthy) == 0
				sawNilUnobserved = sawNilUnobserved || d.Unobserved == nil
				if prevUnobserved != nil && !slices.Equal(prevUnobserved, d.Unobserved) {
					sawUnobservedChange = true
				}
				prevUnobserved = d.Unobserved
			}
			if len(wires) == 0 {
				continue
			}
			want := mustJSON(t, obsResponse{Events: wires})
			var plain obsResponse
			if err := json.Unmarshal(want, &plain); err != nil {
				t.Fatal(err)
			}
			stored, err := decodeObsBody(append(want, '\n'), &u, &lists)
			if err != nil {
				t.Fatal(err)
			}
			sc := getObsScratch()
			if got := sc.wireKept(stored); !reflect.DeepEqual(got, plain) {
				t.Fatalf("trial %d step %d: stored body %s decoded to %+v, encoding/json gives %+v", trial, step, want, got, plain)
			}
			got := mustJSON(t, sc.wireKept(compactEvents(wires, &u)))
			putObsScratch(sc)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d step %d: batch round trip\n got %s\nwant %s", trial, step, got, want)
			}
		}
		doc := mustJSON(t, rows)
		var stored storedAudit
		var plain []auditEvent
		if err := json.Unmarshal(doc, &stored); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(doc, &plain); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual([]auditEvent(stored), plain) {
			t.Fatalf("trial %d: ledger rows %s decoded to %+v, encoding/json gives %+v", trial, doc, stored, plain)
		}
	}
	if !sawK2 || !sawNoHealthy || !sawNilUnobserved || !sawUnobservedChange {
		t.Fatalf("coverage: k=2 %t, no healthy node %t, nil unobserved %t, unobserved changed %t",
			sawK2, sawNoHealthy, sawNilUnobserved, sawUnobservedChange)
	}
}

// TestCompactRoundTripShapes covers wire structs no monitor emits but a
// decoded record may carry: nil against empty in every list, a healthy
// list that is not ascending, and one shorter than its bitset.
func TestCompactRoundTripShapes(t *testing.T) {
	cases := []*diagnosisJSON{
		{},
		{Candidates: [][]int{}, DefinitelyFailed: []int{}, PossiblyFailed: []int{}, Healthy: []int{}, Unobserved: []int{}},
		{Candidates: [][]int{{3}, {1, 4}}, DefinitelyFailed: []int{}, PossiblyFailed: []int{1, 3, 4}, Healthy: []int{0, 2, 5}, Unobserved: nil},
		{Candidates: [][]int{{9}}, Healthy: []int{5, 2, 7}},
		{Candidates: [][]int{{9}}, Healthy: []int{2, 2}},
		{Candidates: [][]int{{9}}, Healthy: []int{-1, 3}},
		{Candidates: [][]int{{1}}, Healthy: []int{4000}, Unobserved: []int{2, 3}},
		{Candidates: [][]int{{1}}, Healthy: []int{0, 1, 63, 64, 127, 128}, Unobserved: []int{2, 3}},
	}
	var u unobservedSet
	for i, d := range cases {
		want := mustJSON(t, d)
		c := compactDiagnosisOf(d, &u)
		if got := mustJSON(t, c.wire()); !bytes.Equal(got, want) {
			t.Fatalf("case %d: got %s, want %s", i, got, want)
		}
		if !c.equal(compactDiagnosisOf(d, &u)) {
			t.Fatalf("case %d: a record differs from a second one built from the same struct", i)
		}
	}
	if compactDiagnosisOf(nil, &u).wire() != nil {
		t.Fatal("a nil diagnosis did not come back nil")
	}
}

// TestStoredDecodeShapes decodes stored bodies and ledger rows the server
// does not write, one document after another through one storedLists,
// and requires the events encoding/json decodes them to: an unobserved
// list that goes missing or null after a present one, comes back, or is
// spaced differently.
func TestStoredDecodeShapes(t *testing.T) {
	diags := []string{
		`{"candidates":[[1]],"healthy":[0],"unobserved":[2,3]}`,
		`{"candidates":[[1]],"healthy":[0]}`,
		`{"candidates":[[1]],"unobserved":[2,3]}`,
		`{"candidates":[[1]],"unobserved":null}`,
		`{"candidates":[[1]],"unobserved":[ 2, 3 ]}`,
		`{"candidates":[[1]],"unobserved":[]}`,
		`{"unobserved":[2,3],"candidates":null}`,
	}
	var (
		u     unobservedSet
		lists storedLists
		rows  []string
	)
	for i, d := range diags {
		body := []byte(`{"events":[{"time":1,"kind":"x","diagnosis":` + d + `},{"time":1,"kind":"y"}]}`)
		var plain obsResponse
		if err := json.Unmarshal(body, &plain); err != nil {
			t.Fatal(err)
		}
		kept, err := decodeObsBody(body, &u, &lists)
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		sc := getObsScratch()
		if got := sc.wireKept(kept); !reflect.DeepEqual(got, plain) {
			t.Fatalf("body %d decoded to %+v, encoding/json gives %+v", i, got, plain)
		}
		putObsScratch(sc)
		rows = append(rows, `{"seq":1,"hash":"h","time":1,"kind":"x","diagnosis":`+d+`}`, `{"seq":2,"time":2}`)
	}
	for _, doc := range []string{"[" + strings.Join(rows, ",") + "]", "[]", "null"} {
		var stored storedAudit
		var plain []auditEvent
		if err := json.Unmarshal([]byte(doc), &stored); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(doc), &plain); err != nil {
			t.Fatal(err)
		}
		if len(stored) != len(plain) || len(plain) > 0 && !reflect.DeepEqual([]auditEvent(stored), plain) {
			t.Fatalf("ledger rows %s decoded to %+v, encoding/json gives %+v", doc, stored, plain)
		}
	}
}

// TestUnobservedInterned requires equal unobserved lists of one tenant
// that arrive one after another to share one copy, whatever slice they
// arrived in.
func TestUnobservedInterned(t *testing.T) {
	var u unobservedSet
	a := u.intern([]int{1, 2, 3})
	if b := u.intern([]int{1, 2, 3}); &a[0] != &b[0] {
		t.Fatal("equal lists were kept twice")
	}
	if c := u.intern([]int{1, 2}); &c[0] == &a[0] {
		t.Fatal("a different list shares a copy")
	}
	if u.intern(nil) != nil || u.intern([]int{}) == nil {
		t.Fatal("empty lists did not come back as they were")
	}
}

// TestNetworkReplaceReplaysOldUnobserved revises a scenario whose
// pre-revision diagnosis has a different unobserved list than the new
// network's, then requires both batches to replay byte-identically and
// the audit to read the same: live, after a crash replays the log, and
// after a restart from a compaction snapshot.
func TestNetworkReplaceReplaysOldUnobserved(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Server, *httptest.Server) {
		cfg := walConfig(dir)
		cfg.BuildScenario = revisingBuild
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	s, ts := boot()
	base := "/v1/scenarios/net1"
	doReq(t, http.MethodPut, ts.URL+base, mustJSON(t, lineSpec()))
	// Only connection 0 (nodes 0-2) reports: nodes 3 and 4 are unobserved.
	pre := []byte(`{"batch_id":"pre","time":1,"reports":[{"connection":0,"up":false}]}`)
	_, preBody := doReq(t, http.MethodPost, ts.URL+base+"/observations", pre)
	if !bytes.Contains([]byte(preBody), []byte(`"unobserved":[3,4]`)) {
		t.Fatalf("pre-revision body %s lacks unobserved [3,4]", preBody)
	}
	if resp, body := doReq(t, http.MethodPut, ts.URL+base+"/network", mustJSON(t, wideSpec())); resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %d %s", resp.StatusCode, body)
	}
	// On the 7-node network only connection 2 (nodes 4-6) reports.
	post := []byte(`{"batch_id":"post","time":2,"reports":[{"connection":2,"up":false}]}`)
	_, postBody := doReq(t, http.MethodPost, ts.URL+base+"/observations", post)
	if !bytes.Contains([]byte(postBody), []byte(`"unobserved":[0,1,2,3]`)) {
		t.Fatalf("post-revision body %s lacks unobserved [0,1,2,3]", postBody)
	}
	_, audit := doReq(t, http.MethodGet, ts.URL+base+"/audit", nil)
	events := func(doc string) string {
		var v struct {
			Events json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal([]byte(doc), &v); err != nil {
			t.Fatal(err)
		}
		return string(v.Events)
	}
	check := func(stage string, s *Server, ts *httptest.Server) {
		t.Helper()
		// Each emitted diagnosis is kept once: every ledger row points at
		// its window entry's record.
		tn, _ := s.tenants.Get("net1")
		kept := map[*compactDiagnosis]bool{}
		for _, it := range tn.dedup.entries() {
			for _, ev := range it.entry.events {
				kept[ev.diag] = true
			}
		}
		for _, row := range tn.audit {
			if row.ev.diag != nil && !kept[row.ev.diag] {
				t.Fatalf("%s: audit row %d keeps a diagnosis of its own", stage, row.seq)
			}
		}
		for _, c := range []struct {
			batch []byte
			want  string
		}{{pre, preBody}, {post, postBody}} {
			resp, got := doReq(t, http.MethodPost, ts.URL+base+"/observations", c.batch)
			if resp.Header.Get("Placemond-Replayed") != "true" || got != c.want {
				t.Fatalf("%s: replay of %s (replayed %q):\n got %s\nwant %s", stage, c.batch,
					resp.Header.Get("Placemond-Replayed"), got, c.want)
			}
		}
		if _, got := doReq(t, http.MethodGet, ts.URL+base+"/audit", nil); events(got) != events(audit) {
			t.Fatalf("%s: audit events\n got %s\nwant %s", stage, events(got), events(audit))
		}
	}
	check("live", s, ts)
	ts.Close()
	s.Abort()

	s, ts = boot()
	check("after a crash", s, ts)
	s.compactWAL()
	ts.Close()
	s.Abort()

	s, ts = boot()
	defer func() { ts.Close(); s.Abort() }()
	check("after a restart from the snapshot", s, ts)
}
