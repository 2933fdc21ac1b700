package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	placemon "repro"
)

// writePlacement computes a small greedy placement on Abovenet and saves
// it the way `placemon place -o` would.
func writePlacement(t *testing.T) string {
	t.Helper()
	nw, err := placemon.BuildTopology("Abovenet")
	if err != nil {
		t.Fatal(err)
	}
	clients := nw.SuggestedClients()
	services := []placemon.Service{{Name: "svc", Clients: clients[:2]}}
	res, err := nw.Place(services, placemon.PlaceConfig{Alpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "placement.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc := placemon.NewPlacementFile("Abovenet", 0.6, services, res.Hosts)
	if err := placemon.SavePlacement(f, doc); err != nil {
		t.Fatal(err)
	}
	return path
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func TestFlagValidation(t *testing.T) {
	if _, err := parseFlags(nil); err == nil {
		t.Errorf("missing -placement accepted")
	}
	if _, err := parseFlags([]string{"-placement", "x.json", "-bogus"}); err == nil {
		t.Errorf("unknown flag accepted")
	}
	if _, err := parseFlags([]string{"-placement", "x.json", "-log-level", "shout"}); err == nil {
		t.Errorf("bogus -log-level accepted")
	}
}

// TestObservabilityFlags: the tracing/logging knobs parse and default
// sanely.
func TestObservabilityFlags(t *testing.T) {
	o, err := parseFlags([]string{"-placement", "x.json"})
	if err != nil {
		t.Fatal(err)
	}
	if o.logLevel != "info" {
		t.Errorf("default -log-level = %q, want info", o.logLevel)
	}
	if o.slowRequest != time.Second {
		t.Errorf("default -slow-request = %v, want 1s", o.slowRequest)
	}
	if o.traceBuffer != 64 {
		t.Errorf("default -trace-buffer = %d, want 64", o.traceBuffer)
	}
	o, err = parseFlags([]string{"-placement", "x.json",
		"-log-level", "DEBUG", "-slow-request", "250ms", "-trace-buffer", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.logLevel != "DEBUG" || o.slowRequest != 250*time.Millisecond || o.traceBuffer != -1 {
		t.Errorf("parsed observability flags = %q %v %d", o.logLevel, o.slowRequest, o.traceBuffer)
	}
}

func TestBuildServerErrors(t *testing.T) {
	if _, err := buildServer(&options{placementFile: "/does/not/exist.json"}, quietLogger()); err == nil {
		t.Errorf("missing placement file accepted")
	}
	// A placement that names no topology needs -topology or -graph.
	path := filepath.Join(t.TempDir(), "anon.json")
	doc := placemon.PlacementFile{
		Alpha:    0.5,
		Services: []placemon.ServiceRecord{{Clients: []int{0}}},
		Hosts:    []int{0},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := placemon.SavePlacement(f, doc); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := buildServer(&options{placementFile: path}, quietLogger()); err == nil {
		t.Errorf("anonymous placement without -topology accepted")
	}
	if _, err := buildServer(&options{placementFile: path, topology: "NoSuchISP"}, quietLogger()); err == nil {
		t.Errorf("unknown topology accepted")
	}
}

// TestServeLifecycle boots the daemon on a loopback port, checks the API
// answers, and verifies SIGINT-style cancellation drains cleanly.
func TestServeLifecycle(t *testing.T) {
	placement := writePlacement(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // run re-listens on the now-free port

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-placement", placement, "-addr", addr}, io.Discard)
	}()

	// Wait for the daemon to come up.
	url := "http://" + addr
	var resp *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	if health["connections"] != float64(2) {
		t.Fatalf("connections = %v, want 2", health["connections"])
	}

	// One observation round-trips through the real TCP stack.
	resp, err = http.Post(url+"/v1/observations", "application/json",
		strings.NewReader(`{"time": 1, "reports": [{"connection": 0, "up": true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon did not drain after cancellation")
	}
}

// TestResilienceFlags: the retry/dedup knobs parse and default sanely.
func TestResilienceFlags(t *testing.T) {
	o, err := parseFlags([]string{"-placement", "x.json"})
	if err != nil {
		t.Fatal(err)
	}
	if o.dedupWindow != 1024 {
		t.Errorf("default -dedup-window = %d, want 1024", o.dedupWindow)
	}

	o, err = parseFlags([]string{"-placement", "x.json", "-dedup-window", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.dedupWindow != -1 {
		t.Errorf("-dedup-window -1 parsed as %d", o.dedupWindow)
	}
	if _, err := parseFlags([]string{"-placement", "x.json", "-dedup-window", "many"}); err == nil {
		t.Errorf("non-numeric -dedup-window accepted")
	}
}

// TestScenarioFlags: -wal-dir lifts the -placement requirement and the
// multi-tenant knobs parse.
func TestScenarioFlags(t *testing.T) {
	o, err := parseFlags([]string{"-wal-dir", "/tmp/wal"})
	if err != nil {
		t.Fatalf("-wal-dir without -placement rejected: %v", err)
	}
	if o.walDir != "/tmp/wal" || o.maxScenarios != 0 || o.maxScenarioJobs != 0 {
		t.Errorf("scenario flag defaults = %q %d %d", o.walDir, o.maxScenarios, o.maxScenarioJobs)
	}
	o, err = parseFlags([]string{"-placement", "x.json",
		"-wal-dir", "s", "-max-scenarios", "3", "-max-jobs-per-scenario", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.maxScenarios != 3 || o.maxScenarioJobs != 2 {
		t.Errorf("scenario caps parsed as %d %d", o.maxScenarios, o.maxScenarioJobs)
	}
}

// waitHealthz polls the daemon until it answers, returning the last
// healthz body.
func waitHealthz(t *testing.T, url string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			var health map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return health
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScenarioOnlyDaemonLifecycle boots a scenario-only daemon, creates
// a scenario over the wire, restarts the daemon on the same directory,
// and checks the scenario survived.
func TestScenarioOnlyDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // run re-listens on the now-free port
	url := "http://" + addr
	args := []string{"-wal-dir", dir, "-addr", addr}

	boot := func() (context.CancelFunc, chan error) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- run(ctx, args, io.Discard) }()
		return cancel, done
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after graceful drain", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("daemon did not drain after cancellation")
		}
	}

	cancel, done := boot()
	if health := waitHealthz(t, url); health["scenarios"] != float64(0) {
		t.Fatalf("fresh scenario-only healthz = %v", health)
	}
	// Legacy routes 404 without a default scenario.
	resp, err := http.Get(url + "/v1/diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy diagnosis on scenario-only daemon = %d, want 404", resp.StatusCode)
	}

	spec := `{"nodes": 5, "edges": [[0,1],[1,2],[2,3],[3,4]],
		"placement": {"alpha": 1, "services": [{"clients": [0,4]}], "hosts": [2]}}`
	req, err := http.NewRequest(http.MethodPut, url+"/v1/scenarios/edge", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("scenario create over the wire = %d", resp.StatusCode)
	}
	stop(cancel, done)

	// Reboot on the same directory: the scenario is recovered and serves.
	cancel, done = boot()
	defer stop(cancel, done)
	if health := waitHealthz(t, url); health["scenarios"] != float64(1) {
		t.Fatalf("rebooted healthz = %v, want 1 scenario", health)
	}
	resp, err = http.Post(url+"/v1/scenarios/edge/observations", "application/json",
		strings.NewReader(`{"time": 1, "reports": [{"connection": 0, "up": false}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reloaded scenario ingest = %d", resp.StatusCode)
	}
}
