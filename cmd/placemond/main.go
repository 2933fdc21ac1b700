// Command placemond is the network-facing monitoring service: it hosts
// one or many monitoring scenarios — each a topology plus a deployed
// placement (the JSON document `placemon place -o` writes) — and serves
// the monitoring API over HTTP until SIGINT/SIGTERM, then drains
// gracefully.
//
//	placemond -placement placement.json -addr :8080
//	placemond -wal-dir /var/lib/placemond/wal -addr :8080
//
// With -placement the document, on the network -graph, -topology or the
// document itself names, seeds the "default" scenario that the classic
// single-scenario routes address. From then on it is an ordinary
// scenario: logged, migrated, revised over PUT /v1/scenarios/default/network
// and deleted like any other. Further scenarios are created dynamically
// over PUT /v1/scenarios/{id}; without -wal-dir they last for the life of
// the process. With -wal-dir (usable with or without -placement) the
// daemon persists its full mutable state through a write-ahead log:
// every mutation is durable before its response is acknowledged, boot
// replays snapshot + log tail, and a WAL write failure flips the daemon
// read-only (503 + Placemond-Read-Only) instead of crashing it. A log
// that already holds "default" must hold the -placement document, or the
// daemon refuses to boot; start without -placement to serve the logged
// one. Tune durability with -wal-sync (always, or its alias group | none) and
// rotation with -wal-segment-bytes; inspect a log offline with
// `placemon fsck`.
//
// With -node-id and -peers the daemon joins a static cluster: scenario
// ownership is decided by a consistent-hash ring over the shared peer
// list, non-owners answer 307 to the owner (or proxy with
// -cluster-proxy), and scenarios move between nodes through the
// WAL-fenced POST /v1/scenarios/{id}/migrate. See ARCHITECTURE.md's
// "Cluster mode" section.
//
// Endpoints: POST /v1/observations, GET /v1/diagnosis,
// POST /v1/placements, GET /healthz, GET /metrics, GET /debug/traces,
// the scenario API under /v1/scenarios, and (with -pprof)
// GET /debug/pprof/*. See internal/server for the wire formats.
//
// Logs are structured (log/slog) and every request line carries the
// request's trace ID; tune verbosity with -log-level and slow-request
// warnings with -slow-request.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	placemon "repro"
	"repro/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "placemond:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	addr            string
	topology        string
	graphFile       string
	placementFile   string
	k               int
	workers         int
	queue           int
	requestTimeout  time.Duration
	drainTimeout    time.Duration
	dedupWindow     int
	logLevel        string
	slowRequest     time.Duration
	traceBuffer     int
	pprof           bool
	maxScenarios    int
	maxScenarioJobs int
	walDir          string
	walSync         string
	walSegmentBytes int64
	nodeID          string
	peers           string
	clusterProxy    bool
	forceAdopt      bool
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("placemond", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.topology, "topology", "", "built-in topology name (default: the placement document's)")
	fs.StringVar(&o.graphFile, "graph", "", "edge-list file for a custom network (overrides -topology)")
	fs.StringVar(&o.placementFile, "placement", "", "placement JSON `file` written by placemon place -o; seeds the \"default\" scenario (optional with -wal-dir)")
	fs.IntVar(&o.k, "k", 1, "failure budget for the rolling diagnosis")
	fs.IntVar(&o.workers, "workers", 0, "placement worker pool size (0 = half the CPUs)")
	fs.IntVar(&o.queue, "queue", 8, "placement queue depth (full queue answers 429)")
	fs.DurationVar(&o.requestTimeout, "request-timeout", 15*time.Second, "per-request timeout")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful shutdown budget")
	fs.IntVar(&o.dedupWindow, "dedup-window", 1024, "batch IDs remembered for idempotent ingest; retried batches replay their original response (-1 disables)")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.DurationVar(&o.slowRequest, "slow-request", time.Second, "latency at which a request logs a warning (-1s disables)")
	fs.IntVar(&o.traceBuffer, "trace-buffer", 64, "request traces retained for GET /debug/traces (-1 disables)")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.IntVar(&o.maxScenarios, "max-scenarios", 0, "concurrently hosted scenario cap (0 = default 64)")
	fs.IntVar(&o.maxScenarioJobs, "max-jobs-per-scenario", 0, "one scenario's queued+running placement job cap (0 = the whole pool, -1 disables)")
	fs.StringVar(&o.walDir, "wal-dir", "", "directory for the write-ahead log persisting all daemon state; mutations are durable before they are acknowledged (empty: scenarios are in-memory only)")
	fs.StringVar(&o.walSync, "wal-sync", "always", "WAL append durability: always or group, two names for one mode (a mutation is acknowledged once an fsync covers it; concurrent writers share the fsync), or none (fsync on rotation/shutdown only)")
	fs.Int64Var(&o.walSegmentBytes, "wal-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 4 MiB)")
	fs.StringVar(&o.nodeID, "node-id", "", "this node's ID in a cluster deployment (requires -peers)")
	fs.StringVar(&o.peers, "peers", "", "static cluster membership as comma-separated id=url entries, identical on every node and including -node-id (requires -node-id)")
	fs.BoolVar(&o.clusterProxy, "cluster-proxy", false, "proxy non-owned scenario requests to the owner instead of answering 307")
	fs.BoolVar(&o.forceAdopt, "force-adopt", false, "boot even when persisted scenarios belong to another cluster node (logs a warning per scenario)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.placementFile == "" && o.walDir == "" {
		return nil, fmt.Errorf("-placement is required (or -wal-dir for a scenario-only daemon)")
	}
	if (o.nodeID == "") != (o.peers == "") {
		return nil, fmt.Errorf("-node-id and -peers must be used together")
	}
	if o.nodeID == "" && (o.clusterProxy || o.forceAdopt) {
		return nil, fmt.Errorf("-cluster-proxy and -force-adopt require cluster mode (-node-id and -peers)")
	}
	if _, err := trace.ParseLevel(o.logLevel); err != nil {
		return nil, fmt.Errorf("-log-level: %v", err)
	}
	return o, nil
}

// newLogger builds the daemon's structured logger at the level the
// options selected (parseFlags already validated it).
func newLogger(o *options, w io.Writer) *slog.Logger {
	level, _ := trace.ParseLevel(o.logLevel)
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

// serverConfig translates the parsed options into the facade's config.
func (o *options) serverConfig(logger *slog.Logger) placemon.ServerConfig {
	return placemon.ServerConfig{
		K:                  o.k,
		Workers:            o.workers,
		QueueDepth:         o.queue,
		RequestTimeout:     o.requestTimeout,
		DrainTimeout:       o.drainTimeout,
		DedupWindow:        o.dedupWindow,
		EnablePprof:        o.pprof,
		Logger:             logger,
		SlowRequest:        o.slowRequest,
		TraceBuffer:        o.traceBuffer,
		MaxScenarios:       o.maxScenarios,
		MaxJobsPerScenario: o.maxScenarioJobs,
		WALDir:             o.walDir,
		WALSync:            o.walSync,
		WALSegmentBytes:    o.walSegmentBytes,
		NodeID:             o.nodeID,
		Peers:              o.peers,
		ClusterProxy:       o.clusterProxy,
		ForceAdopt:         o.forceAdopt,
	}
}

// buildServer assembles the facade server from the parsed options; split
// from run so tests can exercise it without opening sockets. With
// -placement the document seeds the "default" scenario; without it the
// daemon serves what -wal-dir recovers and what is created later.
func buildServer(o *options, logger *slog.Logger) (*placemon.Server, error) {
	if o.placementFile == "" {
		return placemon.NewScenarioServer(o.serverConfig(logger))
	}
	f, err := os.Open(o.placementFile)
	if err != nil {
		return nil, err
	}
	doc, err := placemon.LoadPlacement(f)
	f.Close()
	if err != nil {
		return nil, err
	}

	var nw *placemon.Network
	switch {
	case o.graphFile != "":
		g, err := os.Open(o.graphFile)
		if err != nil {
			return nil, err
		}
		nw, err = placemon.Load(g)
		g.Close()
		if err != nil {
			return nil, err
		}
	case o.topology != "":
		if nw, err = placemon.BuildTopology(o.topology); err != nil {
			return nil, err
		}
	case doc.Topology != "":
		if nw, err = placemon.BuildTopology(doc.Topology); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("no network: the placement names no topology, and neither -topology nor -graph was given")
	}
	return placemon.NewServer(nw, doc, o.serverConfig(logger))
}

func run(ctx context.Context, args []string, logOut io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	logger := newLogger(o, logOut)
	srv, err := buildServer(o, logger)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		srv.Close()
		return err
	}
	logger.Info("serving",
		"addr", ln.Addr().String(),
		"scenarios", len(srv.Scenarios()),
		"connections", len(srv.Connections()),
		"wal_dir", o.walDir,
		"k", o.k,
		"log_level", o.logLevel,
		"slow_request", o.slowRequest)
	err = srv.Serve(ctx, ln)
	logger.Info("drained, exiting")
	return err
}
