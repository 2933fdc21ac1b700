package oploop

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/topology"
)

func tiscaliSetup(t testing.TB, algo string) (*routing.Router, []netsim.Pair) {
	t.Helper()
	topo := topology.MustBuild(topology.Tiscali)
	router, err := routing.New(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]placement.Service, 3)
	for s := range services {
		services[s] = placement.Service{Name: "svc", Clients: topo.CandidateClients[3*s : 3*s+3]}
	}
	inst, err := placement.NewInstance(router, services, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := placement.NewDistinguishability(1)
	if err != nil {
		t.Fatal(err)
	}
	var pl placement.Placement
	switch algo {
	case "gd":
		res, err := placement.Run(context.Background(), inst, obj, placement.Options{Engine: placement.Eager})
		if err != nil {
			t.Fatal(err)
		}
		pl = res.Placement
	case "qos":
		res, err := placement.QoS(inst, obj)
		if err != nil {
			t.Fatal(err)
		}
		pl = res.Placement
	default:
		t.Fatalf("unknown algo %q", algo)
	}
	seen := map[netsim.Pair]bool{}
	var conns []netsim.Pair
	for s, h := range pl.Hosts {
		for _, c := range services[s].Clients {
			p := netsim.Pair{Client: c, Host: h}
			if !seen[p] {
				seen[p] = true
				conns = append(conns, p)
			}
		}
	}
	return router, conns
}

func TestRunValidation(t *testing.T) {
	router, conns := tiscaliSetup(t, "gd")
	if _, err := Run(nil, conns, Config{ProbePeriod: 1}); err == nil {
		t.Fatal("nil router should error")
	}
	if _, err := Run(router, nil, Config{ProbePeriod: 1}); err == nil {
		t.Fatal("no connections should error")
	}
	if _, err := Run(router, conns, Config{ProbePeriod: 0}); err == nil {
		t.Fatal("zero probe period should error")
	}
	if _, err := Run(router, conns, Config{ProbePeriod: 1, MTBF: -1}); err == nil {
		t.Fatal("bad failure model should propagate")
	}
}

func TestRunProducesEpisodes(t *testing.T) {
	router, conns := tiscaliSetup(t, "gd")
	out, err := Run(router, conns, Config{
		ProbePeriod: 5,
		Horizon:     2000,
		MTBF:        800,
		MTTR:        60,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Episodes) == 0 {
		t.Fatal("expected failure episodes over a long horizon")
	}
	if out.Covered == 0 {
		t.Fatal("placement should cover nodes")
	}
	for _, ep := range out.Episodes {
		if ep.End <= ep.Start {
			t.Fatalf("degenerate episode %+v", ep)
		}
		if ep.Detected && ep.DetectionDelay < 0 {
			t.Fatalf("negative detection delay %+v", ep)
		}
		if ep.Detected && ep.DetectionDelay > 60+5 {
			t.Fatalf("detection after episode end: %+v", ep)
		}
		if ep.Pinpointed && !ep.Diagnosed {
			t.Fatalf("pinpointed but not diagnosed: %+v", ep)
		}
	}
	// Statistical sanity over this seed: rates are in [0, 1] and
	// consistent with each other.
	if out.DetectionRate() < 0 || out.DetectionRate() > 1 {
		t.Fatalf("detection rate %v", out.DetectionRate())
	}
	if out.PinpointRate() > out.DetectionRate() {
		t.Fatal("cannot pinpoint more episodes than detected")
	}
}

func TestDetectionDelayBoundedByProbePeriod(t *testing.T) {
	// With probing every p units and long episodes, detection happens at
	// the first probe round after the failure: delay < p + RTT slack.
	router, conns := tiscaliSetup(t, "gd")
	out, err := Run(router, conns, Config{
		ProbePeriod: 10,
		Horizon:     3000,
		MTBF:        700,
		MTTR:        100, // ≫ probe period
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range out.Episodes {
		if ep.Detected && ep.DetectionDelay > 10+2 {
			t.Fatalf("delay %v exceeds probe period + RTT slack: %+v", ep.DetectionDelay, ep)
		}
	}
}

func TestGDDetectsAtLeastAsManyAsQoS(t *testing.T) {
	cfg := Config{ProbePeriod: 5, Horizon: 4000, MTBF: 500, MTTR: 80, Seed: 11}
	routerGD, connsGD := tiscaliSetup(t, "gd")
	gd, err := Run(routerGD, connsGD, cfg)
	if err != nil {
		t.Fatal(err)
	}
	routerQoS, connsQoS := tiscaliSetup(t, "qos")
	qos, err := Run(routerQoS, connsQoS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same failure trace (same topology size and seed). The GD placement
	// covers at least as much, so it should detect and pinpoint at least
	// as well on aggregate.
	if gd.Covered < qos.Covered {
		t.Fatalf("GD covers %d < QoS %d", gd.Covered, qos.Covered)
	}
	if gd.DetectionRate() < qos.DetectionRate() {
		t.Fatalf("GD detection %v below QoS %v", gd.DetectionRate(), qos.DetectionRate())
	}
	if gd.PinpointRate() < qos.PinpointRate() {
		t.Fatalf("GD pinpoint %v below QoS %v", gd.PinpointRate(), qos.PinpointRate())
	}
}

func TestOutcomeZeroValues(t *testing.T) {
	var o Outcome
	if o.DetectionRate() != 0 || o.PinpointRate() != 0 {
		t.Fatal("empty outcome rates should be 0")
	}
	if o.MeanDetectionDelay() != -1 {
		t.Fatal("no detections should yield -1 delay")
	}
	var _ graph.NodeID = 0
}
