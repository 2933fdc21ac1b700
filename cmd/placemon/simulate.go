package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/failmodel"
	"repro/internal/graph"
	"repro/internal/monitord"
	"repro/internal/netsim"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/topology"
)

// cmdSimulate runs the full operational loop: build a topology, place
// services, generate a failure/recovery schedule, probe every client-host
// connection periodically through the discrete-event simulator, and feed
// the binary outcomes to the online monitoring daemon, printing its
// detection/diagnosis timeline.
func cmdSimulate(args []string) error {
	fs := newFlagSet("simulate")
	topoName := fs.String("topology", "Abovenet", "built-in topology name")
	numServices := fs.Int("services", 3, "number of services")
	alpha := fs.Float64("alpha", 0.6, "QoS slack α in [0, 1]")
	horizon := fs.Float64("horizon", 200, "virtual time horizon")
	probeEvery := fs.Float64("probe", 10, "probe round period")
	mtbf := fs.Float64("mtbf", 400, "mean time between failures per node")
	mttr := fs.Float64("mttr", 30, "mean time to recovery")
	k := fs.Int("k", 1, "failure budget for diagnosis (also caps concurrent failures)")
	seed := fs.Int64("seed", 1, "failure schedule seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// 1. Topology, routing, services (round-robin clients).
	spec, err := topology.ByName(*topoName)
	if err != nil {
		return err
	}
	topo, err := topology.Build(spec)
	if err != nil {
		return err
	}
	router, err := routing.New(topo.Graph)
	if err != nil {
		return err
	}
	services := make([]placement.Service, *numServices)
	pool := topo.CandidateClients
	next := 0
	for s := range services {
		clients := make([]graph.NodeID, 0, 3)
		seen := map[graph.NodeID]bool{}
		for len(clients) < 3 && len(seen) < len(pool) {
			c := pool[next%len(pool)]
			next++
			if !seen[c] {
				seen[c] = true
				clients = append(clients, c)
			}
		}
		services[s] = placement.Service{Name: fmt.Sprintf("svc-%d", s), Clients: clients}
	}

	// 2. Monitoring-aware placement (GD).
	inst, err := placement.NewInstance(router, services, *alpha)
	if err != nil {
		return err
	}
	obj, err := placement.NewDistinguishability(1)
	if err != nil {
		return err
	}
	res, err := placement.Run(context.Background(), inst, obj, placement.Options{Engine: placement.Eager})
	if err != nil {
		return err
	}
	fmt.Printf("placement (GD, α=%g): hosts %v\n", *alpha, res.Placement.Hosts)

	// 3. Failure schedule, capped at the design budget k.
	schedule, err := failmodel.Generate(failmodel.Config{
		NumNodes:      topo.Graph.NumNodes(),
		MTBF:          *mtbf,
		MTTR:          *mttr,
		Horizon:       *horizon,
		MaxConcurrent: *k,
		Seed:          *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("failure schedule: %d transitions over horizon %g\n\n", len(schedule), *horizon)

	// 4. Discrete-event simulation: schedule failures/recoveries and
	// periodic probe rounds for every connection.
	sim, err := netsim.New(router, 0.01)
	if err != nil {
		return err
	}
	for _, e := range schedule {
		if e.Down {
			err = sim.FailAt(e.Time, e.Node)
		} else {
			err = sim.RecoverAt(e.Time, e.Node)
		}
		if err != nil {
			return err
		}
	}
	type connKey struct{ client, host graph.NodeID }
	connIndex := map[connKey]int{}
	var connPaths []netsim.Pair
	for s, h := range res.Placement.Hosts {
		for _, c := range services[s].Clients {
			key := connKey{client: c, host: h}
			if _, ok := connIndex[key]; !ok {
				connIndex[key] = len(connPaths)
				connPaths = append(connPaths, netsim.Pair{Client: c, Host: h})
			}
		}
	}
	for t := 0.0; t <= *horizon; t += *probeEvery {
		for _, p := range connPaths {
			if err := sim.RequestAt(t, p.Client, p.Host); err != nil {
				return err
			}
		}
	}
	outcomes, err := sim.Run()
	if err != nil {
		return err
	}

	// 5. Online monitoring daemon over the outcome stream.
	daemon, err := newDaemon(router, connPaths, *k)
	if err != nil {
		return err
	}

	sort.SliceStable(outcomes, func(i, j int) bool { return outcomes[i].End < outcomes[j].End })
	eventCount := 0
	for _, o := range outcomes {
		idx := connIndex[connKey{client: o.Client, host: o.Host}]
		repStart := time.Now()
		events, err := daemon.Report(o.End, idx, o.Success)
		if err != nil {
			return err
		}
		if d := time.Since(repStart); slowRequest > 0 && d >= slowRequest {
			logger.Warn("slow diagnosis",
				"connection", idx, "virtual_time", o.End,
				"duration", d.Round(time.Millisecond), "threshold", slowRequest)
		}
		for _, ev := range events {
			eventCount++
			fmt.Printf("t=%7.2f  %-18s", ev.Time, ev.Kind)
			if ev.Diagnosis != nil {
				fmt.Printf("  candidates %v", ev.Diagnosis.Consistent)
			}
			fmt.Println()
		}
	}
	fmt.Printf("\n%d monitoring events over %d request outcomes\n", eventCount, len(outcomes))
	return nil
}

// newDaemon builds a monitord.Monitor from routed connection pairs.
func newDaemon(router *routing.Router, conns []netsim.Pair, k int) (*monitord.Monitor, error) {
	paths := make([]*bitset.Set, 0, len(conns))
	for _, c := range conns {
		p, err := router.Path(c.Client, c.Host)
		if err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return monitord.New(router.NumNodes(), k, paths)
}
