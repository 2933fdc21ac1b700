package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	placemon "repro"
)

// commonFlags are shared by the placement-driving subcommands.
type commonFlags struct {
	topology string
	services int
	clients  string
	alpha    float64
}

func cmdTopos(args []string) error {
	fs := newFlagSet("topos")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-10s %8s %8s %10s\n", "ISP", "#nodes", "#links", "#clients")
	for _, name := range placemon.TopologyNames() {
		nw, err := placemon.BuildTopology(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %8d %8d %10d\n", name, nw.NumNodes(), nw.NumLinks(), len(nw.SuggestedClients()))
	}
	return nil
}

func cmdCandidates(args []string) error {
	fs := newFlagSet("candidates")
	topo := fs.String("topology", "Abovenet", "built-in topology name")
	clients := fs.String("clients", "", "comma-separated client node IDs (default: first 3 suggested)")
	alpha := fs.Float64("alpha", 0.5, "QoS slack α in [0, 1]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nw, err := placemon.BuildTopology(*topo)
	if err != nil {
		return err
	}
	cs, err := clientList(nw, *clients, 3)
	if err != nil {
		return err
	}
	hosts, err := nw.CandidateHosts(cs, *alpha)
	if err != nil {
		return err
	}
	fmt.Printf("topology %s, clients %v, α = %g\n", *topo, cs, *alpha)
	fmt.Printf("candidate hosts (%d): %v\n", len(hosts), hosts)
	return nil
}

func cmdPlace(args []string) error {
	fs := newFlagSet("place")
	cf, addCommon := commonFlagSet(fs)
	objective := fs.String("objective", "distinguishability", "coverage | identifiability | distinguishability")
	algorithm := fs.String("algorithm", "",
		"lazy | greedy | greedy+ls | qos | random | bruteforce | branchbound"+
			" (default: lazy for submodular objectives, greedy otherwise; identical placements)")
	seed := fs.Int64("seed", 1, "seed for the random algorithm")
	out := fs.String("o", "", "save the placement as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addCommon()
	nw, services, err := buildWorkload(cf)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := nw.Place(services, placemon.PlaceConfig{
		Alpha:     cf.alpha,
		Objective: placemon.ObjectiveKind(*objective),
		Algorithm: placemon.Algorithm(*algorithm),
		Seed:      *seed,
		Progress: func(r placemon.RoundProgress) {
			logger.Debug("placement round",
				"round", r.Round, "service", r.Service, "host", r.Host,
				"gain", r.Gain, "candidates", r.Candidates,
				"evaluations", r.Evaluations, "duration", r.Duration)
		},
	})
	if err != nil {
		return err
	}
	if d := time.Since(start); slowRequest > 0 && d >= slowRequest {
		logger.Warn("slow placement",
			"duration", d.Round(time.Millisecond),
			"threshold", slowRequest, "evaluations", res.Evaluations)
	}
	printResult(nw, services, res)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		doc := placemon.NewPlacementFile(cf.topology, cf.alpha, services, res.Hosts)
		if err := placemon.SavePlacement(f, doc); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("placement saved to %s\n", *out)
	}
	return nil
}

func cmdLocalize(args []string) error {
	fs := newFlagSet("localize")
	cf, addCommon := commonFlagSet(fs)
	failNodes := fs.String("fail", "", "comma-separated node IDs to fail (required)")
	k := fs.Int("k", 1, "failure budget for localization")
	placementFile := fs.String("placement", "", "reuse a placement saved by `place -o` instead of recomputing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addCommon()
	if *failNodes == "" {
		return fmt.Errorf("localize: -fail is required")
	}
	failed, err := parseInts(*failNodes)
	if err != nil {
		return err
	}

	var (
		nw       *placemon.Network
		services []placemon.Service
		res      *placemon.Result
	)
	if *placementFile != "" {
		f, err := os.Open(*placementFile)
		if err != nil {
			return err
		}
		doc, derr := placemon.LoadPlacement(f)
		f.Close()
		if derr != nil {
			return derr
		}
		if doc.Topology != "" {
			cf.topology = doc.Topology
		}
		cf.alpha = doc.Alpha
		nw, err = placemon.BuildTopology(cf.topology)
		if err != nil {
			return err
		}
		if err := doc.Validate(nw); err != nil {
			return err
		}
		services = doc.ToServices()
		res, err = nw.Evaluate(services, doc.Hosts, doc.Alpha)
		if err != nil {
			return err
		}
	} else {
		nw, services, err = buildWorkload(cf)
		if err != nil {
			return err
		}
		res, err = nw.Place(services, placemon.PlaceConfig{Alpha: cf.alpha})
		if err != nil {
			return err
		}
	}
	printResult(nw, services, res)

	obs, err := nw.Observe(services, res.Hosts, cf.alpha, failed)
	if err != nil {
		return err
	}
	down := 0
	for _, f := range obs.Failed {
		if f {
			down++
		}
	}
	fmt.Printf("\ninjected failures: %v → %d/%d connections down\n", failed, down, len(obs.Failed))

	start := time.Now()
	diag, err := nw.Localize(obs, *k)
	if err != nil {
		return err
	}
	if d := time.Since(start); slowRequest > 0 && d >= slowRequest {
		logger.Warn("slow diagnosis",
			"duration", d.Round(time.Millisecond), "threshold", slowRequest, "k", *k)
	}
	fmt.Printf("diagnosis (k = %d):\n", *k)
	fmt.Printf("  candidates:        %v\n", diag.Candidates)
	fmt.Printf("  definitely failed: %v\n", diag.DefinitelyFailed)
	fmt.Printf("  possibly failed:   %v\n", diag.PossiblyFailed)
	fmt.Printf("  greedy explanation: %v\n", diag.GreedyExplanation)
	fmt.Printf("  ambiguity:         %d\n", diag.Ambiguity())
	return nil
}

func commonFlagSet(fs *flag.FlagSet) (*commonFlags, func()) {
	cf := &commonFlags{}
	topo := fs.String("topology", "Abovenet", "built-in topology name")
	services := fs.Int("services", 3, "number of services (clients assigned round-robin)")
	clients := fs.String("clients", "", "client sets: per-service comma lists joined by '/', e.g. 1,2/3,4")
	alpha := fs.Float64("alpha", 0.5, "QoS slack α in [0, 1]")
	return cf, func() {
		cf.topology = *topo
		cf.services = *services
		cf.clients = *clients
		cf.alpha = *alpha
	}
}

func buildWorkload(cf *commonFlags) (*placemon.Network, []placemon.Service, error) {
	nw, err := placemon.BuildTopology(cf.topology)
	if err != nil {
		return nil, nil, err
	}
	var services []placemon.Service
	if cf.clients != "" {
		for i, group := range strings.Split(cf.clients, "/") {
			cs, err := parseInts(group)
			if err != nil {
				return nil, nil, fmt.Errorf("service %d clients: %w", i, err)
			}
			services = append(services, placemon.Service{Name: fmt.Sprintf("s%d", i), Clients: cs})
		}
	} else {
		pool := nw.SuggestedClients()
		if len(pool) == 0 {
			return nil, nil, fmt.Errorf("topology has no suggested clients; use -clients")
		}
		next := 0
		for s := 0; s < cf.services; s++ {
			cs := make([]int, 0, 3)
			seen := map[int]bool{}
			for len(cs) < 3 && len(seen) < len(pool) {
				c := pool[next%len(pool)]
				next++
				if !seen[c] {
					seen[c] = true
					cs = append(cs, c)
				}
			}
			services = append(services, placemon.Service{Name: fmt.Sprintf("s%d", s), Clients: cs})
		}
	}
	return nw, services, nil
}

func printResult(nw *placemon.Network, services []placemon.Service, res *placemon.Result) {
	fmt.Printf("placement (α-feasible, objective value %.1f, %d evaluations):\n", res.Objective, res.Evaluations)
	for s, h := range res.Hosts {
		fmt.Printf("  %-8s clients %v → host %d (%s)\n", services[s].Name, services[s].Clients, h, nw.NodeLabel(h))
	}
	fmt.Printf("metrics: coverage %d/%d, 1-identifiable %d, distinguishable pairs %d, worst d̄ %.2f\n",
		res.Coverage, nw.NumNodes(), res.Identifiable, res.Distinguishable, res.WorstRelativeDistance)
}

func clientList(nw *placemon.Network, spec string, fallback int) ([]int, error) {
	if spec != "" {
		return parseInts(spec)
	}
	pool := nw.SuggestedClients()
	if len(pool) < fallback {
		fallback = len(pool)
	}
	if fallback == 0 {
		return nil, fmt.Errorf("no clients available; use -clients")
	}
	return pool[:fallback], nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list %q", s)
	}
	return out, nil
}
