package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	placemon "repro"
	"repro/placemonclient"
)

// The replan workload: one in-memory daemon hosting a ~5,000-node
// scenario (8 services × 10 clients, α 0.3, the facade's default objective
// and engine) and two small tenants shaped like observe's. An operator on
// one connection runs open loop at a fixed cadence: in every one-second
// window of the load phase it is due to POST …/placements, then PUT
// …/network (the base network plus a new one-link delta), then read the
// placement the PUT left. A 40 batches/s open loop on the other connection
// feeds the small tenants, so the placement jobs and the tenants' acks
// share the two cores. Every run does the same placement work, so
// cpu_us_per_op grows with the CPU a placement or re-placement takes, and
// the small tenants' acks see the same, bounded interference. It bypasses
// the WAL and the cluster.
const (
	replanRate  = 40.0
	replanSmall = 2
	// placeAt, replaceAt and readAt are when in its window each operator
	// call is due. Each leaves the job before it room to finish: on the
	// 2-vCPU reference host a placement took 0.09 s (p99 0.12 s) and a
	// re-placement 0.26 s (p99 0.33 s).
	placeAt   = 50 * time.Millisecond
	replaceAt = 300 * time.Millisecond
	readAt    = 800 * time.Millisecond
)

func runReplan(e *env) (*pass, error) {
	large, err := newTenant("plan", replanShape, topologySeed("plan"))
	if err != nil {
		return nil, err
	}
	tenants := []*tenant{large}
	for i := range replanSmall {
		id := fmt.Sprintf("small-%d", i)
		t, err := newTenant(id, observeShape, topologySeed(id))
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, t)
	}
	windows := loadWindows(e.seconds, loadFactor)
	offsets := schedule(replanRate, float64(windows), subSeed(e.seed, "schedule"))
	batchOps := make([]*op, len(offsets))
	counts := make([]int, len(tenants))
	for i, off := range offsets {
		o := &op{due: off, kind: opIngest, tenant: 1 + i%replanSmall}
		o.batch = counts[o.tenant]
		counts[o.tenant]++
		batchOps[i] = o
	}
	batches := make([][]batch, len(tenants))
	for i, t := range tenants[1:] {
		batches[i+1] = t.batches(counts[i+1], subSeed(e.seed, "batches-"+t.id))
	}
	// networks[0] is the base network; window k places on networks[k] and
	// its PUT installs networks[k+1], the base plus the (k+1)-th delta.
	deltaRng := rand.New(rand.NewSource(subSeed(e.seed, "deltas")))
	networks := [][][2]int{large.edges}
	var opOps []*op
	for k := range windows {
		networks = append(networks, large.delta(deltaRng))
		w := time.Duration(k) * time.Second
		opOps = append(opOps,
			&op{kind: opPlace, due: w + placeAt, net: k},
			&op{kind: opReplace, due: w + replaceAt, net: k + 1},
			&op{kind: opDiagnosis, due: w + readAt, net: k + 1})
	}

	p := &pass{traced: e.traced, ops: append(batchOps, opOps...), operations: map[string]float64{}, layers: map[string]float64{}}
	var d *daemon
	err = p.timeSetups(func(int) (func() error, error) {
		var err error
		if d, err = startNode(e.daemonBin, tenants, traceBuffer(e.traced, len(p.ops))); err != nil {
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	operator, err := newSender(d.url, e.traced)
	if err != nil {
		return nil, err
	}
	feeder, err := newSender(d.url, e.traced)
	if err != nil {
		return nil, err
	}
	if err := prime([]*sender{feeder}, tenants[1:]); err != nil {
		return nil, err
	}
	err = p.measureLoad([]*daemon{d}, e.seconds, loadFactor, func(start time.Time) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runOpen(start, []*sender{operator}, opOps, operatorCall(large, networks))
		}()
		runOpen(start, []*sender{feeder}, batchOps, callOp(tenants, batches))
		wg.Wait()
	})
	if err != nil {
		return nil, err
	}

	models := make([]*model, len(tenants))
	for i, t := range tenants[1:] {
		models[i+1] = newModel(t)
	}
	for _, o := range batchOps {
		var err error
		if o.err == nil {
			err = models[o.tenant].checkIngest(batches[o.tenant][o.batch], o.ingest)
		}
		finishOp(o, err)
	}
	// Every placement the daemon returns for a POST, and every one a PUT
	// leaves, must equal the facade's cold placement on the same network.
	cold := map[int][]int{}
	var coldTimes []float64
	for _, o := range opOps {
		if _, ok := cold[o.net]; ok || o.err != nil || o.kind == opReplace {
			continue
		}
		t0 := time.Now()
		nw, err := buildNetwork(large.numNodes, networks[o.net])
		if err != nil {
			return nil, err
		}
		res, err := nw.Place(large.services, placemon.PlaceConfig{Alpha: large.alpha})
		if err != nil {
			return nil, err
		}
		coldTimes = append(coldTimes, since(t0))
		cold[o.net] = res.Hosts
	}
	for _, o := range opOps {
		var err error
		if o.err == nil && o.kind != opReplace {
			var got []int
			if o.kind == opPlace {
				got = o.place.Hosts
			} else {
				got, err = placedHosts(o.diag, large)
			}
			if err == nil && !slices.Equal(got, cold[o.net]) {
				err = fmt.Errorf("placement %v on network %d, the facade's cold placement %v", got, o.net, cold[o.net])
			}
		}
		finishOp(o, err)
	}
	admin, err := adminClient(d.url)
	if err != nil {
		return nil, err
	}
	for i, t := range tenants[1:] {
		got, err := getDiagnosis(admin, t.id)
		if err == nil {
			err = models[i+1].checkDiagnosis(got)
		}
		p.addCheck("final diagnosis "+t.id, err)
	}

	var specTimes []float64
	for range 3 {
		t0 := time.Now()
		sp, err := placemon.ParseScenarioSpec(large.spec)
		if err == nil {
			_, err = sp.Network()
		}
		if err != nil {
			return nil, err
		}
		specTimes = append(specTimes, since(t0))
	}
	p.layers["placement.cold_place_s"] = median(coldTimes)
	p.layers["placemon.spec_build_s"] = median(specTimes)
	p.operations["place_s"] = median(p.latencies(opPlace, false)) / 1e3
	p.operations["replace_s"] = median(p.latencies(opReplace, false)) / 1e3
	if e.traced {
		if p.entry, err = fetchTraces(d.url); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// operatorCall is the operator's call for an op: a placement job for the
// large scenario's services, a PUT of a revised network, or a read of the
// scenario's diagnosis.
func operatorCall(large *tenant, networks [][][2]int) func(context.Context, *placemonclient.Client, *op) error {
	return func(ctx context.Context, c *placemonclient.Client, o *op) error {
		sc := c.Scenario(large.id)
		var err error
		switch o.kind {
		case opPlace:
			req := placemonclient.PlacementRequest{Alpha: large.alpha}
			for _, s := range large.services {
				req.Services = append(req.Services, placemonclient.ServiceSpec{Name: s.Name, Clients: s.Clients})
			}
			o.place, err = sc.Place(ctx, req)
		case opReplace:
			_, err = sc.ReplaceNetwork(ctx, placemonclient.NetworkChange{Nodes: large.numNodes, Edges: networks[o.net]})
		case opDiagnosis:
			o.diag, err = sc.Diagnosis(ctx)
		}
		return err
	}
}

// placedHosts reads a scenario's placement from the host column of its
// diagnosis connection table.
func placedHosts(diag *placemonclient.DiagnosisResponse, t *tenant) ([]int, error) {
	hosts := make([]int, len(t.services))
	for _, conn := range diag.Connections {
		if conn.Service < 0 || conn.Service >= len(hosts) {
			return nil, fmt.Errorf("connection table names service %d", conn.Service)
		}
		hosts[conn.Service] = conn.Host
	}
	return hosts, nil
}
