package main

import (
	"context"
	"fmt"
	"time"
)

// The observe workload: one in-memory daemon hosting 8 scenarios, each on
// its own ~2,000-node hierarchy with 256 monitored connections, driven
// open-loop at 300 arrivals/s over 2 connections, round-robin over the
// scenarios. Every 10th arrival reads the scenario's diagnosis; the rest
// report all 256 connections under a fresh failure set. It is the
// per-batch path every deployment pays, with reads beside writes, and
// bypasses the WAL, the cluster and placement.
const (
	observeTenants = 8
	observeRate    = 300.0
)

func runObserve(e *env) (*pass, error) {
	tenants := make([]*tenant, observeTenants)
	for i := range tenants {
		id := fmt.Sprintf("obs-%d", i)
		t, err := newTenant(id, observeShape, topologySeed(id))
		if err != nil {
			return nil, err
		}
		tenants[i] = t
	}
	offsets := schedule(observeRate, float64(loadWindows(e.seconds, loadFactor)), subSeed(e.seed, "schedule"))
	ops := make([]*op, len(offsets))
	counts := make([]int, observeTenants)
	for i, off := range offsets {
		o := &op{due: off, tenant: i % observeTenants, kind: opIngest}
		if i%10 == 9 {
			o.kind = opDiagnosis
		} else {
			o.batch = counts[o.tenant]
			counts[o.tenant]++
		}
		ops[i] = o
	}
	batches := make([][]batch, observeTenants)
	for i, t := range tenants {
		batches[i] = t.batches(counts[i], subSeed(e.seed, "batches-"+t.id))
	}

	p := &pass{traced: e.traced, ops: ops, operations: map[string]float64{}, layers: map[string]float64{}}
	var d *daemon
	err := p.timeSetups(func(int) (func() error, error) {
		var err error
		if d, err = startNode(e.daemonBin, tenants, traceBuffer(e.traced, len(ops))); err != nil {
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	senders := make([]*sender, 2)
	for i := range senders {
		s, err := newSender(d.url, e.traced)
		if err != nil {
			return nil, err
		}
		senders[i] = s
	}
	if err := prime(senders, tenants); err != nil {
		return nil, err
	}
	err = p.measureLoad([]*daemon{d}, e.seconds, loadFactor, func(start time.Time) {
		runOpen(start, senders, ops, callOp(tenants, batches))
	})
	if err != nil {
		return nil, err
	}

	// Checks run after the load phase: each scenario's ops in schedule
	// order, which is the order its one sender applied them.
	models := make([]*model, observeTenants)
	for i, t := range tenants {
		models[i] = newModel(t)
	}
	for _, o := range p.ops {
		m := models[o.tenant]
		switch o.kind {
		case opIngest:
			var err error
			if o.err == nil {
				err = m.checkIngest(batches[o.tenant][o.batch], o.ingest)
			}
			finishOp(o, err)
		case opDiagnosis:
			var err error
			if o.err == nil {
				err = m.checkDiagnosis(o.diag)
			}
			finishOp(o, err)
		}
	}
	admin, err := adminClient(d.url)
	if err != nil {
		return nil, err
	}
	for i, t := range tenants {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		got, err := admin.Scenario(t.id).Diagnosis(ctx)
		cancel()
		if err == nil {
			err = models[i].checkDiagnosis(got)
		}
		p.addCheck("final diagnosis "+t.id, err)
	}
	p.operations["diagnosis_p50_ms"] = median(p.latencies(opDiagnosis, false))
	if e.traced {
		if p.entry, err = fetchTraces(d.url); err != nil {
			return nil, err
		}
	}
	return p, nil
}
