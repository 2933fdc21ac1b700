package main

import (
	"time"
)

// us converts seconds to microseconds.
func us(s float64) float64 { return s * 1e6 }

// latest returns the newest 2xx record of a trace ID on one node: a call
// that was retried leaves one record per delivery, and only the answered
// one is the call's.
func latest(recs []traceRec) (traceRec, bool) {
	var best traceRec
	found := false
	for _, r := range recs {
		if r.Status < 200 || r.Status >= 300 {
			continue
		}
		if !found || r.Start.After(best.Start) {
			best, found = r, true
		}
	}
	return best, found
}

// stageRow is one row of the run record's stage table.
type stageRow struct {
	N     int     `json:"n"`
	P50us float64 `json:"p50_us"`
}

// layerData is the traced pass's per-layer samples, joined from the
// benchmark's spans and the daemons' trace records.
type layerData struct {
	samples map[string][]float64
	stages  map[string][]float64
	joined  int
	spans   int
}

func (l *layerData) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// addStages files every stage's self time, and the unstaged remainder,
// under the record's route.
func (l *layerData) addStages(prefix string, r traceRec) {
	self, unstaged := selfTimes(r)
	route := prefix + routeKey(r)
	for name, v := range self {
		l.stages[route+" | "+name] = append(l.stages[route+" | "+name], us(v))
	}
	l.stages[route+" | (unstaged)"] = append(l.stages[route+" | (unstaged)"], us(unstaged))
}

// joinLayers splits every traced call into layers. The client span minus
// its HTTP deliveries is placemonclient's own time; the last delivery
// minus the entry node's record is the wire; the entry node's forward
// stage is the cluster hop; the serving node's stages are the server,
// monitord, WAL and placement layers.
func (p *pass) joinLayers() *layerData {
	l := &layerData{samples: map[string][]float64{}, stages: map[string][]float64{}}
	entry, others := joinTraces(p.entry), joinTraces(p.others)
	for _, o := range p.ops {
		if o.span.traceID == "" || o.err != nil {
			continue
		}
		l.spans++
		var tripSum time.Duration
		for _, t := range o.span.trips {
			tripSum += t
		}
		l.add("placemonclient.self_us", us((o.span.call - tripSum).Seconds()))
		l.add("placemonclient.attempts_per_call", float64(len(o.span.trips)))
		er, ok := latest(entry[o.span.traceID])
		if !ok {
			continue
		}
		l.joined++
		l.add("server.wire_us", us(o.span.trips[len(o.span.trips)-1].Seconds()-er.Duration))
		serving := er
		if hasStage(er, "forward") {
			fwd := stageTotal(er, "forward")
			l.add("cluster.forward_us", us(fwd))
			l.add("cluster.entry_self_us", us(er.Duration-fwd))
			l.addStages("entry ", er)
			if serving, ok = latest(others[o.span.traceID]); !ok {
				continue
			}
		}
		l.addStages("", serving)
		self, unstaged := selfTimes(serving)
		switch o.kind {
		case opIngest:
			l.add("server.decode_us", us(self["decode"]))
			if v, ok := self["dedup"]; ok {
				l.add("server.dedup_us", us(v))
			}
			l.add("monitord.apply_us", us(self["ingest"]))
			if v, ok := self["wal"]; ok {
				l.add("wal.append_us", us(v))
			}
			l.add("server.unstaged_us", us(unstaged))
			l.add("monitord.events_per_batch", float64(len(o.ingest.Events)))
		case opDiagnosis:
			l.add("server.diagnosis_us", us(serving.Duration))
			if v, ok := self["diagnose"]; ok {
				l.add("monitord.diagnose_us", us(v))
			}
		case opPlace:
			rounds := stageTotal(serving, "placement round")
			l.add("server.queue_wait_ms", stageTotal(serving, "queue wait")*1e3)
			l.add("placement.rounds_s", rounds)
			l.add("placement.build_s", stageTotal(serving, "place")-rounds)
			l.add("placement.evaluations", float64(o.place.Evaluations))
		case opReplace:
			l.add("server.replace_span_s", serving.Duration)
		}
	}
	return l
}

func hasStage(r traceRec, name string) bool {
	for _, st := range r.Stages {
		if st.Name == name {
			return true
		}
	}
	return false
}

// meanLayers are per-layer metrics reported as means, not medians.
var meanLayers = map[string]bool{
	"placemonclient.attempts_per_call": true,
	"monitord.events_per_batch":        true,
}

// layerMetrics computes the per-layer metrics of a traced pass, with the
// tracing overhead measured against the untraced pass base.
func (p *pass) layerMetrics(base *pass) map[string]float64 {
	l := p.joinLayers()
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	for name, v := range p.layers {
		out[name] = v
	}
	for name, s := range l.samples {
		if meanLayers[name] {
			out[name] = mean(s)
		} else {
			out[name] = median(s)
		}
	}
	if l.spans > 0 {
		out["trace.joined_frac"] = float64(l.joined) / float64(l.spans)
	}
	traced, untraced := p.endToEnd(), base.endToEnd()
	for _, name := range []string{"ingest_p50_ms", "cpu_us_per_op", "heap_mb", "setup_s"} {
		out["trace.overhead."+name] = traced[name] - untraced[name]
	}
	return out
}

// stageTable summarizes every route and stage seen, for the run record;
// stages the daemon adds later appear here without a benchmark change.
func (l *layerData) stageTable() map[string]stageRow {
	out := map[string]stageRow{}
	for k, s := range l.stages {
		out[k] = stageRow{N: len(s), P50us: median(s)}
	}
	return out
}
