package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/netsim"
	"repro/internal/oploop"
	"repro/internal/placement"
)

// This file is experiment X7 quantified: the operational loop (failure
// trace → event simulation → online daemon) scored per placement
// algorithm and probe period — turning the paper's abstract measures into
// detection rate, pinpoint rate, and detection latency.

// OpLoopRow is one (algorithm, probe period) cell.
type OpLoopRow struct {
	Algo        Algo
	ProbePeriod float64
	Covered     int
	Episodes    int
	Detection   float64
	Pinpoint    float64
	MeanDelay   float64
}

// OpLoopConfig tunes the sweep.
type OpLoopConfig struct {
	Alpha        float64
	ProbePeriods []float64
	Horizon      float64
	MTBF, MTTR   float64
	Seed         int64
}

// OpLoopSweep runs the operational loop for the GD and QoS placements of
// a prepared workload across probe periods. The failure trace is
// identical across cells (same seed, same node universe), so differences
// come only from the placement and the probing cadence.
func OpLoopSweep(p *Prepared, cfg OpLoopConfig) ([]OpLoopRow, error) {
	if len(cfg.ProbePeriods) == 0 {
		cfg.ProbePeriods = []float64{5, 20}
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 3000
	}
	if cfg.MTBF == 0 {
		cfg.MTBF = 600
	}
	if cfg.MTTR == 0 {
		cfg.MTTR = 80
	}

	inst, err := p.Instance(cfg.Alpha)
	if err != nil {
		return nil, err
	}
	dist, err := placement.NewDistinguishability(1)
	if err != nil {
		return nil, err
	}
	placements := map[Algo]placement.Placement{}
	gd, err := placement.Run(context.Background(), inst, dist, placement.Options{Engine: placement.Eager})
	if err != nil {
		return nil, err
	}
	placements[AlgoGD] = gd.Placement
	qos, err := placement.QoS(inst, dist)
	if err != nil {
		return nil, err
	}
	placements[AlgoQoS] = qos.Placement

	var rows []OpLoopRow
	for _, algo := range []Algo{AlgoGD, AlgoQoS} {
		conns := connections(p, placements[algo])
		for _, period := range cfg.ProbePeriods {
			out, err := oploop.Run(p.Router, conns, oploop.Config{
				ProbePeriod: period,
				Horizon:     cfg.Horizon,
				MTBF:        cfg.MTBF,
				MTTR:        cfg.MTTR,
				Seed:        cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: oploop %s p=%g: %w", algo, period, err)
			}
			rows = append(rows, OpLoopRow{
				Algo:        algo,
				ProbePeriod: period,
				Covered:     out.Covered,
				Episodes:    len(out.Episodes),
				Detection:   out.DetectionRate(),
				Pinpoint:    out.PinpointRate(),
				MeanDelay:   out.MeanDetectionDelay(),
			})
		}
	}
	return rows, nil
}

// connections extracts the unique (client, host) pairs of a placement.
func connections(p *Prepared, pl placement.Placement) []netsim.Pair {
	seen := map[netsim.Pair]bool{}
	var conns []netsim.Pair
	for s, h := range pl.Hosts {
		if h == placement.Unplaced {
			continue
		}
		for _, c := range p.Services[s].Clients {
			pair := netsim.Pair{Client: c, Host: h}
			if !seen[pair] {
				seen[pair] = true
				conns = append(conns, pair)
			}
		}
	}
	return conns
}

// RenderOpLoop renders the sweep.
func RenderOpLoop(name string, alpha float64, rows []OpLoopRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Operational loop (%s, α=%g): detection and localization vs probe period\n", name, alpha)
	fmt.Fprintf(&b, "%-5s %8s %8s %9s %9s %9s %10s\n",
		"algo", "probe", "covered", "episodes", "detect", "pinpoint", "mean-delay")
	for _, r := range rows {
		delay := "-"
		if r.MeanDelay >= 0 {
			delay = fmt.Sprintf("%.2f", r.MeanDelay)
		}
		fmt.Fprintf(&b, "%-5s %8.1f %8d %9d %8.1f%% %8.1f%% %10s\n",
			r.Algo, r.ProbePeriod, r.Covered, r.Episodes,
			100*r.Detection, 100*r.Pinpoint, delay)
	}
	return b.String()
}
