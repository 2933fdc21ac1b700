package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/monitor"
	"repro/internal/placement"
)

// This file is the k = 2 extension experiment (DESIGN.md's general-k
// coverage): the paper evaluates at k = 1 but defines every measure for
// arbitrary k; here we rerun the α sweep on the smallest topology with
// exact |D_2| / |S_2|, plus the generalized failure-set identifiability
// of the remark after Theorem 19.

// K2Point is one (α, algorithm) cell of the k = 2 sweep.
type K2Point struct {
	Alpha float64
	// D2 is |D_2(P)| and S2 is |S_2(P)|, both exact.
	D2 int64
	S2 int
	// IdentifiableSets counts failure sets F ∈ F_2 whose path-state
	// signature is unique (uniquely localizable failures).
	IdentifiableSets int64
}

// K2Curves maps algorithms to their α-series.
type K2Curves map[Algo][]K2Point

// K2Config tunes the sweep. Only GD (driven by the k = 2 objective), QoS,
// and RD are compared: BF over the exact k = 2 objective is prohibitively
// slow and GI at k = 2 adds nothing beyond the identifiability column.
type K2Config struct {
	Alphas  []float64
	RDSeeds int
	Seed    int64
}

// K2Sweep runs the k = 2 experiment on a prepared workload (use Abovenet;
// the enumeration is Θ(|N|² |P|) per evaluation).
func K2Sweep(p *Prepared, cfg K2Config) (K2Curves, error) {
	if len(cfg.Alphas) == 0 {
		cfg.Alphas = []float64{0, 0.5, 1}
	}
	if cfg.RDSeeds < 1 {
		cfg.RDSeeds = 3
	}
	dist2, err := placement.NewDistinguishability(2)
	if err != nil {
		return nil, err
	}
	curves := K2Curves{AlgoGD: nil, AlgoQoS: nil, AlgoRD: nil}

	for _, alpha := range cfg.Alphas {
		inst, err := p.Instance(alpha)
		if err != nil {
			return nil, err
		}
		point := func(pl placement.Placement) (K2Point, error) {
			ps, err := inst.PathSet(pl)
			if err != nil {
				return K2Point{}, err
			}
			return K2Point{
				Alpha:            alpha,
				D2:               monitor.DistinguishabilityK(ps, 2),
				S2:               monitor.IdentifiabilityK(ps, 2),
				IdentifiableSets: monitor.IdentifiableFailureSetsK(ps, 2),
			}, nil
		}

		gd, err := placement.Run(context.Background(), inst, dist2, placement.Options{Engine: placement.Eager})
		if err != nil {
			return nil, fmt.Errorf("experiments: k2 GD at α=%g: %w", alpha, err)
		}
		pt, err := point(gd.Placement)
		if err != nil {
			return nil, err
		}
		curves[AlgoGD] = append(curves[AlgoGD], pt)

		qres, err := placement.QoS(inst, dist2)
		if err != nil {
			return nil, err
		}
		pt, err = point(qres.Placement)
		if err != nil {
			return nil, err
		}
		curves[AlgoQoS] = append(curves[AlgoQoS], pt)

		var acc K2Point
		acc.Alpha = alpha
		for seed := 0; seed < cfg.RDSeeds; seed++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(seed)))
			rres, err := placement.Random(inst, dist2, rng)
			if err != nil {
				return nil, err
			}
			rpt, err := point(rres.Placement)
			if err != nil {
				return nil, err
			}
			acc.D2 += rpt.D2
			acc.S2 += rpt.S2
			acc.IdentifiableSets += rpt.IdentifiableSets
		}
		acc.D2 /= int64(cfg.RDSeeds)
		acc.S2 /= cfg.RDSeeds
		acc.IdentifiableSets /= int64(cfg.RDSeeds)
		curves[AlgoRD] = append(curves[AlgoRD], acc)
	}
	return curves, nil
}

// RenderK2 renders the k = 2 sweep.
func RenderK2(name string, curves K2Curves) string {
	out := fmt.Sprintf("Extension (k=2, %s): exact |D_2|, |S_2|, and uniquely localizable failure sets\n", name)
	out += fmt.Sprintf("%6s", "α")
	algos := []Algo{AlgoGD, AlgoQoS, AlgoRD}
	for _, a := range algos {
		out += fmt.Sprintf(" | %8s %8s %8s", a+" D2", a+" S2", a+" uniq")
	}
	out += "\n"
	if len(curves[AlgoGD]) == 0 {
		return out
	}
	for i := range curves[AlgoGD] {
		out += fmt.Sprintf("%6.2f", curves[AlgoGD][i].Alpha)
		for _, a := range algos {
			pt := curves[a][i]
			out += fmt.Sprintf(" | %8d %8d %8d", pt.D2, pt.S2, pt.IdentifiableSets)
		}
		out += "\n"
	}
	return out
}
