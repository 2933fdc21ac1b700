package placement

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
)

// Portfolio runs the full algorithm suite of the paper's evaluation on one
// instance and reports each algorithm's placement with all three k = 1
// measures — the programmatic form of one α-column of Figs. 5-7.
type Portfolio struct {
	// Entries come in canonical order: GC, GI, GD, GD+LS, QoS, RD, and BF
	// when requested.
	Entries []PortfolioEntry
}

// PortfolioEntry is one algorithm's outcome.
type PortfolioEntry struct {
	Name      string
	Placement Placement
	Metrics   Metrics
	// WorstRelDistance is the placement's QoS degradation.
	WorstRelDistance float64
}

// PortfolioConfig tunes RunPortfolio.
type PortfolioConfig struct {
	// IncludeBF adds the brute-force optimum for each measure (expensive;
	// bounded by BFBudget, 0 = package default). The BF entry's Metrics
	// hold per-measure optima and its Placement is the D1-optimal one.
	IncludeBF bool
	BFBudget  int64
	// RDSeed drives the random placement (a single draw; average over
	// seeds yourself if needed).
	RDSeed int64
	// LocalSearch adds a GD+LS entry (greedy polished by interchange).
	LocalSearch bool
}

// RunPortfolio executes every algorithm on the instance.
func RunPortfolio(inst *Instance, cfg PortfolioConfig) (*Portfolio, error) {
	coverage := NewCoverage()
	ident, err := NewIdentifiability(1)
	if err != nil {
		return nil, err
	}
	dist, err := NewDistinguishability(1)
	if err != nil {
		return nil, err
	}

	p := &Portfolio{}
	add := func(name string, pl Placement) error {
		m, err := inst.Evaluate(pl)
		if err != nil {
			return fmt.Errorf("placement: portfolio %s: %w", name, err)
		}
		p.Entries = append(p.Entries, PortfolioEntry{
			Name:             name,
			Placement:        pl,
			Metrics:          m,
			WorstRelDistance: inst.WorstRelativeDistance(pl),
		})
		return nil
	}

	for _, run := range []struct {
		name string
		obj  Objective
	}{
		{"GC", coverage},
		{"GI", ident},
		{"GD", dist},
	} {
		res, err := Run(context.Background(), inst, run.obj, Options{Engine: Eager})
		if err != nil {
			return nil, err
		}
		if err := add(run.name, res.Placement); err != nil {
			return nil, err
		}
	}

	if cfg.LocalSearch {
		res, err := GreedyWithLocalSearch(inst, dist, 0)
		if err != nil {
			return nil, err
		}
		if err := add("GD+LS", res.Placement); err != nil {
			return nil, err
		}
	}

	qres, err := QoS(inst, dist)
	if err != nil {
		return nil, err
	}
	if err := add("QoS", qres.Placement); err != nil {
		return nil, err
	}

	rres, err := Random(inst, dist, rand.New(rand.NewSource(cfg.RDSeed)))
	if err != nil {
		return nil, err
	}
	if err := add("RD", rres.Placement); err != nil {
		return nil, err
	}

	if cfg.IncludeBF {
		bfD, err := BruteForce(inst, dist, cfg.BFBudget)
		if err != nil {
			return nil, err
		}
		bfC, err := BruteForce(inst, coverage, cfg.BFBudget)
		if err != nil {
			return nil, err
		}
		bfI, err := BruteForce(inst, ident, cfg.BFBudget)
		if err != nil {
			return nil, err
		}
		mD, err := inst.Evaluate(bfD.Placement)
		if err != nil {
			return nil, err
		}
		p.Entries = append(p.Entries, PortfolioEntry{
			Name:      "BF",
			Placement: bfD.Placement,
			Metrics: Metrics{
				Coverage: int(bfC.Value),
				S1:       int(bfI.Value),
				D1:       mD.D1,
			},
			WorstRelDistance: inst.WorstRelativeDistance(bfD.Placement),
		})
	}
	return p, nil
}

// Lookup returns the entry with the given name, or nil.
func (p *Portfolio) Lookup(name string) *PortfolioEntry {
	for i := range p.Entries {
		if p.Entries[i].Name == name {
			return &p.Entries[i]
		}
	}
	return nil
}

// Render produces an aligned text table.
func (p *Portfolio) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-24s %9s %9s %9s %8s\n",
		"algo", "hosts", "covered", "identif.", "disting.", "worst-d̄")
	for _, e := range p.Entries {
		fmt.Fprintf(&b, "%-8s %-24s %9d %9d %9d %8.2f\n",
			e.Name, fmt.Sprint(e.Placement.Hosts),
			e.Metrics.Coverage, e.Metrics.S1, e.Metrics.D1, e.WorstRelDistance)
	}
	return b.String()
}
