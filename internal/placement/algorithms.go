package placement

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Result is the outcome of a placement algorithm run.
type Result struct {
	Placement Placement
	// Value is the objective value of the final placement.
	Value float64
	// Order lists services in the order the algorithm placed them
	// (greedy algorithms only; nil otherwise).
	Order []int
	// Evaluations counts objective evaluations, the dominant cost.
	Evaluations int
}

// eager is Algorithm 2 as written: every round evaluates every remaining
// (service, host) candidate against the current placement and adds the
// first maximum in ground order — the smaller service index, then the
// smaller host ID.
func eager(ctx context.Context, inst *Instance, obj Objective, progress ProgressFunc) (*Result, error) {
	res := &Result{Placement: NewPlacement(inst.NumServices())}
	eval := obj.newEvaluator(inst.NumNodes())
	baseVal := eval.Value()
	placed := make([]bool, inst.NumServices())
	for iter := 0; iter < inst.NumServices(); iter++ {
		if ctx.Err() != nil {
			return nil, errCanceled(ctx, iter)
		}
		roundStart := time.Now()
		best, bestVal, candidates := -1, -1.0, 0
		for e := range inst.elements {
			if placed[inst.elements[e].service] {
				continue
			}
			candidates++
			if v := eval.Try(inst.elements[e].paths); v > bestVal {
				best, bestVal = e, v
			}
		}
		res.Evaluations += candidates
		if best < 0 {
			return nil, fmt.Errorf("placement: no feasible placement at iteration %d", iter)
		}
		el := &inst.elements[best]
		eval.Add(el.paths)
		placed[el.service] = true
		res.Placement.Hosts[el.service] = el.host
		res.Order = append(res.Order, el.service)
		progress.emit(Round{
			Index:       iter,
			Service:     el.service,
			Host:        el.host,
			Gain:        bestVal - baseVal,
			Candidates:  candidates,
			Evaluations: candidates,
			Duration:    time.Since(roundStart),
		})
		baseVal = bestVal
	}
	res.Value = eval.Value()
	return res, nil
}

// QoS computes the best-QoS baseline: each service goes to the host
// minimizing its worst-case client distance (ties to the smallest node
// ID), ignoring monitoring value. The objective is still evaluated so the
// result is comparable.
func QoS(inst *Instance, obj Objective) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	res := &Result{Placement: NewPlacement(inst.NumServices())}
	eval := obj.newEvaluator(inst.NumNodes())
	for s := 0; s < inst.NumServices(); s++ {
		h := inst.profiles[s].BestHost()
		paths, err := inst.SparsePaths(s, h)
		if err != nil {
			return nil, err
		}
		eval.Add(paths)
		res.Placement.Hosts[s] = h
	}
	res.Value = eval.Value()
	return res, nil
}

// Random computes the RD baseline: each service is placed on a host drawn
// uniformly from its candidate set using the provided source. Use a
// seeded source and average across seeds for the evaluation curves.
func Random(inst *Instance, obj Objective, rng *rand.Rand) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	if rng == nil {
		return nil, fmt.Errorf("placement: nil rng")
	}
	res := &Result{Placement: NewPlacement(inst.NumServices())}
	eval := obj.newEvaluator(inst.NumNodes())
	for s := 0; s < inst.NumServices(); s++ {
		h := inst.candidates[s][rng.Intn(len(inst.candidates[s]))]
		paths, err := inst.SparsePaths(s, h)
		if err != nil {
			return nil, err
		}
		eval.Add(paths)
		res.Placement.Hosts[s] = h
	}
	res.Value = eval.Value()
	return res, nil
}

// DefaultBruteForceBudget caps the number of placements BruteForce will
// enumerate unless the caller raises it.
const DefaultBruteForceBudget = 5_000_000

// BruteForce enumerates every feasible placement (the product of the
// candidate sets) and returns one maximizing the objective — the BF
// reference of Section VI. It refuses instances whose search space exceeds
// budget (pass 0 for DefaultBruteForceBudget). Ties break toward the
// lexicographically smallest host vector.
func BruteForce(inst *Instance, obj Objective, budget int64) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	if budget <= 0 {
		budget = DefaultBruteForceBudget
	}
	space := int64(1)
	for s := 0; s < inst.NumServices(); s++ {
		space *= int64(len(inst.candidates[s]))
		if space > budget {
			return nil, fmt.Errorf("placement: brute force space exceeds budget %d", budget)
		}
	}

	res := &Result{Placement: NewPlacement(inst.NumServices()), Value: -1}
	choice := make([]int, inst.NumServices())
	for {
		eval := obj.newEvaluator(inst.NumNodes())
		for s, ci := range choice {
			eval.Add(inst.elements[inst.elemIndex[s][ci]].paths)
		}
		res.Evaluations++
		if v := eval.Value(); v > res.Value {
			res.Value = v
			for s, ci := range choice {
				res.Placement.Hosts[s] = inst.candidates[s][ci]
			}
		}
		// Odometer increment over the candidate index vector.
		s := inst.NumServices() - 1
		for s >= 0 {
			choice[s]++
			if choice[s] < len(inst.candidates[s]) {
				break
			}
			choice[s] = 0
			s--
		}
		if s < 0 {
			break
		}
	}
	return res, nil
}

// EvaluateWith computes the objective value of an arbitrary placement,
// e.g. one produced by a different algorithm or loaded from a file.
func EvaluateWith(inst *Instance, obj Objective, pl Placement) (float64, error) {
	if obj == nil {
		return 0, fmt.Errorf("placement: nil objective")
	}
	if len(pl.Hosts) != inst.NumServices() {
		return 0, fmt.Errorf("placement: placement has %d hosts, want %d", len(pl.Hosts), inst.NumServices())
	}
	eval := obj.newEvaluator(inst.NumNodes())
	for s, h := range pl.Hosts {
		if h == Unplaced {
			continue
		}
		paths, err := inst.SparsePaths(s, h)
		if err != nil {
			return 0, err
		}
		eval.Add(paths)
	}
	return eval.Value(), nil
}
