package placement

import (
	"context"
	"fmt"
)

// LocalSearch improves a complete placement by single-service moves: at
// each step it scans every (service, alternative candidate host) pair and
// applies the move with the largest objective improvement, stopping at a
// local optimum or after maxMoves moves (0 = no cap beyond the natural
// |S|·max|H_s| bound per step; the search always terminates because the
// objective strictly increases and is bounded).
//
// This is the classic interchange heuristic from facility location. It is
// most useful as a polish pass after Run: greedy's early, globally
// committed picks can sometimes be improved once the full path set is
// known. The result never has a lower objective value than the input.
func LocalSearch(inst *Instance, obj Objective, start Placement, maxMoves int) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	if len(start.Hosts) != inst.NumServices() {
		return nil, fmt.Errorf("placement: placement has %d hosts, want %d", len(start.Hosts), inst.NumServices())
	}
	if !start.Complete() {
		return nil, fmt.Errorf("placement: local search requires a complete placement")
	}
	current := start.Clone()
	currentVal, err := EvaluateWith(inst, obj, current)
	if err != nil {
		return nil, err
	}

	res := &Result{Placement: current, Value: currentVal}
	moves := 0
	for maxMoves <= 0 || moves < maxMoves {
		bestS, bestH := -1, -1
		bestVal := currentVal
		for s := 0; s < inst.NumServices(); s++ {
			original := current.Hosts[s]
			for _, h := range inst.candidates[s] {
				if h == original {
					continue
				}
				current.Hosts[s] = h
				v, err := EvaluateWith(inst, obj, current)
				if err != nil {
					current.Hosts[s] = original
					return nil, err
				}
				res.Evaluations++
				if v > bestVal {
					bestS, bestH, bestVal = s, h, v
				}
			}
			current.Hosts[s] = original
		}
		if bestS < 0 {
			break // local optimum
		}
		current.Hosts[bestS] = bestH
		currentVal = bestVal
		moves++
	}
	res.Placement = current
	res.Value = currentVal
	return res, nil
}

// GreedyWithLocalSearch runs Algorithm 2 and then polishes the result
// with LocalSearch — the GD+LS ablation of DESIGN.md. The returned
// Evaluations count covers both phases.
func GreedyWithLocalSearch(inst *Instance, obj Objective, maxMoves int) (*Result, error) {
	greedy, err := Run(context.Background(), inst, obj, Options{Engine: Eager})
	if err != nil {
		return nil, err
	}
	polished, err := LocalSearch(inst, obj, greedy.Placement, maxMoves)
	if err != nil {
		return nil, err
	}
	polished.Order = greedy.Order
	polished.Evaluations += greedy.Evaluations
	return polished, nil
}
