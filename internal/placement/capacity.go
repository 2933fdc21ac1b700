package placement

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/matroid"
)

// CapacityConstraints models the Section VII-A extension: each service s
// consumes Demand[s] resources and each host h offers Capacity[h]; a
// placement must satisfy Σ_{s on h} Demand[s] ≤ Capacity[h] (constraint
// (5)) in addition to the candidate-set constraint (2).
type CapacityConstraints struct {
	// Demand[s] is r_s for service s. Must cover every service.
	Demand []float64
	// Capacity maps host node ID → R_h. Hosts absent from the map have
	// unlimited capacity.
	Capacity map[graph.NodeID]float64
}

// Feasible reports whether a placement satisfies the capacity constraints
// and returns the violated host if not.
func (c CapacityConstraints) Feasible(pl Placement) (bool, graph.NodeID) {
	load := map[graph.NodeID]float64{}
	for s, h := range pl.Hosts {
		if h == Unplaced {
			continue
		}
		load[h] += c.Demand[s]
	}
	for h, l := range load {
		if cap, ok := c.Capacity[h]; ok && l > cap+1e-12 {
			return false, h
		}
	}
	return true, Unplaced
}

// GreedyCapacitated runs the greedy of Algorithm 2 restricted to the
// p-independence system formed by constraints (2) and (5). For monotone
// submodular objectives (coverage, distinguishability) Theorem 21 gives a
// 1/(p+1) approximation with p = ⌈r_max/r_min⌉ + 1; identical demands
// yield the best ratio 1/3.
//
// Services that cannot be placed without violating capacity are left
// Unplaced and reported in the error; the partial placement is still
// returned for inspection.
func GreedyCapacitated(inst *Instance, obj Objective, cons CapacityConstraints) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	if len(cons.Demand) != inst.NumServices() {
		return nil, fmt.Errorf("placement: %d demands for %d services", len(cons.Demand), inst.NumServices())
	}
	for s, r := range cons.Demand {
		if r < 0 {
			return nil, fmt.Errorf("placement: service %d has negative demand", s)
		}
	}

	res := &Result{Placement: NewPlacement(inst.NumServices())}
	base := obj.newEvaluator(inst.NumNodes())
	placed := make([]bool, inst.NumServices())
	residual := map[graph.NodeID]float64{}
	for h, r := range cons.Capacity {
		residual[h] = r
	}
	fits := func(s int, h graph.NodeID) bool {
		r, limited := residual[h]
		return !limited || cons.Demand[s] <= r+1e-12
	}

	unplaced := inst.NumServices()
	for iter := 0; iter < inst.NumServices(); iter++ {
		bestS, bestH, bestVal := -1, -1, -1.0
		for s := 0; s < inst.NumServices(); s++ {
			if placed[s] {
				continue
			}
			for _, h := range inst.candidates[s] {
				if !fits(s, h) {
					continue
				}
				paths, err := inst.EvalPaths(s, h)
				if err != nil {
					return nil, err
				}
				res.Evaluations++
				if v := base.Try(paths); v > bestVal {
					bestS, bestH, bestVal = s, h, v
				}
			}
		}
		if bestS < 0 {
			break // remaining services cannot fit anywhere
		}
		paths, err := inst.EvalPaths(bestS, bestH)
		if err != nil {
			return nil, err
		}
		base.Add(paths)
		placed[bestS] = true
		if _, limited := residual[bestH]; limited {
			residual[bestH] -= cons.Demand[bestS]
		}
		res.Placement.Hosts[bestS] = bestH
		res.Order = append(res.Order, bestS)
		unplaced--
	}
	res.Value = base.Value()
	if unplaced > 0 {
		return res, fmt.Errorf("placement: %d services could not be placed within capacity", unplaced)
	}
	return res, nil
}

// IndependenceSystem exposes the instance's constraint structure as a
// matroid-package system: the partition matroid for nil constraints, or
// the capacity p-independence system otherwise. Useful for property tests
// and for driving the generic matroid.Greedy.
func (inst *Instance) IndependenceSystem(cons *CapacityConstraints) (matroid.IndependenceSystem, error) {
	serviceOf := make([]int, len(inst.elements))
	hostOf := make([]int, len(inst.elements))
	for e, el := range inst.elements {
		serviceOf[e] = el.service
		hostOf[e] = el.host
	}
	if cons == nil {
		capacity := make([]int, inst.NumServices())
		for i := range capacity {
			capacity[i] = 1
		}
		return matroid.NewPartitionMatroid(serviceOf, capacity)
	}
	capacities := make([]float64, inst.NumNodes())
	for h := range capacities {
		capacities[h] = 1e18 // effectively unlimited
	}
	for h, r := range cons.Capacity {
		if h < 0 || h >= inst.NumNodes() {
			return nil, fmt.Errorf("placement: capacity for out-of-range host %d", h)
		}
		capacities[h] = r
	}
	return matroid.NewCapacitySystem(serviceOf, hostOf, cons.Demand, capacities)
}

// Elements returns the ground-set size and a decoder from element index to
// (service, host), for use with IndependenceSystem and matroid.Greedy.
func (inst *Instance) Elements() (int, func(e int) (service int, host graph.NodeID)) {
	return len(inst.elements), func(e int) (int, graph.NodeID) {
		return inst.elements[e].service, inst.elements[e].host
	}
}

// ObjectiveOnElements adapts an Objective to a matroid.SetFunction over
// the instance's ground elements.
func (inst *Instance) ObjectiveOnElements(obj Objective) matroid.SetFunction {
	return matroid.SetFunctionFunc(func(selected []int) float64 {
		eval := obj.newEvaluator(inst.NumNodes())
		for _, e := range selected {
			eval.Add(inst.elements[e].evalPaths)
		}
		return eval.Value()
	})
}
