package placement

import (
	"context"
	"fmt"
)

// BranchAndBound computes the exact optimum placement like BruteForce but
// prunes the search tree with an admissible upper bound derived from
// submodularity: with services placed in index order, the best completion
// of a partial placement is at most
//
//	f(current) + Σ_{unplaced s} max_{h ∈ H_s} [f(current ∪ P(C_s, h)) − f(current)],
//
// because by diminishing returns each service's marginal gain can only
// shrink as other services are added. The bound is admissible only for
// monotone submodular objectives (coverage, distinguishability — Lemmas
// 13 and 17); BranchAndBound rejects non-submodular objectives, for which
// pruning could cut off the true optimum.
//
// The search is seeded with the greedy solution, so the incumbent starts
// within a factor 2 of optimal and pruning bites immediately. nodeBudget
// caps the number of explored tree nodes (0 = DefaultBranchBudget);
// exceeding it returns an error rather than a silently suboptimal answer.
func BranchAndBound(inst *Instance, obj Objective, nodeBudget int64) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	if !obj.submodular() {
		return nil, fmt.Errorf("placement: branch and bound requires a submodular objective, %s is not", obj.Name())
	}
	if nodeBudget <= 0 {
		nodeBudget = DefaultBranchBudget
	}

	// Incumbent: the greedy solution (1/2-approximate ⇒ a strong seed).
	greedy, err := Run(context.Background(), inst, obj, Options{Engine: Eager})
	if err != nil {
		return nil, err
	}
	best := greedy.Value
	bestPlacement := greedy.Placement.Clone()

	res := &Result{}
	nodes := int64(0)

	var dfs func(s int, eval evaluator, current Placement) error
	dfs = func(s int, eval evaluator, current Placement) error {
		nodes++
		if nodes > nodeBudget {
			return fmt.Errorf("placement: branch and bound exceeded node budget %d", nodeBudget)
		}
		if s == inst.NumServices() {
			if v := eval.Value(); v > best {
				best = v
				bestPlacement = current.Clone()
			}
			return nil
		}

		// Admissible bound: current value plus each remaining service's
		// best standalone marginal gain.
		base := eval.Value()
		bound := base
		// Candidate gains for service s, reused for branching order.
		type hostGain struct {
			host int
			gain float64
		}
		var sGains []hostGain
		for rem := s; rem < inst.NumServices(); rem++ {
			bestGain := 0.0
			for _, h := range inst.candidates[rem] {
				paths, err := inst.EvalPaths(rem, h)
				if err != nil {
					return err
				}
				res.Evaluations++
				gain := eval.Try(paths) - base
				if rem == s {
					sGains = append(sGains, hostGain{host: h, gain: gain})
				}
				if gain > bestGain {
					bestGain = gain
				}
			}
			bound += bestGain
		}
		if bound <= best {
			return nil // no completion can beat the incumbent
		}

		// Branch on service s, best-gain candidates first so good
		// incumbents arrive early. Stable by host ID for determinism.
		for i := 1; i < len(sGains); i++ {
			for j := i; j > 0 && (sGains[j].gain > sGains[j-1].gain ||
				(sGains[j].gain == sGains[j-1].gain && sGains[j].host < sGains[j-1].host)); j-- {
				sGains[j], sGains[j-1] = sGains[j-1], sGains[j]
			}
		}
		for _, hg := range sGains {
			paths, err := inst.EvalPaths(s, hg.host)
			if err != nil {
				return err
			}
			child := eval.Clone()
			child.Add(paths)
			current.Hosts[s] = hg.host
			if err := dfs(s+1, child, current); err != nil {
				return err
			}
			current.Hosts[s] = Unplaced
		}
		return nil
	}

	if err := dfs(0, obj.newEvaluator(inst.NumNodes()), NewPlacement(inst.NumServices())); err != nil {
		return nil, err
	}
	res.Placement = bestPlacement
	res.Value = best
	return res, nil
}

// DefaultBranchBudget caps the branch-and-bound tree size.
const DefaultBranchBudget = 2_000_000
