package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// This file implements the "lazier than lazy greedy" stochastic variant
// of Algorithm 2 (Mirzasoleiman et al., AAAI 2015, applied to the
// partition-matroid ground set): instead of considering every remaining
// (service, host) candidate each round, the engine draws a uniform
// random sample of s = ⌈(n/k)·ln(1/ε)⌉ candidates and picks the best of
// the sample, so the per-round work drops from O(n) to O((n/k)·ln(1/ε))
// evaluations. No approximation factor is claimed here: Mirzasoleiman
// et al. prove (1 − 1/e − ε) in expectation under a cardinality
// constraint, and on this ground set, a partition matroid, the paper
// proves only 1/2, for plain greedy (Theorem 11). What is measured is
// the value against exact greedy: 0.9987–1.0000 on the archived
// 10k-node frontier (EXPERIMENTS.md). Within the sample, the CELF
// machinery still applies: gains cached in earlier rounds are upper
// bounds under submodularity, so the sample is worked through the same
// lazy heap and most sampled candidates are never re-evaluated either.

// StochasticSampleSize returns the per-round sample size
// ⌈(nGround/numServices)·ln(1/ε)⌉ (at least 1) that the Stochastic
// engine draws: the size for which a uniform sample misses the current
// round's true argmax-containing top fraction with probability at most
// ε.
func StochasticSampleSize(nGround, numServices int, eps float64) int {
	if nGround <= 0 || numServices <= 0 {
		return 1
	}
	s := int(math.Ceil(float64(nGround) / float64(numServices) * math.Log(1/eps)))
	if s < 1 {
		return 1
	}
	return s
}

// stochastic runs the sampled ("lazier than lazy") greedy: each round
// evaluates only a seeded-random sample of the remaining candidates,
// reusing CELF gain caching inside the sample. It carries no proven
// factor on this ground set (see above); with the same seed and
// instance the run is fully deterministic. eps lies in (0, 1) (Run
// checks it); smaller values sample more and approach the lazy engine,
// and a sample that covers every remaining candidate reproduces the lazy
// engine's placement bit for bit.
func stochastic(ctx context.Context, inst *Instance, obj Objective, eps float64, seed int64, progress ProgressFunc) (*Result, error) {
	res := &Result{Placement: NewPlacement(inst.NumServices())}
	base := obj.newEvaluator(inst.NumNodes())
	baseVal := base.Value()
	placed := make([]bool, inst.NumServices())
	rng := rand.New(rand.NewSource(seed))

	// bounds[e] is the cached marginal gain of ground element e from the
	// most recent round that evaluated it — an upper bound on its current
	// gain under submodularity, exactly the CELF invariant, carried
	// across rounds so re-sampled elements start from a tight bound
	// instead of +Inf.
	bounds := make([]float64, len(inst.elements))
	for i := range bounds {
		bounds[i] = math.Inf(1)
	}
	sampleSize := StochasticSampleSize(len(inst.elements), inst.NumServices(), eps)

	remaining := make([]int, 0, len(inst.elements))
	for iter := 0; iter < inst.NumServices(); iter++ {
		if ctx.Err() != nil {
			return nil, errCanceled(ctx, iter)
		}
		roundStart := time.Now()
		evalsBefore := res.Evaluations

		// Candidates of still-unplaced services, in ground order.
		remaining = remaining[:0]
		for e := range inst.elements {
			if !placed[inst.elements[e].service] {
				remaining = append(remaining, e)
			}
		}
		if len(remaining) == 0 {
			return nil, fmt.Errorf("placement: no feasible placement at iteration %d", iter)
		}
		s := sampleSize
		if s > len(remaining) {
			s = len(remaining)
		}
		// Partial Fisher–Yates: after the loop, remaining[:s] is a
		// uniform s-subset. The rng consumes exactly s draws per round,
		// keeping runs reproducible for a given (seed, instance).
		for i := 0; i < s; i++ {
			j := i + rng.Intn(len(remaining)-i)
			remaining[i], remaining[j] = remaining[j], remaining[i]
		}

		// CELF over the sample: pop the cached-bound max; if its bound is
		// stale, re-evaluate and push back; a fresh top is the sample's
		// exact argmax (every bound below it can only shrink), with the
		// heap's element-index tie-break matching the eager engine's.
		h := make(lazyHeap, 0, s)
		for _, e := range remaining[:s] {
			h = append(h, lazyEntry{elem: e, gain: bounds[e], round: -1})
		}
		h.heapify()
		pops := 0
		chosen, found := lazyEntry{}, false
		for len(h) > 0 {
			top := h.pop()
			pops++
			if top.round == iter {
				chosen, found = top, true
				break
			}
			gain := base.Try(inst.elements[top.elem].paths) - baseVal
			res.Evaluations++
			bounds[top.elem] = gain
			h.push(lazyEntry{elem: top.elem, gain: gain, round: iter})
		}
		if !found {
			return nil, fmt.Errorf("placement: no feasible placement at iteration %d", iter)
		}

		el := &inst.elements[chosen.elem]
		base.Add(el.paths)
		prevVal := baseVal
		baseVal = base.Value()
		placed[el.service] = true
		res.Placement.Hosts[el.service] = el.host
		res.Order = append(res.Order, el.service)
		progress.emit(Round{
			Index:       iter,
			Service:     el.service,
			Host:        el.host,
			Gain:        baseVal - prevVal,
			Candidates:  pops,
			Evaluations: res.Evaluations - evalsBefore,
			Duration:    time.Since(roundStart),
		})
	}
	res.Value = baseVal
	return res, nil
}
