package placement

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// Engine selects how Run searches the ground set in each round of
// Algorithm 2. Every engine places one service per round; they differ in
// how many (service, host) candidates they evaluate to find the round's
// winner.
type Engine int

const (
	// Lazy is CELF lazy evaluation (lazy.go): cached marginal gains are
	// upper bounds under submodularity, so only the heap top is ever
	// re-evaluated. Same hosts, order and value as Eager, with far fewer
	// evaluations. It is the zero Engine.
	Lazy Engine = iota
	// Eager evaluates every remaining candidate in every round:
	// Algorithm 2 exactly as the paper writes it.
	Eager
	// Stochastic evaluates a seeded random sample of the remaining
	// candidates per round (stochastic.go), a (1 − 1/e − ε)-approximation
	// in expectation.
	Stochastic
)

// Options configures Run. The zero value runs the Lazy engine on the
// calling goroutine without progress reporting.
type Options struct {
	// Engine selects the search strategy.
	Engine Engine
	// Workers is how many goroutines share each batch of objective
	// evaluations in the Eager and Lazy engines; ≤ 1 evaluates on the
	// calling goroutine. The placement is the same at every worker count.
	// The Stochastic engine is always sequential.
	Workers int
	// Eps and Seed parameterize the Stochastic engine: each round samples
	// StochasticSampleSize candidates (Eps must lie in (0, 1)), drawn from
	// a source seeded with Seed, so equal seeds give equal runs.
	Eps  float64
	Seed int64
	// Warm, when non-nil, serves the Lazy engine's round-0 gains from a
	// cache that lives across runs (see WarmPlacer). Only the Lazy engine
	// accepts a warm start.
	Warm *WarmPlacer
	// Progress, when non-nil, receives one callback per completed round.
	Progress ProgressFunc
}

// Run places every service of inst by Algorithm 2's greedy: starting
// from no placements, each round adds the (service, host) pair that
// maximizes f(P ∪ P(C_s, h)) among unplaced services and their
// candidates. Ties break toward the smaller service index, then the
// smaller host ID, so runs are deterministic and the Eager and Lazy
// engines agree bit for bit at every worker count.
//
// For the coverage and distinguishability objectives this is a
// 1/2-approximation of the optimum (Corollaries 14 and 18). Identifiability
// is not submodular (Propositions 15 and 16), so neither cached nor
// sampled gains say anything about it: a non-submodular objective runs
// the Eager engine whatever Engine or Warm say, with the caller's Workers
// and Progress. That is the GI heuristic, without a guarantee.
//
// Cancellation is observed once per round; the returned error then wraps
// ctx.Err().
func Run(ctx context.Context, inst *Instance, obj Objective, opts Options) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("placement: nil objective")
	}
	switch opts.Engine {
	case Lazy, Eager:
	case Stochastic:
		if math.IsNaN(opts.Eps) || opts.Eps <= 0 || opts.Eps >= 1 {
			return nil, fmt.Errorf("placement: stochastic eps %v outside (0, 1)", opts.Eps)
		}
	default:
		return nil, fmt.Errorf("placement: unknown engine %d", opts.Engine)
	}
	if opts.Warm != nil && opts.Engine != Lazy {
		return nil, fmt.Errorf("placement: a warm start needs the lazy engine")
	}
	workers := max(opts.Workers, 1)
	switch {
	case opts.Engine == Eager || !obj.submodular():
		return eager(ctx, inst, obj, workers, opts.Progress)
	case opts.Engine == Stochastic:
		return stochastic(ctx, inst, obj, opts.Eps, opts.Seed, opts.Progress)
	case opts.Warm != nil:
		return opts.Warm.run(ctx, inst, obj, workers, opts.Progress)
	}
	return lazy(ctx, inst, obj, workers, opts.Progress, nil, 0)
}

// errCanceled wraps ctx.Err() so callers can errors.Is-match
// context.Canceled / DeadlineExceeded on an abandoned run.
func errCanceled(ctx context.Context, iter int) error {
	return fmt.Errorf("placement: run canceled before round %d: %w", iter, ctx.Err())
}

// fanOut splits [0, n) into at most workers contiguous chunks, in index
// order, and calls fn(c, lo, hi) for chunk c = [lo, hi), concurrently when
// workers > 1. It returns once every chunk is done. With workers ≤ 1 or
// n ≤ 1 it makes the single call fn(0, 0, n) on the calling goroutine.
func fanOut(n, workers int, fn func(c, lo, hi int)) {
	if workers <= 1 || n <= 1 {
		fn(0, 0, n)
		return
	}
	size := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+size {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(c, lo, min(lo+size, n))
	}
	wg.Wait()
}
