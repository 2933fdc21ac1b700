package placement

import (
	"context"
	"fmt"
	"math"
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
	// candidates per round (stochastic.go). It proves no factor on this
	// ground set; measured against exact greedy it reads 0.9987–1.0000
	// on the archived 10k-node frontier.
	Stochastic
)

// Options configures Run. The zero value runs the Lazy engine without
// progress reporting. Every engine evaluates on the calling goroutine.
type Options struct {
	// Engine selects the search strategy.
	Engine Engine
	// Eps and Seed parameterize the Stochastic engine: each round samples
	// StochasticSampleSize candidates (Eps must lie in (0, 1)), drawn from
	// a source seeded with Seed, so equal seeds give equal runs.
	Eps  float64
	Seed int64
	// Progress, when non-nil, receives one callback per completed round.
	Progress ProgressFunc
}

// Run places every service of inst by Algorithm 2's greedy: starting
// from no placements, each round adds the (service, host) pair that
// maximizes f(P ∪ P(C_s, h)) among unplaced services and their
// candidates. Ties break toward the smaller service index, then the
// smaller host ID, so runs are deterministic and the Eager and Lazy
// engines agree bit for bit.
//
// For the coverage and distinguishability objectives this is a
// 1/2-approximation of the optimum (Corollaries 14 and 18). Identifiability
// is not submodular (Propositions 15 and 16), so neither cached nor
// sampled gains say anything about it: a non-submodular objective runs
// the Eager engine whatever Engine says, with the caller's Progress. That
// is the GI heuristic, without a guarantee.
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
	switch {
	case opts.Engine == Eager || !obj.submodular():
		return eager(ctx, inst, obj, opts.Progress)
	case opts.Engine == Stochastic:
		return stochastic(ctx, inst, obj, opts.Eps, opts.Seed, opts.Progress)
	}
	return lazy(ctx, inst, obj, opts.Progress)
}

// errCanceled wraps ctx.Err() so callers can errors.Is-match
// context.Canceled / DeadlineExceeded on an abandoned run.
func errCanceled(ctx context.Context, iter int) error {
	return fmt.Errorf("placement: run canceled before round %d: %w", iter, ctx.Err())
}
