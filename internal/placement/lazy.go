package placement

import (
	"container/heap"
	"context"
	"fmt"
	"time"
)

// This file implements the CELF ("cost-effective lazy forward") variant of
// Algorithm 2. For a monotone submodular objective the marginal gain of a
// candidate can only shrink as the placement grows (diminishing returns,
// Lemmas 13 and 17), so a gain cached in an earlier round is a valid upper
// bound on the current gain. The engine keeps every (service, host)
// candidate in a max-heap keyed by its cached gain and re-evaluates only
// the top entry when its cache is stale; most candidates are never looked
// at again after the initial sweep, which is where the evaluation savings
// in BENCH_*.json come from. The placement produced is bit-for-bit
// identical to the eager engine's, including the deterministic tie-break.

// lazyEntry is one heap slot: a ground element (service, host) with the
// cached marginal gain and the round it was computed in. eval retains the
// trial evaluator of a per-round recomputation so that, when the entry
// wins the round, its state is adopted as the new base instead of
// re-adding the chosen paths.
type lazyEntry struct {
	elem  int
	gain  float64
	round int
	eval  evaluator
}

// lazyHeap orders entries by gain descending, then ground-element index
// ascending. Element indices are assigned in (service, candidate-position)
// scan order, so the secondary key reproduces the eager engine's
// first-maximum tie-break (smaller service index, then smaller host ID)
// exactly.
type lazyHeap []lazyEntry

func (h lazyHeap) Len() int { return len(h) }

func (h lazyHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].elem < h[j].elem
}

func (h lazyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *lazyHeap) Push(x any) { *h = append(*h, x.(lazyEntry)) }

func (h *lazyHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = lazyEntry{} // release the retained evaluator, if any
	*h = old[:n-1]
	return e
}

// lazy is the CELF engine, with an optional warm start. workers > 1
// fans the initial sweep out in chunks and re-evaluates consecutive stale
// heap tops as one parallel batch instead of one at a time; the placement
// is the same, only Result.Evaluations may be slightly higher (a batch
// can refresh entries the sequential engine would not have reached),
// never higher than the eager engine's per-round sweeps.
//
// A nil seeds is the cold engine: every ground element is evaluated once
// against the empty placement (the eager engine's first round) before
// selection begins. A non-nil seeds must hold one entry per ground
// element carrying its exact round-0 marginal gain (f({e}) − f(∅)),
// stamped round 0; the engine then skips the initial sweep and counts
// only preEvals evaluations toward round 0 — the number of seed gains
// the caller had to compute fresh rather than serve from a cache.
// Because a correct seed set is value-identical to what the cold sweep
// would produce, the selection sequence — and thus the placement, order,
// and value — is bit-for-bit the cold engine's.
func lazy(ctx context.Context, inst *Instance, obj Objective, workers int, progress ProgressFunc, seeds []lazyEntry, preEvals int) (*Result, error) {
	res := &Result{Placement: NewPlacement(inst.NumServices())}
	base := obj.newEvaluator(inst.NumNodes())
	baseVal := base.Value()
	placed := make([]bool, inst.NumServices())

	// refresh recomputes the current-round marginal gain of each entry,
	// fanned out across workers. Each recomputation is one objective
	// evaluation, counted exactly as in the eager engine. retain keeps
	// the trial evaluator on the entry for adoption; the initial sweep
	// drops it so at most O(recomputations) evaluator clones are ever
	// live, not O(ground set).
	refresh := func(ents []lazyEntry, round int, retain bool) {
		fanOut(len(ents), workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				e := &ents[i]
				trial := base.Clone()
				trial.Add(inst.elements[e.elem].evalPaths)
				e.gain = trial.Value() - baseVal
				e.round = round
				if retain {
					e.eval = trial
				}
			}
		})
		res.Evaluations += len(ents)
	}

	var h lazyHeap
	if seeds == nil {
		// Initial sweep: every ground element evaluated once against the
		// empty placement — exactly the eager engine's first round.
		h = make(lazyHeap, len(inst.elements))
		for e := range inst.elements {
			h[e] = lazyEntry{elem: e}
		}
		refresh(h, 0, false)
	} else {
		h = lazyHeap(seeds)
		res.Evaluations += preEvals
	}
	heap.Init(&h)

	var batch []lazyEntry
	for iter := 0; iter < inst.NumServices(); iter++ {
		if ctx.Err() != nil {
			return nil, errCanceled(ctx, iter)
		}
		roundStart := time.Now()
		evalsBefore := res.Evaluations
		if iter == 0 {
			// The initial ground-set sweep is the eager engine's first
			// round; attribute its evaluations to round 0.
			evalsBefore = 0
		}
		pops := 0
		chosen, found := lazyEntry{}, false
		for h.Len() > 0 || len(batch) > 0 {
			if h.Len() == 0 {
				// The heap drained into the pending batch (the remaining
				// entries were all retired): flush and keep going.
				refresh(batch, iter, true)
				for _, e := range batch {
					heap.Push(&h, e)
				}
				batch = batch[:0]
				continue
			}
			top := heap.Pop(&h).(lazyEntry)
			pops++
			if placed[inst.elements[top.elem].service] {
				continue // service already placed; retire the entry
			}
			if top.round == iter && len(batch) == 0 {
				// A fresh gain is exact, and every entry below carries a
				// cached upper bound ≤ this gain, so no remaining element
				// can beat it: select. Equal-gain elements with a smaller
				// index would have been popped (and refreshed) first, so
				// the tie-break matches the eager engine.
				chosen, found = top, true
				break
			}
			if top.round != iter {
				top.eval = nil
				batch = append(batch, top)
				// Sequentially the batch flushes after every entry; in
				// parallel mode consecutive stale tops share one fan-out.
				if len(batch) < workers && h.Len() > 0 {
					continue
				}
			} else {
				// Fresh, but entries batched before it had cached gains
				// above its: refresh them before deciding the round.
				heap.Push(&h, top)
			}
			refresh(batch, iter, true)
			for _, e := range batch {
				heap.Push(&h, e)
			}
			batch = batch[:0]
		}
		if !found {
			return nil, fmt.Errorf("placement: no feasible placement at iteration %d", iter)
		}
		el := &inst.elements[chosen.elem]
		if chosen.eval != nil {
			// The winning trial already holds base ∪ P(C_s, h): adopt it
			// instead of re-refining the old base with the chosen paths.
			base = chosen.eval
		} else {
			base.Add(el.evalPaths)
		}
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
