package placement

import (
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
// cached marginal gain and the round it was computed in.
type lazyEntry struct {
	elem  int
	gain  float64
	round int
}

// lazyHeap orders entries by gain descending, then ground-element index
// ascending. Element indices are assigned in (service, candidate-position)
// scan order, so the secondary key reproduces the eager engine's
// first-maximum tie-break (smaller service index, then smaller host ID)
// exactly. It sifts lazyEntry values in place, so a push or pop allocates
// nothing beyond the slice's own growth.
type lazyHeap []lazyEntry

func (h lazyHeap) less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].elem < h[j].elem
}

// heapify establishes the heap order over arbitrary contents.
func (h lazyHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *lazyHeap) push(e lazyEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the top entry; the heap must not be empty.
func (h *lazyHeap) pop() lazyEntry {
	old := *h
	top, last := old[0], len(old)-1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return top
}

func (h lazyHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h lazyHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// lazy is the CELF engine: after the initial sweep it pops the heap
// top, selects it if its gain was computed this round, and otherwise
// re-evaluates it and pushes it back.
func lazy(ctx context.Context, inst *Instance, obj Objective, progress ProgressFunc) (*Result, error) {
	res := &Result{Placement: NewPlacement(inst.NumServices())}
	eval := obj.newEvaluator(inst.NumNodes())
	baseVal := eval.Value()
	placed := make([]bool, inst.NumServices())

	// Initial sweep: every ground element evaluated once against the
	// empty placement — exactly the eager engine's first round.
	h := make(lazyHeap, len(inst.elements))
	for e := range inst.elements {
		h[e] = lazyEntry{elem: e, gain: eval.Try(inst.elements[e].paths) - baseVal}
	}
	res.Evaluations = len(h)
	h.heapify()

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
		for len(h) > 0 {
			top := h.pop()
			pops++
			if placed[inst.elements[top.elem].service] {
				continue // service already placed; retire the entry
			}
			if top.round == iter {
				// A fresh gain is exact, and every entry below carries a
				// cached upper bound ≤ this gain, so no remaining element
				// can beat it: select. Equal-gain elements with a smaller
				// index would have been popped (and refreshed) first, so
				// the tie-break matches the eager engine.
				chosen, found = top, true
				break
			}
			top.gain = eval.Try(inst.elements[top.elem].paths) - baseVal
			top.round = iter
			res.Evaluations++
			h.push(top)
		}
		if !found {
			return nil, fmt.Errorf("placement: no feasible placement at iteration %d", iter)
		}
		el := &inst.elements[chosen.elem]
		eval.Add(el.paths)
		prevVal := baseVal
		baseVal = eval.Value()
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
