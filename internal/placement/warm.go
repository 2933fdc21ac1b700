package placement

import (
	"context"
	"hash/fnv"
	"sync"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// WarmPlacer is the round-0 gain cache behind Options.Warm: it lets
// lazy-engine runs across topology revisions reuse cached round-0
// marginal gains for every ground element whose measurement paths did
// not change. The key observation: an element's first-round gain
// f({e}) − f(∅) depends only on its own path set and the node
// universe, not on any other element — so after an edge delta,
// only elements whose paths were actually rerouted need re-evaluation.
// A single edge change in a 10k-node hierarchy typically reroutes a few
// candidates' paths and leaves thousands untouched, which is what makes
// PUT /v1/scenarios/{id}/network re-placement sub-second.
//
// Correctness does not depend on how stale the cache is: cached gains
// are exact round-0 values keyed by the path content itself, so seeding
// the CELF engine with them is value-identical to the cold initial
// sweep and the placement comes out bit-for-bit equal to a cold lazy run
// on the current topology (the warm-start property test pins this).
//
// A WarmPlacer is safe for concurrent use; concurrent runs sharing one
// placer serialize.
type WarmPlacer struct {
	mu       sync.Mutex
	objName  string
	numNodes int
	gains    map[warmKey]float64
}

// warmKey identifies a ground element by content, not by index: the
// service (index and client-set size), the candidate host, and a
// signature of the element's evaluated path set. Any topology change
// that reroutes the element's paths changes the signature and misses
// the cache; an element whose paths survived the change hits it even if
// candidate sets shifted around it.
type warmKey struct {
	service int
	host    graph.NodeID
	sig     pathSig
}

// pathSig fingerprints a path set: two independent FNV-64 mixes over
// the per-path keys plus the path count and total node count. A
// collision would require two different path sets to agree on both
// 64-bit hashes and both counts — vanishingly unlikely, and the cost of
// one is a placement computed from a stale gain of a *different* path
// set, caught by the equivalence tests long before production.
type pathSig struct {
	count, nodes int
	h1, h2       uint64
}

func signature(paths []*bitset.Sparse) pathSig {
	sig := pathSig{count: len(paths)}
	a := fnv.New64a()
	b := fnv.New64()
	for _, p := range paths {
		sig.nodes += p.Count()
		k := p.Key()
		a.Write([]byte(k))
		a.Write([]byte{0xff})
		b.Write([]byte(k))
		b.Write([]byte{0xfe})
	}
	sig.h1, sig.h2 = a.Sum64(), b.Sum64()
	return sig
}

// NewWarmPlacer returns an empty placer; the first run that uses it is
// cold and populates the cache.
func NewWarmPlacer() *WarmPlacer { return &WarmPlacer{} }

// run is the Lazy engine seeded from the cache where an element's path
// content is unchanged; it refills the cache with the current instance's
// gains for the next run. Result.Evaluations counts only fresh
// evaluations and Result.WarmReused the cache hits, which is the
// warm-start saving. Run routes here only for submodular objectives: the
// CELF upper-bound invariant the seeds rely on holds for no other.
func (w *WarmPlacer) run(ctx context.Context, inst *Instance, obj Objective, workers int, progress ProgressFunc) (*Result, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.objName != obj.Name() || w.numNodes != inst.NumNodes() {
		// Different objective or universe: every cached gain is invalid.
		w.gains = nil
	}

	seeds := make([]lazyEntry, len(inst.elements))
	keys := make([]warmKey, len(inst.elements))
	var misses []int
	for e := range inst.elements {
		el := &inst.elements[e]
		keys[e] = warmKey{service: el.service, host: el.host, sig: signature(el.evalPaths)}
		if g, ok := w.gains[keys[e]]; ok {
			seeds[e] = lazyEntry{elem: e, gain: g, round: 0}
		} else {
			misses = append(misses, e)
		}
	}

	// Evaluate the misses against the empty placement, fanned out like
	// the cold engine's initial sweep.
	if len(misses) > 0 {
		base := obj.newEvaluator(inst.NumNodes())
		emptyVal := base.Value()
		fanOut(len(misses), workers, func(_, lo, hi int) {
			for _, e := range misses[lo:hi] {
				trial := base.Clone()
				trial.Add(inst.elements[e].evalPaths)
				seeds[e] = lazyEntry{elem: e, gain: trial.Value() - emptyVal, round: 0}
			}
		})
	}

	// Snapshot the cache rebuild before the run: the engine takes
	// ownership of the seeds slice as its heap and scrambles it. Stale
	// entries from revisions that no longer exist are dropped by
	// rebuilding wholesale rather than merging.
	next := make(map[warmKey]float64, len(seeds))
	for e := range keys {
		next[keys[e]] = seeds[e].gain
	}

	res, err := lazy(ctx, inst, obj, workers, progress, seeds, len(misses))
	if err != nil {
		return nil, err
	}
	res.WarmReused = len(inst.elements) - len(misses)
	w.objName, w.numNodes, w.gains = obj.Name(), inst.NumNodes(), next
	return res, nil
}
