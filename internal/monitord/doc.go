// Package monitord is the online monitoring daemon core: it consumes the
// stream of end-to-end connection state changes a deployed placement
// produces and maintains a rolling failure diagnosis. It is the runtime
// counterpart of the offline tomography package — the same Boolean
// tomography of Section III-B, but incremental, event-driven, and aware
// that some connections have not reported yet.
//
// Monitor tracks each monitoring path as up, down, or unknown, raises
// outage-started/outage-ended Events as the first failure appears and
// the last one clears, and refines its Diagnosis as reports arrive: an
// unknown path constrains nothing, a down path must contain a failed
// node, an up path exonerates every node on it. How sharp the refined
// diagnosis can get is exactly what the placement bought — nodes in
// S_k(P) (Section II-B2) localize uniquely, and the candidate-set size
// for the rest is the Fig. 8 degree of uncertainty (Section VI-B). The
// daemon-equals-offline property (a fully-reported daemon diagnosis
// matches tomography on the same observation) is pinned by test.
//
// Diagnosis refinement is incremental: Monitor carries per-node
// up-path/down-path counters maintained in O(|path|) per state change,
// so the common k=1 diagnosis is a closed-form read instead of a
// from-scratch recompute over every path. The diagnosis can change only
// when a connection's state does, so Report diagnoses at each state
// transition during an outage and keeps the result, diagnosis or error;
// Diagnosis returns that kept result and never localizes.
// VerifyIncremental cross-checks the kept diagnosis against a
// from-scratch recompute; the soak and crash harnesses call it to prove
// exactness under hostile schedules.
//
// The core is deliberately synchronous and deterministic: callers feed
// it state transitions (from netsim, from production probes, or from
// tests) and receive the events the transition triggered. A Monitor is
// not safe for concurrent use and owns no goroutine; the HTTP serving
// layer (internal/server) keeps each scenario's Monitor under that
// scenario's state lock, beside the rest of the scenario's state, so a
// batch applies as one unit.
package monitord
