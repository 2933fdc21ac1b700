// Package qos implements the QoS-constrained candidate host computation of
// the paper's Section III-A. The QoS measure is latency proxied by routing
// hop count: d(C, h) is the worst-case distance from host h to the clients
// C, and the relative distance
//
//	d̄(C, h) = (d(C, h) − d_min(C)) / (d_max(C) − d_min(C))         (eq. 3)
//
// normalizes the degradation against the best and worst possible hosts.
// The candidate set H(α) = {h : d̄(C, h) ≤ α} is nonempty for any α ≥ 0.
package qos

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Profile holds the per-host worst-case distances for one client set,
// along with the extremes d_min and d_max over all possible hosts.
type Profile struct {
	// Dist[h] = d(C, h): worst-case distance from host h to any client.
	Dist []float64
	// DMin and DMax are min_h Dist[h] and max_h Dist[h].
	DMin, DMax float64
}

// NewProfile computes the distance profile for a client set over every
// possible host in the routed graph. It returns an error when a client is
// unreachable from some host (the graph should be connected) or when no
// clients are given.
//
// The sweep is client-rooted: Dist[h] = max_c d(c, h) is accumulated
// from one shortest-path tree per client, so the cost is O(|C|)
// Dijkstras instead of O(N) — on a lazy router this is what lets
// candidate computation scale to 10k–100k-node topologies. Distances on
// an undirected graph are symmetric, so the values match the host-rooted
// formulation (on unit-weight graphs exactly; on arbitrary float weights
// up to summation order, which the CandidateHosts boundary tolerance
// absorbs).
func NewProfile(r *routing.Router, clients []graph.NodeID) (*Profile, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("qos: no clients")
	}
	n := r.NumNodes()
	p := &Profile{Dist: make([]float64, n)}
	for _, c := range clients {
		t := r.Tree(c)
		for h := range p.Dist {
			switch d := t.Dist(h); {
			case p.Dist[h] < 0 || d < 0:
				p.Dist[h] = -1 // some client cannot reach h
			case d > p.Dist[h]:
				p.Dist[h] = d
			}
		}
	}
	for h := 0; h < n; h++ {
		if p.Dist[h] < 0 {
			return nil, fmt.Errorf("qos: host %d cannot reach every client", h)
		}
	}
	p.DMin, p.DMax = p.Dist[0], p.Dist[0]
	for _, d := range p.Dist[1:] {
		if d < p.DMin {
			p.DMin = d
		}
		if d > p.DMax {
			p.DMax = d
		}
	}
	return p, nil
}

// RelativeDistance returns d̄(C, h) per eq. (3), in [0, 1]. When every
// host is equidistant (d_max = d_min) the degradation is defined as 0.
func (p *Profile) RelativeDistance(h graph.NodeID) float64 {
	if p.DMax == p.DMin {
		return 0
	}
	return (p.Dist[h] - p.DMin) / (p.DMax - p.DMin)
}

// CandidateHosts returns H(α) = {h : d̄(C, h) ≤ α} in ascending node
// order. For α ≥ 0 the set contains at least the d_min-achieving hosts;
// negative α is clamped to 0 so the result is never empty.
func (p *Profile) CandidateHosts(alpha float64) []graph.NodeID {
	if alpha < 0 {
		alpha = 0
	}
	var hosts []graph.NodeID
	for h := range p.Dist {
		// Tolerate floating rounding at the boundary.
		if p.RelativeDistance(h) <= alpha+1e-12 {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// BestHost returns the host minimizing the worst-case client distance,
// breaking ties toward the smallest node ID. This is the paper's "best
// QoS" placement for a single service (Section VI baseline).
func (p *Profile) BestHost() graph.NodeID {
	best := 0
	for h := 1; h < len(p.Dist); h++ {
		if p.Dist[h] < p.Dist[best] {
			best = h
		}
	}
	return best
}

// Candidates computes candidate host sets for many client sets at once,
// matching the two-step procedure of Section III-A (per-host distances,
// then per-service thresholds). The returned slice is indexed like
// clientSets.
func Candidates(r *routing.Router, clientSets [][]graph.NodeID, alpha float64) ([][]graph.NodeID, error) {
	out := make([][]graph.NodeID, len(clientSets))
	for i, clients := range clientSets {
		p, err := NewProfile(r, clients)
		if err != nil {
			return nil, fmt.Errorf("qos: service %d: %w", i, err)
		}
		out[i] = p.CandidateHosts(alpha)
	}
	return out, nil
}
